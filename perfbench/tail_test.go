package main

import (
	"math"
	"testing"
)

// tailRounds makes n consecutive rounds of per ops each, all completed.
func tailRounds(n, per int) []round {
	rs := make([]round, n)
	for k := range rs {
		rs[k] = round{lo: k * per, hi: (k + 1) * per, ran: per, ok: per}
	}
	return rs
}

// TestGroupTailIgnoresOneSlowGroup checks that a burst of slow ops confined
// to one group of rounds leaves the tail where the other groups put it,
// while the same burst spread over every group moves it.
func TestGroupTailIgnoresOneSlowGroup(t *testing.T) {
	rs := tailRounds(40, 250) // 10,000 ops: five groups of 2,000
	base := func(i int) float64 { return float64(i%100) / 10 }
	want, label := groupTail(rs, base, 0)
	if label != "99" {
		t.Fatalf("label %q, want 99 (20 samples beyond p99 in a group of 2,000)", label)
	}
	burst := func(i int) float64 {
		if i >= 2000 && i < 2600 {
			return 100
		}
		return base(i)
	}
	if got, _ := groupTail(rs, burst, 0); got != want {
		t.Errorf("burst in one group moved the tail from %g to %g", want, got)
	}
	everywhere := func(i int) float64 {
		if i%2000 < 600 {
			return 100
		}
		return base(i)
	}
	if got, _ := groupTail(rs, everywhere, 0); got != 100 {
		t.Errorf("burst in every group: tail %g, want 100", got)
	}
}

// TestGroupTailSmallSampleIsPooled checks that a sample too small for two
// groups gets the pooled ladder percentile, and that failed ops count as
// beyond any limit.
func TestGroupTailSmallSampleIsPooled(t *testing.T) {
	rs := tailRounds(30, 12) // 360 ops: one group, p95 leaves 18 beyond
	lat := func(i int) float64 { return float64(i) }
	got, label := groupTail(rs, lat, 0)
	if label != "95" || got != 341 {
		t.Errorf("tail %g at p%s, want 341 at p95", got, label)
	}
	failed := func(i int) float64 {
		if i < 20 {
			return math.Inf(1)
		}
		return float64(i)
	}
	if got, _ := groupTail(rs, failed, 0); !math.IsInf(got, 1) {
		t.Errorf("20 failed ops of 360: tail %g, want +Inf", got)
	}
	if got, _ := groupTail(rs, lat, 20); !math.IsInf(got, 1) {
		t.Errorf("20 failed ops outside the kept rounds: tail %g, want +Inf", got)
	}
}
