package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/scenario"
)

// tracer keeps the traced rounds' spans in memory; they are written out
// only when the run ends. Every span is recorded by benchmark code around
// a call into a module's public API.
type tracer struct {
	on    atomic.Bool
	t0    time.Time
	fp    string // pipeline fingerprint, to re-derive spec hashes
	mu    sync.Mutex
	spans []span
	// submitted maps a spec hash to the moment Backend.Submit returned it,
	// so the runner wrapper can time the queue wait.
	submitted sync.Map
}

// span is one timed call. Op is the benchmark op it belongs to (-1 when
// it cannot be attributed); Parent names the enclosing span.
type span struct {
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	Attr   string  `json:"attr,omitempty"`
	Start  float64 `json:"start_us"`
	Dur    float64 `json:"dur_us"`
}

type submitMark struct {
	op int
	at time.Time
}

func newTracer(fingerprint string) *tracer {
	return &tracer{t0: time.Now(), fp: fingerprint}
}

func (t *tracer) record(op int, name, parent, attr string, start, end time.Time) {
	s := span{Op: op, Name: name, Parent: parent, Attr: attr,
		Start: float64(start.Sub(t.t0).Nanoseconds()) / 1e3,
		Dur:   float64(end.Sub(start).Nanoseconds()) / 1e3}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// recordDur records a span known only by its duration (simulator phases).
func (t *tracer) recordDur(op int, name, parent string, d time.Duration) {
	t.mu.Lock()
	t.spans = append(t.spans, span{Op: op, Name: name, Parent: parent, Dur: float64(d.Nanoseconds()) / 1e3})
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// opKey carries the benchmark op index through the request context.
type opKey struct{}

// opHeader names the request header the client puts the op index in.
const opHeader = "X-Perfbench-Op"

func opFrom(ctx context.Context) int {
	if v, ok := ctx.Value(opKey{}).(int); ok {
		return v
	}
	return -1
}

// tracedBackend times Backend.Submit (normalize, hash, cache lookup,
// enqueue) and the whole Submit→Wait span of each request.
type tracedBackend struct {
	scenario.Backend
	tr *tracer
}

func (b tracedBackend) Submit(ctx context.Context, spec scenario.Spec, pri scenario.Priority) (scenario.Handle, error) {
	if !b.tr.on.Load() {
		return b.Backend.Submit(ctx, spec, pri)
	}
	op := opFrom(ctx)
	start := time.Now()
	h, err := b.Backend.Submit(ctx, spec, pri)
	end := time.Now()
	b.tr.record(op, "backend.submit", "backend.handle", "", start, end)
	if err != nil {
		return h, err
	}
	b.tr.submitted.Store(h.ID(), submitMark{op: op, at: end})
	return tracedHandle{Handle: h, tr: b.tr, op: op, start: start}, nil
}

type tracedHandle struct {
	scenario.Handle
	tr    *tracer
	op    int
	start time.Time
}

func (h tracedHandle) Wait(ctx context.Context) (*scenario.Result, error) {
	res, err := h.Handle.Wait(ctx)
	h.tr.record(h.op, "backend.handle", "client.request", "", h.start, time.Now())
	return res, err
}

// wrapRunner times each job from the worker's side: the queue wait since
// Submit returned, and the run itself, labelled workflow/tier.
func (t *tracer) wrapRunner(next scenario.Runner) scenario.Runner {
	return func(ctx context.Context, spec scenario.Spec) (*scenario.Result, error) {
		if !t.on.Load() {
			return next(ctx, spec)
		}
		entry := time.Now()
		op := -1
		if hash, err := spec.Hash(t.fp); err == nil {
			if v, ok := t.submitted.LoadAndDelete(hash); ok {
				m := v.(submitMark)
				op = m.op
				t.record(op, "queue.wait", "backend.handle", "", m.at, entry)
			}
		}
		res, err := next(ctx, spec)
		attr := spec.Workflow + "/"
		if res != nil {
			attr += res.Tier
		}
		t.record(op, "runner", "backend.handle", attr, entry, time.Now())
		return res, err
	}
}
