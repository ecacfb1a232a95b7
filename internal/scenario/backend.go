package scenario

import (
	"context"

	"repro/internal/obs"
)

// Handle is the waiter-side view of an admitted submission: the HTTP layer
// (and any other front door) holds exactly one interest reference per
// Handle and must Release it. *Job implements Handle; wrappers (timing,
// tracing) may decorate it.
type Handle interface {
	// ID is the spec's content address.
	ID() string
	// Status snapshots the submission.
	Status() JobStatus
	// Wait blocks until a terminal result or ctx expiry. A ctx expiry does
	// NOT release the caller's interest — pair every Handle with Release.
	Wait(ctx context.Context) (*Result, error)
	// Pin keeps the work alive independent of interest references.
	Pin()
	// Release drops the caller's interest reference; the last release of an
	// unpinned, unfinished submission cancels it.
	Release()
}

// ID returns the job's content address (Handle).
func (j *Job) ID() string { return j.Hash }

// Backend is the serving surface the HTTP layer runs over: a *Service via
// AsBackend, or a wrapper around one that decorates its calls.
type Backend interface {
	// Submit admits a spec at a priority class and returns a Handle holding
	// one interest reference. ctx contributes tracing identity only (a
	// request trace rides it into the queue and engine); it does NOT govern
	// the submission's lifecycle — that is what interest references are for.
	// Errors: *BadSpecError, ErrQueueFull, *ShedError, ErrDraining.
	Submit(ctx context.Context, spec Spec, pri Priority) (Handle, error)
	// Lookup resolves a previously issued ID. The returned Handle carries
	// NO interest reference: Status and Wait are safe, Release is not owed.
	Lookup(id string) (Handle, bool)
	// Cancel cancels a queued or running submission by ID.
	Cancel(id string) bool
	// Draining reports whether shutdown has begun.
	Draining() bool
	// Readiness is the /readyz payload.
	Readiness() Readiness
	// Registry backs the Prometheus /metrics endpoint.
	Registry() *obs.Registry
}

// serviceBackend adapts one *Service to the Backend surface.
type serviceBackend struct{ svc *Service }

// AsBackend wraps a single Service as a Backend for the HTTP layer.
func AsBackend(svc *Service) Backend { return serviceBackend{svc: svc} }

func (b serviceBackend) Submit(ctx context.Context, spec Spec, pri Priority) (Handle, error) {
	j, err := b.svc.SubmitCtx(ctx, spec, pri)
	if err != nil {
		return nil, err
	}
	return j, nil
}

func (b serviceBackend) Lookup(id string) (Handle, bool) {
	j, ok := b.svc.Lookup(id)
	if !ok {
		return nil, false
	}
	return j, true
}

func (b serviceBackend) Cancel(id string) bool   { return b.svc.Cancel(id) }
func (b serviceBackend) Draining() bool          { return b.svc.Draining() }
func (b serviceBackend) Readiness() Readiness    { return b.svc.Readiness() }
func (b serviceBackend) Registry() *obs.Registry { return b.svc.Registry() }
