package server

import (
	"sync"
	"time"

	"hybridstore/internal/obs"
)

// Admission tunes per-tenant load shedding. The server never queues
// work it cannot afford: requests beyond the token rate bounce with 429
// (retryable throttle), requests beyond the in-flight ceiling bounce
// with 503 (overload) — the warp-style load harness counts both
// separately from hard errors.
type Admission struct {
	// Rate is the sustained request rate per tenant, in requests per
	// second. 0 disables rate limiting.
	Rate float64
	// Burst is the token-bucket depth: how many requests above the
	// sustained rate a tenant may fire back to back. Defaults to max(1,
	// Rate/10) when Rate is set.
	Burst float64
	// MaxInFlight caps a tenant's concurrently executing requests. 0
	// disables the ceiling.
	MaxInFlight int
}

// Rejection counters, plus the live in-flight gauge: every
// admitted request raises it and its release lowers it, across all
// tenants and regardless of policy — a gauge stuck above zero on an
// idle server means a leaked admission token.
var (
	mThrottled = obs.NewCounter("server.admission.throttled")
	mOverload  = obs.NewCounter("server.admission.overload")
	gInFlight  = obs.NewGauge("server.admission.inflight")
)

// tenantState is one tenant's token bucket plus in-flight count. Both
// live under one small mutex: admission is a few dozen nanoseconds of
// arithmetic, never a blocking wait.
type tenantState struct {
	mu       sync.Mutex
	tokens   float64
	last     time.Time
	inflight int
}

// admitter applies one Admission policy across all tenants.
type admitter struct {
	cfg     Admission
	mu      sync.Mutex
	tenants map[string]*tenantState
}

func newAdmitter(cfg Admission) *admitter {
	if cfg.Rate > 0 && cfg.Burst <= 0 {
		cfg.Burst = cfg.Rate / 10
		if cfg.Burst < 1 {
			cfg.Burst = 1
		}
	}
	return &admitter{cfg: cfg, tenants: make(map[string]*tenantState)}
}

func (a *admitter) tenant(name string) *tenantState {
	a.mu.Lock()
	defer a.mu.Unlock()
	ts := a.tenants[name]
	if ts == nil {
		ts = &tenantState{tokens: a.cfg.Burst, last: time.Now()}
		a.tenants[name] = ts
	}
	return ts
}

// admit decides the request's fate now — it never blocks. On success
// the returned release func must be called when the request finishes;
// on rejection release is nil and code is the HTTP status to surface
// (429 throttled, 503 overloaded). Release is idempotent: a path that
// calls it twice (an error return racing a deferred cleanup) gives
// back exactly one token, so the ceiling can never be over-admitted.
func (a *admitter) admit(tenant string) (release func(), code int) {
	if a.cfg.Rate <= 0 && a.cfg.MaxInFlight <= 0 {
		gInFlight.Add(1)
		var once sync.Once
		return func() { once.Do(func() { gInFlight.Add(-1) }) }, 0
	}
	ts := a.tenant(tenant)
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if a.cfg.Rate > 0 {
		now := time.Now()
		ts.tokens += now.Sub(ts.last).Seconds() * a.cfg.Rate
		if ts.tokens > a.cfg.Burst {
			ts.tokens = a.cfg.Burst
		}
		ts.last = now
		if ts.tokens < 1 {
			mThrottled.Inc()
			return nil, 429
		}
		ts.tokens--
	}
	if a.cfg.MaxInFlight > 0 {
		if ts.inflight >= a.cfg.MaxInFlight {
			if a.cfg.Rate > 0 {
				ts.tokens++ // the rejected request spent no capacity
			}
			mOverload.Inc()
			return nil, 503
		}
		ts.inflight++
	}
	gInFlight.Add(1)
	var once sync.Once
	return func() {
		once.Do(func() {
			ts.mu.Lock()
			if a.cfg.MaxInFlight > 0 {
				ts.inflight--
			}
			ts.mu.Unlock()
			gInFlight.Add(-1)
		})
	}, 0
}
