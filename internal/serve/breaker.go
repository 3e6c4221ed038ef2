package serve

import (
	"context"
	"errors"
	"sync"
	"time"

	"anoncover/internal/dist"
)

// breaker is the per-fleet circuit breaker guarding the distributed
// path.  Consecutive fleet failures open it, quarantining the dist
// path so requests run on their entries' local halves without paying
// a doomed fleet attempt first.  After a cooldown, one trial
// request probes the fleet half-open: success re-closes the breaker,
// failure re-opens it for another cooldown.
//
// Every allow() that admits a request is followed by exactly one fleet
// call (a fleet-backed session's compile, weight install and run) and
// settled by that call's verdict.  The failures it counts are
// dist.Transient faults — transport and worker faults — never the
// client's own cancellation or semantic run errors, which say nothing
// about fleet health.
type breaker struct {
	threshold int
	cooldown  time.Duration

	mu       sync.Mutex
	state    int // brkClosed, brkOpen, brkHalfOpen
	failures int // consecutive failures while closed
	openedAt time.Time
	trial    bool // the half-open probe slot is taken
}

const (
	brkClosed = iota
	brkOpen
	brkHalfOpen
)

const (
	defaultBreakerThreshold = 3
	defaultBreakerCooldown  = 2 * time.Second
)

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	if threshold <= 0 {
		threshold = defaultBreakerThreshold
	}
	if cooldown <= 0 {
		cooldown = defaultBreakerCooldown
	}
	return &breaker{threshold: threshold, cooldown: cooldown}
}

// allow reports whether a request may attempt the distributed path.
// In the open state it flips to half-open once the cooldown has
// passed, admitting exactly one trial request; everyone else stays
// local until that trial's verdict arrives.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case brkClosed:
		return true
	case brkOpen:
		if time.Since(b.openedAt) < b.cooldown {
			return false
		}
		b.state = brkHalfOpen
		b.trial = true
		return true
	default: // half-open
		if b.trial {
			return false
		}
		b.trial = true
		return true
	}
}

// success records a fleet request that completed: the fleet is
// healthy, so any state collapses back to closed.
func (b *breaker) success() {
	b.mu.Lock()
	b.state = brkClosed
	b.failures = 0
	b.trial = false
	b.mu.Unlock()
}

// failure records a transient fleet fault.  A half-open trial failing
// re-opens immediately; in the closed state the consecutive-failure
// count must reach the threshold first.
func (b *breaker) failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == brkHalfOpen {
		b.state = brkOpen
		b.openedAt = time.Now()
		b.trial = false
		return
	}
	b.failures++
	if b.state == brkClosed && b.failures >= b.threshold {
		b.state = brkOpen
		b.openedAt = time.Now()
	}
}

// settle records the verdict of the fleet call an allow() admitted.
// A fleet fault is a failure; a fleet answer — a cover, or the round
// budget or wire verdict the algorithm reached — is a success.  A call
// cut short by the caller's own context says nothing about the fleet:
// it only hands the half-open trial slot back.
func (b *breaker) settle(err error) {
	switch {
	case dist.Transient(err):
		b.failure()
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		b.mu.Lock()
		b.trial = false
		b.mu.Unlock()
	default:
		b.success()
	}
}

func (b *breaker) stateName() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case brkOpen:
		return "open"
	case brkHalfOpen:
		return "half_open"
	}
	return "closed"
}

// stateVal is the gauge encoding: 0 closed, 1 open, 2 half-open.
func (b *breaker) stateVal() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return float64(b.state)
}
