package serve

import (
	"sync"
	"time"
)

// breaker is the daemon's per-key circuit breaker: a negative-result
// cache over compute outcomes. A query whose compute keeps failing or
// timing out — a poison query: parameters that blow the budget every
// time, an input tickling an engine bug — would otherwise re-burn a
// full compute (and its admission tokens) on every retry, because
// errors are deliberately never persisted in the store. After
// breakerThreshold consecutive failures the key's circuit opens for
// breakerTTL: requests for it are refused immediately with 503 +
// Retry-After and the last failure's reason, costing nothing. When the
// TTL expires the circuit half-opens — exactly one request is let
// through as the probe; its success resets the key, one more failure
// re-opens the circuit for a fresh TTL.
//
// Client disconnects never count as failures: a gone client says
// nothing about the query.
type breaker struct {
	now func() time.Time

	mu      sync.Mutex
	entries map[string]*breakerEntry
	// tripped counts circuits opened; refused counts requests turned
	// away by an open circuit (for /metrics).
	tripped int64
	refused int64
}

type breakerEntry struct {
	fails   int
	until   time.Time // open until; zero = closed (counting)
	lastErr string
}

// breakerThreshold consecutive failures of one key open its circuit
// for breakerTTL.
const (
	breakerThreshold = 3
	breakerTTL       = 30 * time.Second
)

func newBreaker() *breaker {
	return &breaker{now: time.Now, entries: map[string]*breakerEntry{}}
}

// check reports whether sha's circuit is open right now; when open,
// remaining is the time until the next half-open probe and lastErr
// the failure being cached. An expired circuit half-opens here: this
// caller proceeds as the probe, concurrent callers still see it open
// until the probe resolves.
func (b *breaker) check(sha string) (open bool, remaining time.Duration, lastErr string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.entries[sha]
	if !ok || e.until.IsZero() {
		return false, 0, ""
	}
	if rem := e.until.Sub(b.now()); rem > 0 {
		b.refused++
		return true, rem, e.lastErr
	}
	// Half-open: this request probes; one more failure re-opens.
	e.until = time.Time{}
	e.fails = breakerThreshold - 1
	return false, 0, ""
}

// failure records one compute failure for sha, opening the circuit at
// the threshold.
func (b *breaker) failure(sha string, errMsg string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.entries[sha]
	if !ok {
		b.pruneLocked()
		e = &breakerEntry{}
		b.entries[sha] = e
	}
	e.fails++
	e.lastErr = errMsg
	if e.fails >= breakerThreshold && e.until.IsZero() {
		e.until = b.now().Add(breakerTTL)
		b.tripped++
	}
}

// success clears sha's record entirely.
func (b *breaker) success(sha string) {
	b.mu.Lock()
	delete(b.entries, sha)
	b.mu.Unlock()
}

// pruneLocked drops expired open circuits and stale counting entries
// once the map is large, bounding memory under a churn of distinct
// failing keys.
func (b *breaker) pruneLocked() {
	if len(b.entries) < 1024 {
		return
	}
	now := b.now()
	for sha, e := range b.entries {
		if !e.until.IsZero() && now.After(e.until.Add(breakerTTL)) {
			delete(b.entries, sha)
		}
	}
}

// snapshot returns (open circuits, tripped, refused) for /metrics.
func (b *breaker) snapshot() (open int, tripped, refused int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	for _, e := range b.entries {
		if !e.until.IsZero() && e.until.After(now) {
			open++
		}
	}
	return open, b.tripped, b.refused
}
