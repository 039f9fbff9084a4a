package main

import (
	"time"

	"sinrcast/internal/sim"
	"sinrcast/internal/sinr"
)

// resolveTimer accumulates the time and traffic of every round a
// protocol run resolves through it. It is single-goroutine state: one
// timer wraps one engine for one replayed job.
type resolveTimer struct {
	inner sim.Resolver
	dur   time.Duration
	calls int64 // resolved rounds (Resolve and ResolveFor calls)
	tx    int64 // transmitters summed over rounds
	rx    int64 // receptions summed over rounds
}

// timeResolver wraps r so its rounds are timed. The wrapper forwards
// every optional capability sim and baseline type-assert on a
// resolver — today only sim.SubsetResolver — so a replay through it
// takes the same code path as an unwrapped run.
func timeResolver(r sim.Resolver) (sim.Resolver, *resolveTimer) {
	t := &resolveTimer{inner: r}
	if sub, ok := r.(sim.SubsetResolver); ok {
		return &subsetTimer{t, sub}, t
	}
	return t, t
}

func (t *resolveTimer) note(start time.Time, tx []int, rec []sinr.Reception) {
	t.dur += time.Since(start)
	t.calls++
	t.tx += int64(len(tx))
	t.rx += int64(len(rec))
}

func (t *resolveTimer) Resolve(tx []int) []sinr.Reception {
	start := time.Now()
	rec := t.inner.Resolve(tx)
	t.note(start, tx, rec)
	return rec
}

func (t *resolveTimer) N() int { return t.inner.N() }

type subsetTimer struct {
	*resolveTimer
	sub sim.SubsetResolver
}

func (s *subsetTimer) ResolveFor(tx []int, receivers []int) []sinr.Reception {
	start := time.Now()
	rec := s.sub.ResolveFor(tx, receivers)
	s.note(start, tx, rec)
	return rec
}
