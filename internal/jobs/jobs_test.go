package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func waitCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestSubmitRunWait(t *testing.T) {
	m := New(Config{Workers: 2, QueueDepth: 4})
	defer m.Shutdown(context.Background())
	var gotWorkers int
	h, err := m.Submit("t", func(ctx context.Context, w int) error {
		gotWorkers = w
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
	if s, _ := h.State(); s != StateDone {
		t.Fatalf("state %s, want done", s)
	}
	if gotWorkers != m.Config().EngineWorkersPerJob() {
		t.Fatalf("engine workers %d, want %d", gotWorkers, m.Config().EngineWorkersPerJob())
	}
	if st := m.Stats(); st.Submitted != 1 || st.Completed != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestEngineWorkerBudgetSplit(t *testing.T) {
	cases := []struct {
		cfg  Config
		want int
	}{
		{Config{Workers: 4, EngineWorkers: 8}, 2},
		{Config{Workers: 4, EngineWorkers: 3}, 1}, // floor at 1
		{Config{Workers: 1, EngineWorkers: 16}, 16},
	}
	for _, c := range cases {
		if got := c.cfg.EngineWorkersPerJob(); got != c.want {
			t.Errorf("%+v: per-job share %d, want %d", c.cfg, got, c.want)
		}
	}
}

// gatedJob blocks until released, recording that it started.
type gatedJob struct {
	started chan struct{}
	release chan struct{}
}

func newGatedJob() *gatedJob {
	return &gatedJob{started: make(chan struct{}), release: make(chan struct{})}
}

func (g *gatedJob) run(ctx context.Context, _ int) error {
	close(g.started)
	select {
	case <-g.release:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// TestQueueFullBackpressure pins the admission contract: with one busy
// worker and a depth-2 queue, the fourth submission is rejected
// immediately with ErrQueueFull — never blocked, never buffered.
func TestQueueFullBackpressure(t *testing.T) {
	m := New(Config{Workers: 1, QueueDepth: 2})
	defer m.Shutdown(context.Background())
	g := newGatedJob()
	running, err := m.Submit("running", g.run)
	if err != nil {
		t.Fatal(err)
	}
	<-g.started
	for i := 0; i < 2; i++ {
		if _, err := m.Submit("queued", func(ctx context.Context, _ int) error { return nil }); err != nil {
			t.Fatalf("queued submit %d: %v", i, err)
		}
	}
	if _, err := m.Submit("overflow", func(ctx context.Context, _ int) error { return nil }); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: err = %v, want ErrQueueFull", err)
	}
	if st := m.Stats(); st.Rejected != 1 || st.Queued != 2 {
		t.Fatalf("stats %+v", st)
	}
	close(g.release)
	if err := running.Wait(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
}

func TestCancelQueuedNeverRuns(t *testing.T) {
	m := New(Config{Workers: 1, QueueDepth: 4})
	defer m.Shutdown(context.Background())
	g := newGatedJob()
	if _, err := m.Submit("running", g.run); err != nil {
		t.Fatal(err)
	}
	<-g.started
	var ran atomic.Bool
	h, err := m.Submit("queued", func(ctx context.Context, _ int) error {
		ran.Store(true)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Cancel(h.ID()) {
		t.Fatal("Cancel returned false for a known job")
	}
	if err := h.Wait(waitCtx(t)); !errors.Is(err, context.Canceled) {
		t.Fatalf("wait: %v, want context.Canceled", err)
	}
	if s, _ := h.State(); s != StateCanceled {
		t.Fatalf("state %s, want canceled", s)
	}
	close(g.release)
	// Drain the worker past the cancelled entry; it must skip it.
	h2, err := m.Submit("after", func(ctx context.Context, _ int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := h2.Wait(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
	if ran.Load() {
		t.Fatal("cancelled queued job ran")
	}
}

func TestCancelRunning(t *testing.T) {
	m := New(Config{Workers: 1, QueueDepth: 4})
	defer m.Shutdown(context.Background())
	g := newGatedJob()
	h, err := m.Submit("running", g.run)
	if err != nil {
		t.Fatal(err)
	}
	<-g.started
	h.Cancel()
	if err := h.Wait(waitCtx(t)); !errors.Is(err, context.Canceled) {
		t.Fatalf("wait: %v, want context.Canceled", err)
	}
	if s, _ := h.State(); s != StateCanceled {
		t.Fatalf("state %s, want canceled", s)
	}
}

// TestGracefulShutdown is the drain contract: in-flight jobs complete,
// queued jobs fail with ErrShutdown without ever running, and new
// submissions are rejected.
func TestGracefulShutdown(t *testing.T) {
	m := New(Config{Workers: 2, QueueDepth: 8})
	g1, g2 := newGatedJob(), newGatedJob()
	r1, err := m.Submit("run1", g1.run)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := m.Submit("run2", g2.run)
	if err != nil {
		t.Fatal(err)
	}
	<-g1.started
	<-g2.started
	var ran atomic.Int32
	var queued []*Handle
	for i := 0; i < 4; i++ {
		h, err := m.Submit(fmt.Sprintf("q%d", i), func(ctx context.Context, _ int) error {
			ran.Add(1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, h)
	}

	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- m.Shutdown(context.Background()) }()

	// Queued jobs fail with the clean shutdown error before the
	// in-flight jobs have even finished.
	for i, h := range queued {
		if err := h.Wait(waitCtx(t)); !errors.Is(err, ErrShutdown) {
			t.Fatalf("queued job %d: err %v, want ErrShutdown", i, err)
		}
		if s, _ := h.State(); s != StateFailed {
			t.Fatalf("queued job %d: state %s, want failed", i, s)
		}
	}
	if ran.Load() != 0 {
		t.Fatalf("%d queued jobs ran during shutdown", ran.Load())
	}

	// New submissions are rejected while draining.
	if _, err := m.Submit("late", func(ctx context.Context, _ int) error { return nil }); !errors.Is(err, ErrShutdown) {
		t.Fatalf("late submit: err %v, want ErrShutdown", err)
	}

	// In-flight jobs drain to completion.
	close(g1.release)
	close(g2.release)
	if err := <-shutdownErr; err != nil {
		t.Fatalf("graceful shutdown returned %v", err)
	}
	for i, h := range []*Handle{r1, r2} {
		if s, _ := h.State(); s != StateDone {
			t.Fatalf("in-flight job %d: state %s, want done", i, s)
		}
	}
}

// TestShutdownDeadlineForcesCancel: when the drain context expires,
// running jobs are cancelled through their own contexts and Shutdown
// still waits for them to unwind.
func TestShutdownDeadlineForcesCancel(t *testing.T) {
	m := New(Config{Workers: 1, QueueDepth: 2})
	g := newGatedJob()
	h, err := m.Submit("stuck", g.run)
	if err != nil {
		t.Fatal(err)
	}
	<-g.started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := m.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced shutdown returned %v, want DeadlineExceeded", err)
	}
	if s, _ := h.State(); s != StateCanceled {
		t.Fatalf("stuck job state %s, want canceled", s)
	}
}

func TestPanicIsolation(t *testing.T) {
	m := New(Config{Workers: 1, QueueDepth: 4})
	defer m.Shutdown(context.Background())
	h, err := m.Submit("boom", func(ctx context.Context, _ int) error { panic("boom") })
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(waitCtx(t)); err == nil {
		t.Fatal("panicking job reported success")
	}
	if s, _ := h.State(); s != StateFailed {
		t.Fatalf("state %s, want failed", s)
	}
	// The worker survived; the next job runs.
	h2, err := m.Submit("after", func(ctx context.Context, _ int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := h2.Wait(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentSubmitWaitCancel hammers the manager from many
// goroutines — the race detector's food (the CI race job covers this
// package).
func TestConcurrentSubmitWaitCancel(t *testing.T) {
	m := New(Config{Workers: 4, QueueDepth: 256, EngineWorkers: 4})
	defer m.Shutdown(context.Background())
	var wg sync.WaitGroup
	var completed atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				h, err := m.Submit("w", func(ctx context.Context, _ int) error { return nil })
				if errors.Is(err, ErrQueueFull) {
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				if g%2 == 0 {
					h.Cancel() // may race completion; both outcomes fine
				}
				h.Wait(waitCtx(t))
				completed.Add(1)
			}
		}(g)
	}
	wg.Wait()
	if completed.Load() == 0 {
		t.Fatal("no jobs completed")
	}
	if _, ok := m.Get("nope"); ok {
		t.Fatal("unknown id resolved")
	}
}

// TestReserveThrough pins the replay id guard: after ReserveThrough(n)
// no fresh Submit assigns an id at or below jn, and lower reservations
// never move the counter backwards.
func TestReserveThrough(t *testing.T) {
	m := New(Config{Workers: 1, QueueDepth: 4})
	defer m.Shutdown(context.Background())
	m.ReserveThrough(41)
	h, err := m.Submit("a", func(ctx context.Context, _ int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if h.ID() != "j42" {
		t.Fatalf("id after ReserveThrough(41) = %s, want j42", h.ID())
	}
	m.ReserveThrough(3)
	h2, err := m.Submit("b", func(ctx context.Context, _ int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if h2.ID() != "j43" {
		t.Fatalf("id after lower reservation = %s, want j43", h2.ID())
	}
}

// TestRegisterFailed pins the replay-overflow terminal record: the
// handle is immediately terminal with the given cause, queryable by
// id, occupies no queue slot, reserves its id, and keeps the
// Submitted == Completed drain invariant.
func TestRegisterFailed(t *testing.T) {
	m := New(Config{Workers: 1, QueueDepth: 1})
	cause := errors.New("replay: queue full")
	h, err := m.RegisterFailed("j9", "lost", cause)
	if err != nil {
		t.Fatal(err)
	}
	if s, herr := h.State(); s != StateFailed || !errors.Is(herr, cause) {
		t.Fatalf("state %s err %v, want failed with the cause", s, herr)
	}
	select {
	case <-h.Done():
	default:
		t.Fatal("Done channel not closed for a pre-failed handle")
	}
	if err := h.Wait(waitCtx(t)); !errors.Is(err, cause) {
		t.Fatalf("Wait = %v, want the cause", err)
	}
	if got, ok := m.Get("j9"); !ok || got != h {
		t.Fatal("registered handle not queryable by id")
	}
	if _, err := m.RegisterFailed("j9", "dup", cause); err == nil {
		t.Fatal("duplicate id accepted")
	}
	h2, err := m.Submit("next", func(ctx context.Context, _ int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if h2.ID() != "j10" {
		t.Fatalf("fresh id %s did not clear the registered id, want j10", h2.ID())
	}
	if err := m.Shutdown(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Submitted != st.Completed {
		t.Fatalf("Submitted %d != Completed %d after drain", st.Submitted, st.Completed)
	}
}

// TestRetentionPrunesOldest pins the one retention bound: past
// MaxRetained finished jobs, admission drops the oldest — handle and
// payload together — and Jobs lists exactly the newest MaxRetained in
// submission order.
func TestRetentionPrunesOldest(t *testing.T) {
	const extra = 5
	m := New(Config{Workers: 1, QueueDepth: 4})
	defer m.Shutdown(context.Background())
	ctx := waitCtx(t)
	var ids []string
	for i := 0; i < MaxRetained+extra; i++ {
		h, err := m.Submit("noop", func(ctx context.Context, _ int) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		h.SetPayload(i)
		if err := h.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, h.ID())
	}
	for _, id := range ids[:extra] {
		if _, ok := m.Get(id); ok {
			t.Fatalf("job %s past the retention bound still retained", id)
		}
	}
	listed := m.Jobs()
	if len(listed) != MaxRetained {
		t.Fatalf("Jobs lists %d, want %d", len(listed), MaxRetained)
	}
	for i, h := range listed {
		want := ids[extra+i]
		if h.ID() != want || h.Payload() != extra+i {
			t.Fatalf("Jobs[%d] = %s payload %v, want %s payload %d", i, h.ID(), h.Payload(), want, extra+i)
		}
		if got, ok := m.Get(want); !ok || got != h {
			t.Fatalf("retained job %s not queryable", want)
		}
	}
}
