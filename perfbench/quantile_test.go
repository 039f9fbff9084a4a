package main

import (
	"testing"
	"time"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(n - i) // descending: percentile must sort
	}
	return out
}

func TestPercentileNoSamples(t *testing.T) {
	if v, ok := percentile(nil, 0.5); ok {
		t.Fatalf("percentile(nil) = %v, want withheld", v)
	}
}

func TestPercentileTinyInputsWithheld(t *testing.T) {
	for n := 1; n < 20; n++ {
		if v, ok := percentile(seq(n), 0.5); ok {
			t.Errorf("p50 of %d samples = %v, want withheld (fewer than %d beyond)", n, v, minBeyond)
		}
	}
}

func TestPercentileTenBeyondBoundary(t *testing.T) {
	// p90 of 100 samples is rank 90 with exactly 10 above it.
	v, ok := percentile(seq(100), 0.9)
	if !ok || v != 90 {
		t.Fatalf("p90 of 1..100 = %v,%v, want 90,true", v, ok)
	}
	if v, ok := percentile(seq(99), 0.9); ok {
		t.Fatalf("p90 of 99 samples = %v, want withheld (9 beyond)", v)
	}
	v, ok = percentile(seq(20), 0.5)
	if !ok || v != 10 {
		t.Fatalf("p50 of 1..20 = %v,%v, want 10,true", v, ok)
	}
}

func TestPercentileTies(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 7
	}
	if v, ok := percentile(xs, 0.9); !ok || v != 7 {
		t.Fatalf("p90 of 100 ties = %v,%v, want 7,true (ties count by rank)", v, ok)
	}
	// A tie straddling the rank returns the tied value, not an
	// interpolation.
	xs = append(make([]float64, 0, 40), seq(20)...)
	for i := 0; i < 20; i++ {
		xs = append(xs, 10)
	}
	if v, ok := percentile(xs, 0.5); !ok || v != 10 {
		t.Fatalf("p50 with a tie at the rank = %v,%v, want 10,true", v, ok)
	}
}

func TestPercentileLeavesInputAlone(t *testing.T) {
	xs := seq(30)
	percentile(xs, 0.5)
	if xs[0] != 30 {
		t.Fatal("percentile sorted its input in place")
	}
}

func msDurs(v ...int) []time.Duration {
	out := make([]time.Duration, len(v))
	for i, x := range v {
		out[i] = time.Duration(x) * time.Millisecond
	}
	return out
}

func TestSetupMedianNoSamples(t *testing.T) {
	if _, err := setupMedian(nil, setupBatches); err == nil {
		t.Fatal("setupMedian(nil) succeeded")
	}
	if _, err := setupMedian(msDurs(5, 6, 7), 5); err == nil {
		t.Fatal("setupMedian with fewer set-ups than batches succeeded")
	}
	if _, err := setupMedian(msDurs(5), 0); err == nil {
		t.Fatal("setupMedian with no batches succeeded")
	}
}

func TestSetupMedianTiny(t *testing.T) {
	got, err := setupMedian(msDurs(3), 1)
	if err != nil || got != 3*time.Millisecond {
		t.Fatalf("setupMedian of one set-up = %v,%v, want 3ms", got, err)
	}
	// One set-up per batch: the plain median.
	got, err = setupMedian(msDurs(40, 10, 30, 20, 900), 5)
	if err != nil || got != 30*time.Millisecond {
		t.Fatalf("setupMedian one per batch = %v,%v, want 30ms", got, err)
	}
}

func TestSetupMedianEvenAndTies(t *testing.T) {
	got, err := setupMedian(msDurs(40, 10, 30, 20), 4)
	if err != nil || got != 25*time.Millisecond {
		t.Fatalf("setupMedian even = %v,%v, want 25ms", got, err)
	}
	got, err = setupMedian(msDurs(7, 7, 7, 7, 7, 7), 3)
	if err != nil || got != 7*time.Millisecond {
		t.Fatalf("setupMedian ties = %v,%v, want 7ms", got, err)
	}
}

func TestSetupMedianBatchesAcrossTheRun(t *testing.T) {
	// The first half of the run is slow (30ms), the second fast (10ms).
	// Round-robin batches each hold one sample of either half, so every
	// batch mean, and the median, is 20ms; contiguous batches would
	// report the slow or the fast half.
	durs := msDurs(30, 30, 30, 30, 30, 10, 10, 10, 10, 10)
	got, err := setupMedian(durs, 5)
	if err != nil || got != 20*time.Millisecond {
		t.Fatalf("setupMedian = %v,%v, want 20ms", got, err)
	}
	// An outlier moves one batch mean, not the median.
	durs[2] = 3000 * time.Millisecond
	got, err = setupMedian(durs, 5)
	if err != nil || got != 20*time.Millisecond {
		t.Fatalf("setupMedian with an outlier = %v,%v, want 20ms", got, err)
	}
}
