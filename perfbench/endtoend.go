package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"
)

// endToEnd is the untraced run: set-up, the timed closed loop, and the
// cross-check of every result against the library, with repeated
// set-ups interleaved into the untimed parts.
func endToEnd(o options, stdout io.Writer) (*result, error) {
	// The run's first set-up is discarded: it pays one-off costs (page
	// faults, lazily built tables) that later ones do not. Its server
	// serves the timed jobs.
	in, _, err := setUp(o.w, o.workdir)
	if err != nil {
		return nil, err
	}
	// The set-up samples are spread over the run's untimed work: the
	// warm-up where the workload has one, else the cross-check replay.
	var setups []time.Duration
	if o.w.warmupCycles > 0 {
		setups, err = sampleSetups(o.w, o.workdir, o.w.setupSamples, in.warmUpSteps(o.w, o.seed))
		if err != nil {
			in.stop()
			return nil, err
		}
	}
	reqs := o.w.jobs(o.seed, o.seconds)
	outs, wall := in.drive(reqs, o.w.clients, false)
	rss, rssErr := peakRSSMiB()
	if err := in.stop(); err != nil {
		return nil, fmt.Errorf("stopping server: %w", err)
	}

	cases, byKey := collectCases(reqs, outs)
	if setups == nil {
		setups, err = sampleSetups(o.w, o.workdir, o.w.setupSamples, replaySteps(cases, o.w.setupSamples))
		if err != nil {
			return nil, err
		}
	} else {
		replayAll(cases, false)
	}
	setup, err := setupMedian(setups, setupBatches)
	if err != nil {
		return nil, err
	}
	failed, passed := tally(reqs, outs, byKey, o.stderr)
	lat := make([]float64, len(passed))
	for k, i := range passed {
		lat[k] = ms(outs[i].latency)
	}

	metrics := []metric{
		{name: "jobs_per_s", unit: "1/s", value: float64(len(passed)) / wall.Seconds(),
			note: fmt.Sprintf("(%d verified jobs in %.3f s)", len(passed), wall.Seconds())},
		percentileMetric("job_latency_p50_ms", lat, 0.5),
		percentileMetric("job_latency_p90_ms", lat, 0.9),
		{name: "job_fail_ratio", unit: "ratio", value: float64(failed) / float64(len(reqs)),
			note: fmt.Sprintf("(%d of %d attempted; carried by the result line's failed/attempted)", failed, len(reqs))},
		{name: "setup_s", unit: "s", value: setup.Seconds(),
			note: fmt.Sprintf("(median of %d batch means over %d set-ups; the first set-up discarded)", setupBatches, len(setups))},
		{name: "rss_peak_mb", unit: "MiB", value: rss},
	}
	if rssErr != nil {
		metrics[5].missing = rssErr.Error()
	}
	printReport(stdout, header(o, "end-to-end", len(reqs)), metrics)
	// job_fail_ratio is 0 whenever the benchmark is healthy, so it is
	// reported through failed/attempted rather than as a timed metric.
	res := &result{correct: failed == 0, attempted: len(reqs), failed: failed, withhold: true}
	for _, m := range metrics {
		if m.name != "job_fail_ratio" {
			res.metrics = append(res.metrics, m)
		}
	}
	return res, nil
}

// replaySteps splits the untimed cross-check replay of cases into n
// steps.
func replaySteps(cases []*jobCase, n int) []func() error {
	steps := make([]func() error, n)
	for k := range steps {
		part := cases[k*len(cases)/n : (k+1)*len(cases)/n]
		steps[k] = func() error {
			replayAll(part, false)
			return nil
		}
	}
	return steps
}

// percentileMetric reports the p-quantile of samples (ms), or says why
// it is withheld.
func percentileMetric(name string, samples []float64, p float64) metric {
	m := metric{name: name, unit: "ms"}
	v, ok := percentile(samples, p)
	if !ok {
		m.missing = fmt.Sprintf("withheld: %d samples leave fewer than %d beyond p%.0f", len(samples), minBeyond, p*100)
		return m
	}
	m.value = v
	m.note = fmt.Sprintf("(n=%d)", len(samples))
	return m
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("no /proc/self/status: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM %q: %v", rest, err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
