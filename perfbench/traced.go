package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"sinrcast/internal/serve"
	"sinrcast/internal/sinr"
	"sinrcast/internal/stats"
)

// coverageFloor is the trace coverage below which the report flags the
// run-job workloads: more than a tenth of the served job time is
// unaccounted for by the layers the replay times.
const coverageFloor = 0.9

// snapshot is the server- and runtime-side state the traced run diffs
// across the timed section.
type snapshot struct {
	cache        serve.CacheStats
	syncs        int64
	journalBytes int64
	mem          runtime.MemStats
}

func takeSnapshot(in *instance) snapshot {
	s := snapshot{cache: in.srv.Cache().Stats(), syncs: in.srv.Journal().Syncs()}
	if fi, err := os.Stat(filepath.Join(in.dir, "journal.ndjson")); err == nil {
		s.journalBytes = fi.Size()
	}
	runtime.ReadMemStats(&s.mem)
	return s
}

// traced is the per-layer run: one set-up, the same timed jobs served
// with each job's status timestamps fetched, then every distinct job
// replayed through the library with timers around the public calls.
// The replay doubles as the cross-check.
func traced(o options, stdout io.Writer) (*result, error) {
	in, _, err := setUp(o.w, o.workdir)
	if err != nil {
		return nil, err
	}
	if err := in.warmUp(o.w, o.seed); err != nil {
		in.stop()
		return nil, err
	}
	reqs := o.w.jobs(o.seed, o.seconds)
	before := takeSnapshot(in)
	outs, _ := in.drive(reqs, o.w.clients, true)
	after := takeSnapshot(in)
	journaled := in.srv.Journal() != nil
	if err := in.stop(); err != nil {
		return nil, fmt.Errorf("stopping server: %w", err)
	}

	cases, byKey := collectCases(reqs, outs)
	replayAll(cases, true)
	timeRendering(byKey, reqs, outs)
	failed, passed := tally(reqs, outs, byKey, o.stderr)

	l := layerReport{o: o, reqs: reqs, outs: outs, passed: passed, cases: cases,
		before: before, after: after, journaled: journaled}
	metrics := l.metrics()
	printReport(stdout, header(o, "traced", len(reqs)), metrics)
	for _, f := range l.flags {
		fmt.Fprintln(stdout, "  FLAG:", f)
	}
	fmt.Fprintf(stdout, "  job_fail_ratio %.6g ratio (%d of %d attempted)\n",
		float64(failed)/float64(len(reqs)), failed, len(reqs))
	return &result{correct: failed == 0, attempted: len(reqs), failed: failed, metrics: metrics}, nil
}

// timeRendering times stats.NewSink("csv").Emit on each case's served
// table, decoded from its first successful result — the rendering the
// result endpoint performed.
func timeRendering(byKey map[string]*jobCase, reqs []serve.JobRequest, outs []outcome) {
	seen := map[*jobCase]bool{}
	for i, req := range reqs {
		c := byKey[caseKey(req)]
		if seen[c] || outs[i].err != nil {
			continue
		}
		tb, err := stats.ReadCSV(bytes.NewReader(outs[i].body))
		if err != nil {
			continue
		}
		seen[c] = true
		var buf bytes.Buffer
		start := time.Now()
		if renderCSV(&buf, tb) == nil {
			c.times.render = time.Since(start)
		}
	}
}

// layerReport derives the per-layer metrics of one traced run.
type layerReport struct {
	o         options
	reqs      []serve.JobRequest
	outs      []outcome
	passed    []int
	cases     []*jobCase
	before    snapshot
	after     snapshot
	journaled bool
	flags     []string
}

// isRun reports whether c is a run job rather than an experiment job.
func isRun(c *jobCase) bool { return c.req.Experiment == 0 }

// experimentsOnly reports whether every served job was an experiment
// job (paper-suite), so the run-job layers have nothing to measure.
func (l *layerReport) experimentsOnly() bool {
	for _, c := range l.cases {
		if isRun(c) {
			return false
		}
	}
	return true
}

// weighted returns the served-job-weighted mean of f over the cases
// that f applies to (ok), and the total weight.
func (l *layerReport) weighted(f func(c *jobCase) (float64, bool)) (float64, int) {
	sum, n := 0.0, 0
	for _, c := range l.cases {
		if c.err != nil {
			continue
		}
		if v, ok := f(c); ok {
			sum += v * float64(c.count)
			n += c.count
		}
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}

func (l *layerReport) metrics() []metric {
	var out []*metric
	add := func(name, unit string, v float64) *metric {
		out = append(out, &metric{name: name, unit: unit, value: v})
		return out[len(out)-1]
	}
	expOnly := "this workload serves no experiment jobs"
	runOnly := "experiment runners call this layer internally; splitting it out needs tracing inside the program"

	// serve: HTTP and admission, from the client's clock and the job
	// status timestamps.
	var submit, deliver, bytesOut, wait, runMs []float64
	for _, i := range l.passed {
		o := l.outs[i]
		submit = append(submit, ms(o.submit))
		bytesOut = append(bytesOut, float64(len(o.body)))
		if st := o.status; st != nil && !st.Started.IsZero() && !st.Finished.IsZero() {
			deliver = append(deliver, ms(o.latency)-ms(st.Finished.Sub(st.Created)))
			wait = append(wait, ms(st.Started.Sub(st.Created)))
			runMs = append(runMs, ms(st.Finished.Sub(st.Started)))
		}
	}
	jobs := float64(len(l.reqs))
	add("serve.submit_ms", "ms", mean(submit))
	add("serve.deliver_ms", "ms", mean(deliver))
	add("serve.result_bytes", "bytes", mean(bytesOut))
	for _, q := range []struct {
		name string
		p    float64
	}{{"jobs.queue_wait_ms.p50", 0.5}, {"jobs.queue_wait_ms.p90", 0.9}} {
		m := percentileMetric(q.name, wait, q.p)
		out = append(out, &m)
	}
	servedRun := mean(runMs)
	add("jobs.run_ms", "ms", servedRun)

	// serve cache.
	dc := l.after.cache
	hits, misses := dc.Hits-l.before.cache.Hits, dc.Misses-l.before.cache.Misses
	add("serve.cache.hits", "count", float64(hits))
	add("serve.cache.misses", "count", float64(misses))
	add("serve.cache.evictions", "count", float64(dc.Evictions-l.before.cache.Evictions))
	m := add("serve.cache.hit_ratio", "ratio", 0)
	if hits+misses > 0 {
		m.value = float64(hits) / float64(hits+misses)
	} else {
		m.missing = "no cache lookups: experiment jobs bypass the serve cache"
	}
	add("serve.cache.bytes", "bytes", float64(dc.Bytes))

	// serve journal.
	m = add("serve.journal.syncs_per_job", "count", float64(l.after.syncs-l.before.syncs)/jobs)
	m2 := add("serve.journal.bytes_per_job", "bytes", float64(l.after.journalBytes-l.before.journalBytes)/jobs)
	if !l.journaled {
		m.missing, m2.missing = "the journal is off on this workload", "the journal is off on this workload"
	}

	// Library layers, from the timed replay.
	runMetric := func(name, unit string, f func(c *jobCase) float64) *metric {
		v, n := l.weighted(func(c *jobCase) (float64, bool) { return f(c), isRun(c) })
		m := add(name, unit, v)
		if n == 0 {
			m.missing = runOnly
		}
		return m
	}
	runMetric("scenario.generate_ms", "ms", func(c *jobCase) float64 { return ms(c.times.generate) })
	m = add("scenario.generate_count", "count", float64(misses))
	m.note = "(deployments generated in the timed section: one per cache miss)"
	if l.experimentsOnly() {
		m.missing = runOnly
	}
	genBuild, _ := l.weighted(func(c *jobCase) (float64, bool) {
		return ms(c.times.generate + c.times.build), isRun(c)
	})
	runMetric("sinr.build_ms", "ms", func(c *jobCase) float64 { return ms(c.times.build) })
	runMetric("sinr.clone_us", "us", func(c *jobCase) float64 { return float64(c.times.clone) / float64(time.Microsecond) })
	runMetric("sinr.resolve_ms", "ms", func(c *jobCase) float64 { return ms(c.times.resolve) })
	var resolve time.Duration
	var rounds, tx, rx int64
	kinds := map[sinr.EngineKind]int{}
	for _, c := range l.cases {
		if c.err != nil || !isRun(c) {
			continue
		}
		w := int64(c.count)
		resolve += time.Duration(w) * c.times.resolve
		rounds += w * c.times.rounds
		tx += w * c.times.tx
		rx += w * c.times.rx
		kinds[c.times.kind] += c.count
	}
	ratio := func(name, unit string, num, den float64) {
		m := add(name, unit, 0)
		if den > 0 {
			m.value = num / den
		} else if l.experimentsOnly() {
			m.missing = runOnly
		} else {
			m.missing = "no rounds were resolved"
		}
	}
	ratio("sinr.resolve_us_per_round", "us", float64(resolve)/float64(time.Microsecond), float64(rounds))
	runMetric("sinr.rounds_per_job", "count", func(c *jobCase) float64 { return float64(c.times.rounds) })
	ratio("sinr.tx_per_round", "count", float64(tx), float64(rounds))
	ratio("sinr.rx_per_tx", "ratio", float64(rx), float64(tx))
	for _, k := range []sinr.EngineKind{sinr.KindExact, sinr.KindGrid, sinr.KindHier} {
		m := add("sinr.jobs_"+string(k), "count", float64(kinds[k]))
		if l.experimentsOnly() {
			m.missing = runOnly
		}
	}

	// protocol self time and the traced total per served job.
	self := runMetric("protocol.self_ms", "ms", func(c *jobCase) float64 { return ms(c.times.run - c.times.resolve) })
	cloneRun, _ := l.weighted(func(c *jobCase) (float64, bool) { return ms(c.times.clone + c.times.run), isRun(c) })
	expRun, expJobs := l.weighted(func(c *jobCase) (float64, bool) { return ms(c.times.run), !isRun(c) })
	// The traced time of a served job: the experiment runner, or clone
	// and RunOn plus generation and engine construction charged per
	// observed cache miss, since a served run job pays those only on a
	// miss.
	tracedMs := expRun
	if !l.experimentsOnly() {
		tracedMs = cloneRun + genBuild*float64(misses)/jobs
	}
	m = add("protocol.self_share", "ratio", 0)
	if self.missing != "" || tracedMs == 0 {
		m.missing = runOnly
	} else {
		m.value = self.value / tracedMs
	}

	// exp.
	for _, e := range []int{1, 2, 6, 11} {
		v, n := l.weighted(func(c *jobCase) (float64, bool) { return ms(c.times.run), c.req.Experiment == e })
		m := add(fmt.Sprintf("exp.run_ms.E%d", e), "ms", v)
		if n == 0 {
			m.missing = expOnly
		}
	}
	m = add("exp.serve_overhead_ms", "ms", 0)
	if expJobs == 0 {
		m.missing = expOnly
	} else {
		m.value = servedRun - expRun
	}

	// stats.
	render, _ := l.weighted(func(c *jobCase) (float64, bool) { return ms(c.times.render), c.times.render > 0 })
	add("stats.render_ms", "ms", render)

	// Go runtime over the timed section.
	b, a := &l.before.mem, &l.after.mem
	add("go.alloc_mb_per_job", "MiB", float64(a.TotalAlloc-b.TotalAlloc)/(1<<20)/jobs)
	add("go.gc_cycles_per_job", "count", float64(a.NumGC-b.NumGC)/jobs)
	add("go.gc_pause_ms", "ms", float64(a.PauseTotalNs-b.PauseTotalNs)/1e6).note = "(total over the timed section)"

	// trace: checks on the trace itself.
	m = add("trace.coverage", "ratio", 0)
	if servedRun > 0 {
		m.value = tracedMs / servedRun
		m.note = fmt.Sprintf("(%.4g of %.4g ms per served job accounted for)", tracedMs, servedRun)
		if m.value < coverageFloor && !l.experimentsOnly() {
			l.flags = append(l.flags, fmt.Sprintf(
				"trace.coverage %.3f < %.1f: %.4g ms of each job's %.4g ms served run time is unaccounted for. "+
					"The replay times generation, engine build and clone, and protocol.RunOn serially; the served "+
					"job also assembles its result table and event log, and runs beside %d other client(s) "+
					"and the HTTP handlers on %d CPU(s).",
				m.value, coverageFloor, servedRun-tracedMs, servedRun, l.o.w.clients-1, runtime.GOMAXPROCS(0)))
		}
	} else {
		m.missing = "no served job reported start and finish times"
	}
	m = add("trace.overhead", "ratio", 0)
	if l.experimentsOnly() {
		m.missing = "experiment runners are timed only from outside, with no wrapper to cost"
	} else {
		var withT, without float64
		for _, c := range l.cases {
			if c.err == nil && isRun(c) {
				withT += float64(c.count) * float64(c.times.run)
				without += float64(c.count) * float64(c.times.untimedRun)
			}
		}
		if without > 0 {
			m.value = withT/without - 1
			m.note = "(timed-wrapper replay vs the same trials unwrapped)"
		} else {
			m.missing = "no run trials were replayed"
		}
	}
	metrics := make([]metric, len(out))
	for i, m := range out {
		metrics[i] = *m
	}
	return metrics
}
