package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sinrcast/internal/broadcast"
	"sinrcast/internal/exp"
	"sinrcast/internal/jobs"
	"sinrcast/internal/network"
	"sinrcast/internal/protocol"
	"sinrcast/internal/scenario"
	"sinrcast/internal/serve"
	"sinrcast/internal/sim"
	"sinrcast/internal/sinr"
	"sinrcast/internal/stats"
)

// checkedColumns are the run-job result columns the cross-check
// compares against the library replay.
var checkedColumns = []string{"rounds", "informed", "all", "phases", "tx", "rx"}

// engineWorkers is the per-job resolver-worker share the daemon
// defaults give every job; replays use the same so they resolve the
// way the served job did.
var engineWorkers = jobs.Config{}.EngineWorkersPerJob()

// jobCase is one distinct job of a run: the request, how many served
// jobs carried it, the per-trial seeds their result rows named, and —
// after replay — the library's answers and layer times.
type jobCase struct {
	req   serve.JobRequest
	count int
	seeds []uint64

	// Replay results: per-seed checked column values (run jobs) or the
	// rendered CSV (experiment jobs).
	want map[uint64][]string
	csv  []byte
	err  error

	times layerTimes
}

// layerTimes is one replayed job's time in each layer, measured around
// the public calls. run is protocol.RunOn summed over the job's
// trials, resolve the part of it spent inside the engine, and
// untimedRun the same trials again without the resolver wrapper.
type layerTimes struct {
	generate, build, clone, run, untimedRun, render time.Duration
	kind                                            sinr.EngineKind
	resolve                                         time.Duration
	rounds, tx, rx                                  int64
}

// caseKey identifies a distinct job by its canonical wire form.
func caseKey(req serve.JobRequest) string {
	b, _ := json.Marshal(req) // a JobRequest always marshals
	return string(b)
}

// collectCases groups the served jobs into distinct cases, recording
// the row seeds each served table named so the replay runs exactly
// those trials.
func collectCases(reqs []serve.JobRequest, outs []outcome) ([]*jobCase, map[string]*jobCase) {
	byKey := map[string]*jobCase{}
	var order []*jobCase
	for i, req := range reqs {
		k := caseKey(req)
		c := byKey[k]
		if c == nil {
			c = &jobCase{req: req}
			byKey[k] = c
			order = append(order, c)
		}
		c.count++
		if outs[i].err != nil || req.Experiment != 0 {
			continue
		}
		tb, err := stats.ReadCSV(bytes.NewReader(outs[i].body))
		if err != nil {
			continue // reported by the cross-check
		}
		col := columnIndex(tb.Headers, "seed")
		for _, row := range tb.Rows {
			if col < 0 || col >= len(row) {
				continue
			}
			s, err := strconv.ParseUint(row[col], 10, 64)
			if err != nil || containsSeed(c.seeds, s) {
				continue
			}
			c.seeds = append(c.seeds, s)
		}
	}
	return order, byKey
}

func containsSeed(seeds []uint64, s uint64) bool {
	for _, x := range seeds {
		if x == s {
			return true
		}
	}
	return false
}

func columnIndex(headers []string, name string) int {
	for i, h := range headers {
		if h == name {
			return i
		}
	}
	return -1
}

// replayAll replays every case through the library. Untimed replays
// run on GOMAXPROCS goroutines; timed ones run serially so no case's
// layer times include another's contention.
func replayAll(cases []*jobCase, timed bool) {
	workers := 1
	if !timed {
		workers = runtime.GOMAXPROCS(0)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(cases) {
					return
				}
				c := cases[i]
				if c.req.Experiment != 0 {
					c.err = replayExperiment(c, timed)
				} else {
					c.err = replayRun(c, timed, i%2 == 0)
				}
			}
		}()
	}
	wg.Wait()
}

// replayRun rebuilds a run job's deployment and engine through the
// library and runs every served trial seed with protocol.RunOn. When
// timed, each public call is timed, every round goes through the
// resolveTimer wrapper, and the trials are run once more without the
// wrapper (before or after the timed pass, alternating between cases)
// to measure what the wrapper costs.
func replayRun(c *jobCase, timed, untimedFirst bool) error {
	req := c.req
	scSpec, err := scenario.Parse(req.Scenario)
	if err != nil {
		return err
	}
	prSpec, err := protocol.Parse(req.Protocol)
	if err != nil {
		return err
	}
	engine := req.Engine
	if engine == "" {
		engine = "exact" // the daemon's run-job default
	}
	t := &c.times

	start := time.Now()
	net, err := scenario.Generate(scSpec, sinr.DefaultParams(), req.Seed)
	t.generate = time.Since(start)
	if err != nil {
		return fmt.Errorf("generate: %w", err)
	}
	start = time.Now()
	proto, err := sinr.NewNamedEngine(engine, net.Space, net.Params)
	t.build = time.Since(start)
	if err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	t.kind = engineKind(proto)
	start = time.Now()
	eng, ok := sinr.CloneResolver(proto)
	t.clone = time.Since(start)
	if !ok {
		return fmt.Errorf("engine %T is not cloneable", proto)
	}
	eng.SetWorkers(engineWorkers)

	untimed := func() error {
		if !timed {
			return nil
		}
		start := time.Now()
		for _, seed := range c.seeds {
			if _, err := protocol.RunOn(net, prSpec, seed, fixedChannel(eng)); err != nil {
				return err
			}
		}
		t.untimedRun = time.Since(start)
		return nil
	}
	if untimedFirst {
		if err := untimed(); err != nil {
			return err
		}
	}

	c.want = make(map[uint64][]string, len(c.seeds))
	for _, seed := range c.seeds {
		var r sim.Resolver = eng
		var rt *resolveTimer
		if timed {
			r, rt = timeResolver(eng)
		}
		start := time.Now()
		res, err := protocol.RunOn(net, prSpec, seed, fixedChannel(r))
		if timed {
			t.run += time.Since(start)
			t.resolve += rt.dur
			t.rounds += rt.calls
			t.tx += rt.tx
			t.rx += rt.rx
		}
		if err != nil {
			return fmt.Errorf("run seed %d: %w", seed, err)
		}
		c.want[seed] = resultRow(res)
	}
	if !untimedFirst {
		return untimed()
	}
	return nil
}

// fixedChannel hands protocol.RunOn one already-built resolver.
func fixedChannel(r sim.Resolver) protocol.Channel {
	return func(*network.Network) (sim.Resolver, error) { return r, nil }
}

// resultRow formats a run result's checked columns exactly as the
// daemon's result table does (stats.Table.AddRow's %v).
func resultRow(r *broadcast.Result) []string {
	informed := 0
	for _, at := range r.InformTime {
		if at >= 0 {
			informed++
		}
	}
	return []string{
		fmt.Sprint(r.Rounds), fmt.Sprint(informed), fmt.Sprint(r.AllInformed),
		fmt.Sprint(r.Phases), fmt.Sprint(r.Metrics.Transmissions), fmt.Sprint(r.Metrics.Receptions),
	}
}

func engineKind(r sinr.Resolver) sinr.EngineKind {
	switch r.(type) {
	case *sinr.GridEngine:
		return sinr.KindGrid
	case *sinr.HierEngine:
		return sinr.KindHier
	default:
		return sinr.KindExact
	}
}

// expRunners maps the paper-suite experiments to their library
// runners.
var expRunners = map[int]func(exp.Config) (*stats.Table, error){
	1:  exp.E1NoSBroadcastVsD,
	2:  exp.E2SBroadcastScaling,
	6:  exp.E6GeometryImpact,
	11: exp.E11ColoringAblation,
}

// replayExperiment runs an experiment job's runner directly with the
// configuration the daemon derives from the request, and renders the
// table through the same CSV sink.
func replayExperiment(c *jobCase, timed bool) error {
	req := c.req
	run, ok := expRunners[req.Experiment]
	if !ok {
		return fmt.Errorf("no runner for experiment %d", req.Experiment)
	}
	engine := req.Engine
	if engine == "" {
		engine = "auto" // the daemon's experiment default
	}
	cfg := exp.Config{
		Seed:     req.Seed,
		Trials:   req.Trials,
		Scale:    req.Scale,
		Workers:  engineWorkers,
		Scenario: req.Scenario,
		Protocol: req.Protocol,
		Engine:   engine,
	}
	start := time.Now()
	tb, err := run(cfg)
	c.times.run = time.Since(start)
	if err != nil {
		return fmt.Errorf("E%d: %w", req.Experiment, err)
	}
	var buf bytes.Buffer
	err = renderCSV(&buf, tb)
	c.csv = buf.Bytes()
	return err
}

// renderCSV renders tb exactly as the daemon's result endpoint does.
func renderCSV(buf *bytes.Buffer, tb *stats.Table) error {
	sink, err := stats.NewSink("csv", buf)
	if err != nil {
		return err
	}
	if err := sink.Emit(tb); err != nil {
		return err
	}
	return sink.Close()
}

// crossCheck compares one served result with its case's replay and
// returns the first mismatch, nil when they agree.
func crossCheck(req serve.JobRequest, body []byte, c *jobCase) error {
	if c.err != nil {
		return fmt.Errorf("replay failed: %w", c.err)
	}
	if req.Experiment != 0 {
		if !bytes.Equal(body, c.csv) {
			return fmt.Errorf("E%d seed %d: served table differs from the library's", req.Experiment, req.Seed)
		}
		return nil
	}
	tb, err := stats.ReadCSV(bytes.NewReader(body))
	if err != nil {
		return err
	}
	want := req.Trials
	if want == 0 {
		want = 1
	}
	if len(tb.Rows) != want {
		return fmt.Errorf("%d result rows, want %d trials", len(tb.Rows), want)
	}
	seedCol := columnIndex(tb.Headers, "seed")
	cols := make([]int, len(checkedColumns))
	for i, name := range checkedColumns {
		if cols[i] = columnIndex(tb.Headers, name); cols[i] < 0 {
			return fmt.Errorf("result has no %q column", name)
		}
	}
	if seedCol < 0 {
		return fmt.Errorf("result has no seed column")
	}
	for _, row := range tb.Rows {
		if len(row) != len(tb.Headers) {
			return fmt.Errorf("ragged result row %v", row)
		}
		seed, err := strconv.ParseUint(row[seedCol], 10, 64)
		if err != nil {
			return fmt.Errorf("seed column %q: %w", row[seedCol], err)
		}
		exp, ok := c.want[seed]
		if !ok {
			return fmt.Errorf("seed %d was not replayed", seed)
		}
		for i, col := range cols {
			if row[col] != exp[i] {
				return fmt.Errorf("seed %d column %s: served %s, library %s", seed, checkedColumns[i], row[col], exp[i])
			}
		}
	}
	return nil
}
