package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"path/filepath"

	"sinrcast/internal/rng"
	"sinrcast/internal/serve"
)

// workload is one named job mix. Its timed job list is a pure function
// of the benchmark seed and --seconds, so every run with the same
// arguments serves the same jobs in the same order.
type workload struct {
	name    string
	clients int
	// perSecond sets the job count (see jobs). It is the rate measured
	// on the recording machine, so a run lasts about --seconds there;
	// it is never adjusted at run time, so a faster program finishes
	// sooner instead of serving a different mix.
	perSecond float64
	config    func(dir string) serve.Config
	// setup lists the untimed jobs that bring a fresh server to the
	// workload's starting state.
	setup func() []serve.JobRequest
	// setupSamples is how many set-ups an end-to-end run times beside
	// the discarded first one, a multiple of setupBatches; a cheap
	// set-up gets more because each sample is noisier.
	setupSamples int
	// warmupCycles is how many mix cycles are served untimed between
	// set-up and the timed jobs (see floodWarm).
	warmupCycles int
	// mixCycle returns the i-th mix cycle of timed jobs. It does not see
	// the benchmark seed: every run serves the same jobs, so a run's
	// cost does not depend on which seed it was given, and the seed
	// only sets their order.
	mixCycle func(i int) []serve.JobRequest
}

// jobs returns the timed job list for seed and --seconds: about
// perSecond·seconds jobs, rounded up to whole mix cycles and shuffled
// by seed.
func (w *workload) jobs(seed uint64, seconds int) []serve.JobRequest {
	perCycle := len(w.mixCycle(0))
	return w.cycles(int(math.Ceil(w.perSecond*float64(seconds)/float64(perCycle))), seed, 0)
}

// warmup returns the untimed jobs served before the timed ones: the
// first warmupCycles mix cycles, shuffled by seed, at 1 trial each.
// The warm-up brings the daemon to its steady state (see floodWarm),
// which any finished job does, so it runs each job at its cheapest.
func (w *workload) warmup(seed uint64) []serve.JobRequest {
	out := w.cycles(w.warmupCycles, seed, 1)
	for i := range out {
		out[i].Trials = 1
	}
	return out
}

// cycles returns the first n mix cycles, shuffled by (seed, stream).
func (w *workload) cycles(n int, seed, stream uint64) []serve.JobRequest {
	var out []serve.JobRequest
	for c := 0; c < n; c++ {
		out = append(out, w.mixCycle(c)...)
	}
	r := rand.New(rand.NewPCG(seed, stream))
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

var workloads = []*workload{floodWarm, paperSuite, freshLarge}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// floodDeploySeed fixes the flood-warm deployments: they are the
// warm-cache working set, identical on every run.
const floodDeploySeed = 1

// floodMix is flood-warm's job mix per 100 jobs, listed in roughly ascending
// per-job cost as measured with 2 clients on the recording machine
// (recording.json has the sorted latencies). The weights put the
// reported percentiles inside wide bands instead of on a gap between
// protocol costs. The cheap band (clusters tdma, decay and daum,
// gaussian tdma; 2–6 ms) holds 32 jobs and the middle band (uniform
// tdma, decay and daum, 8.5–10 ms) the next 36, ranks about 26–67, so
// p50 sits in its middle, 17 ranks from the gap above it. Above that,
// gaussian daum (about 19 ms) holds ranks 67–76, and gaussian decay,
// the most rounds of any flood here, overlaps clusters oracle (about
// 31 and 28 ms) over ranks 76–98, so p90 sits inside that band. The
// two expensive oracle cells stay in the mix, rare enough that no
// percentile lands on them.
var floodMix = []struct {
	scenario, protocol string
	count              int
}{
	{"clusters:k=4,m=64", "tdma", 8},
	{"gaussian:n=256", "tdma", 8},
	{"clusters:k=4,m=64", "decay", 8},
	{"clusters:k=4,m=64", "daum", 8},
	{"uniform:n=256", "tdma", 12},
	{"uniform:n=256", "decay", 12},
	{"uniform:n=256", "daum", 12},
	{"gaussian:n=256", "daum", 8},
	{"clusters:k=4,m=64", "oracle", 6},
	{"gaussian:n=256", "decay", 16},
	{"uniform:n=256", "oracle", 1},
	{"gaussian:n=256", "oracle", 1},
}

// floodTrials is the trial count of a timed flood-warm job. At 2
// trials a job lasts 1–3 ms, and the per-job hand-offs between the
// client, the HTTP handlers and the job worker, whose cost follows the
// load on the host far more than the protocols' does, make up much of
// it: over six runs the cheapest job types' medians spread 0.26–0.37,
// the oracle cells' 0.11. At 8 trials the protocols carry the job.
const floodTrials = 8

var floodDeployments = []string{"uniform:n=256", "gaussian:n=256", "clusters:k=4,m=64"}

var floodWarm = &workload{
	name:         "flood-warm",
	clients:      2,
	perSecond:    110,
	setupSamples: 40,
	// A long-running daemon keeps its job tables at their retention
	// bound (4096 jobs in serve and jobs), where every admission also
	// prunes one job. Serving 4100 jobs before the timed ones puts the
	// whole timed section in that steady state instead of crossing into
	// it part-way. Served at 1 trial a job (see warmup), the warm-up
	// takes a few seconds instead of most of a minute, and every job
	// type still runs before timing.
	warmupCycles: 41,
	config:       func(string) serve.Config { return serve.Config{} },
	setup: func() []serve.JobRequest {
		var out []serve.JobRequest
		for _, sc := range floodDeployments {
			out = append(out, serve.JobRequest{Scenario: sc, Protocol: "decay", Seed: floodDeploySeed, Trials: 2})
		}
		return out
	},
	mixCycle: func(int) []serve.JobRequest {
		var out []serve.JobRequest
		for _, m := range floodMix {
			for i := 0; i < m.count; i++ {
				out = append(out, serve.JobRequest{Scenario: m.scenario, Protocol: m.protocol, Seed: floodDeploySeed, Trials: floodTrials})
			}
		}
		return out
	},
}

// paperScale and paperTrials fix the experiment size: at scale 0.25
// every experiment already sits at its minimum network sizes.
const (
	paperScale  = 0.25
	paperTrials = 2
	// paperSeeds is how many distinct seeds each experiment cycles
	// through, so the correctness replay stays short while the served
	// jobs still differ from one another.
	paperSeeds      = 4
	paperSeedDomain = 0x9a9e7
)

// paperMix is paper-suite's job mix per 10 jobs, in ascending cost
// (E6 ≈ 46 ms, E2 ≈ 69 ms, E11 ≈ 90 ms, E1 ≈ 164 ms on the recording
// machine): p50 falls inside E11's ranks 5–7 and p90 inside E1's ranks
// 8–10, never between two experiments.
var paperMix = []struct{ experiment, count int }{
	{6, 2}, {2, 2}, {11, 3}, {1, 3},
}

var paperSuite = &workload{
	name:         "paper-suite",
	clients:      1,
	perSecond:    9.4,
	setupSamples: 10,
	config: func(dir string) serve.Config {
		return serve.Config{JournalPath: filepath.Join(dir, "journal.ndjson")}
	},
	setup: func() []serve.JobRequest {
		var out []serve.JobRequest
		for _, m := range paperMix {
			out = append(out, serve.JobRequest{Experiment: m.experiment, Seed: 2014, Trials: paperTrials, Scale: paperScale})
		}
		return out
	},
	mixCycle: func(c int) []serve.JobRequest {
		var out []serve.JobRequest
		for _, m := range paperMix {
			for i := 0; i < m.count; i++ {
				k := (c*m.count + i) % paperSeeds
				out = append(out, serve.JobRequest{
					Experiment: m.experiment,
					Seed:       rng.Derive(paperSeedDomain, uint64(m.experiment), uint64(k)),
					Trials:     paperTrials,
					Scale:      paperScale,
				})
			}
		}
		return out
	},
}

// freshDeployments are fresh-large's deployment families: two inside
// sinr.Choose's grid band and one above it, where auto picks hier.
var freshDeployments = []string{
	"uniform:n=8192",
	"starclusters:arms=12,m=400,hops=4",
	"uniform:n=32768",
}

// freshCacheBytes holds one uniform:n=8192 entry (≈1.6 MB) but not two,
// and neither larger deployment: inserting one of those evicts the
// cache's entry and then the new entry itself. Set-up builds the two
// large deployments first, so it ends with the cache holding one
// set-up entry, and every timed job evicts unless the job before it
// left the cache empty.
const freshCacheBytes = 5 << 19

// freshSeedDomain and freshSetupDomain give the timed and the set-up
// deployments disjoint seed streams, so no timed job ever finds a
// set-up deployment in the cache.
const (
	freshSeedDomain  = 0xf7e5
	freshSetupDomain = 0x5e7
)

var freshLarge = &workload{
	name:         "fresh-large",
	clients:      1,
	perSecond:    7.3,
	setupSamples: 10,
	config:       func(string) serve.Config { return serve.Config{CacheBytes: freshCacheBytes} },
	setup: func() []serve.JobRequest {
		var out []serve.JobRequest
		for i := range freshDeployments {
			sc := freshDeployments[len(freshDeployments)-1-i] // uniform:n=8192 last
			out = append(out, freshJob(sc, rng.Derive(freshSetupDomain, uint64(i))))
		}
		return out
	},
	mixCycle: func(c int) []serve.JobRequest {
		var out []serve.JobRequest
		for _, sc := range freshDeployments {
			out = append(out, freshJob(sc, rng.Derive(freshSeedDomain, uint64(c))))
		}
		return out
	},
}

func freshJob(scenario string, seed uint64) serve.JobRequest {
	return serve.JobRequest{Scenario: scenario, Protocol: "decay:budget=24", Engine: "auto", Seed: seed, Trials: 1}
}
