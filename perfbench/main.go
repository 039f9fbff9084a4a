// Command perfbench is the end-to-end load benchmark of sinrcastd. It
// drives an in-process serve.Server over loopback HTTP exactly as a
// client does — POST /v1/jobs, then GET /v1/jobs/{id}/result?format=csv&wait=1
// — in a closed loop over a fixed, seed-generated job list, checks
// every result against the library, and prints the end-to-end metrics
// (or, with --trace 1, the per-layer ones) followed by one JSON result
// line. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"sinrcast/internal/serve"
)

// deadline bounds one run, so a hung server fails the run instead of
// stalling whoever invoked it.
const deadline = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	w       *workload
	seed    uint64
	seconds int
	workdir string
	stderr  io.Writer
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: flood-warm, paper-suite or fresh-large")
	seed := fs.Uint64("seed", 1, "seed the timed job list is generated from")
	seconds := fs.Int("seconds", 20, "nominal timed length; fixes the job count")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics; 1 = traced run with per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "directory for the servers' journals")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err == nil && *seconds < 1 {
		err = errors.New("--seconds must be at least 1")
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = errors.New("--trace must be 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	watchdog := time.AfterFunc(deadline, func() {
		fmt.Fprintf(stderr, "perfbench: run exceeded %v\n", deadline)
		os.Exit(3)
	})
	defer watchdog.Stop()

	o := options{w: w, seed: *seed, seconds: *seconds, workdir: *workdir, stderr: stderr}
	var res *result
	if *trace == 1 {
		res, err = traced(o, stdout)
	} else {
		res, err = endToEnd(o, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res.line())
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.correct {
		fmt.Fprintln(stderr, "perfbench: served results failed the cross-check")
		return 1
	}
	return 0
}

// metric is one reported number. A metric with a non-empty missing
// reason could not be measured on this workload: the report prints
// the reason instead of a value, and the result line carries 0 only
// because its format requires a number for every listed metric.
type metric struct {
	name, unit string
	value      float64
	missing    string
	note       string
}

type result struct {
	correct           bool
	attempted, failed int
	metrics           []metric
	// withhold drops missing metrics from the result line instead of
	// zero-filling them (end-to-end percentiles).
	withhold bool
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) line() any {
	m := map[string]jsonMetric{}
	for _, x := range r.metrics {
		if x.missing != "" && r.withhold {
			continue
		}
		m[x.name] = jsonMetric{Value: x.value, Unit: x.unit}
	}
	return struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, m}
}

// printReport writes every metric by name with its unit.
func printReport(out io.Writer, header string, metrics []metric) {
	fmt.Fprintln(out, header)
	for _, m := range metrics {
		val := fmt.Sprintf("%.6g", m.value)
		if m.missing != "" {
			val = "n/a"
		}
		line := fmt.Sprintf("  %-30s %14s %-6s", m.name, val, m.unit)
		switch {
		case m.missing != "":
			line += " not measured: " + m.missing
		case m.note != "":
			line += " " + m.note
		}
		fmt.Fprintln(out, strings.TrimRight(line, " "))
	}
}

func header(o options, mode string, jobs int) string {
	return fmt.Sprintf("perfbench %s (%s) seed=%d jobs=%d clients=%d GOMAXPROCS=%d %s",
		o.w.name, mode, o.seed, jobs, o.w.clients, runtime.GOMAXPROCS(0), runtime.Version())
}

// tally classifies every served job against its case's replay:
// refused at admission, failed without a result, or a result that
// fails the cross-check. It returns the failure count and the indices
// of the jobs that passed, logging the first few failures.
func tally(reqs []serve.JobRequest, outs []outcome, byKey map[string]*jobCase, stderr io.Writer) (failed int, passed []int) {
	for i, req := range reqs {
		err := outs[i].err
		if err == nil {
			err = crossCheck(req, outs[i].body, byKey[caseKey(req)])
		}
		if err != nil {
			failed++
			if failed <= 5 {
				fmt.Fprintf(stderr, "perfbench: job %d %s: %v\n", i, caseKey(req), err)
			}
			continue
		}
		passed = append(passed, i)
	}
	return failed, passed
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
