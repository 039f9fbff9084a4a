package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sinrcast/internal/serve"
)

// instance is one in-process sinrcastd: a serve.Server behind a real
// loopback HTTP listener, and the client that talks to it.
type instance struct {
	srv    *serve.Server
	http   *http.Server
	served chan error
	base   string
	client *http.Client
	dir    string // journal directory (removed on stop)
}

// start brings up a fresh server for w with its own journal directory
// under workdir.
func start(w *workload, workdir string) (*instance, error) {
	dir, err := os.MkdirTemp(workdir, "serve-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.Open(w.config(dir))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	<-srv.ReplayDone()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		os.RemoveAll(dir)
		return nil, err
	}
	in := &instance{
		srv:    srv,
		http:   &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 2 * w.clients,
			DisableCompression:  true,
		}},
		dir: dir,
	}
	go func() { in.served <- in.http.Serve(ln) }()
	return in, nil
}

// stop shuts the listener and the server down, waits for both, and
// removes the journal directory.
func (in *instance) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	herr := in.http.Shutdown(ctx)
	<-in.served
	in.client.CloseIdleConnections()
	serr := in.srv.Shutdown(ctx)
	os.RemoveAll(in.dir)
	return errors.Join(herr, serr)
}

// outcome is what one served job returned to its client.
type outcome struct {
	submit  time.Duration // POST round trip
	latency time.Duration // POST sent → last result byte read
	body    []byte        // CSV result
	status  *jobStatus    // fetched only when tracing
	err     error         // refusal or failure; nil when a result arrived
}

// jobStatus is the subset of GET /v1/jobs/{id} the trace uses.
type jobStatus struct {
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started"`
	Finished time.Time `json:"finished"`
}

// runJob serves one job the way a sinrcastd client does: POST the
// request, then block on the CSV result. With withStatus it also
// fetches the job's status timestamps, after the latency is taken.
func (in *instance) runJob(req serve.JobRequest, withStatus bool) outcome {
	body, err := json.Marshal(req)
	if err != nil {
		return outcome{err: err}
	}
	t0 := time.Now()
	resp, err := in.client.Post(in.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return outcome{err: err}
	}
	var acc struct {
		ID string `json:"id"`
	}
	derr := json.NewDecoder(resp.Body).Decode(&acc)
	resp.Body.Close()
	submit := time.Since(t0)
	if resp.StatusCode != http.StatusAccepted || derr != nil {
		return outcome{err: fmt.Errorf("submit: HTTP %d (%v)", resp.StatusCode, derr)}
	}
	o := outcome{submit: submit}
	resp, err = in.client.Get(in.base + "/v1/jobs/" + acc.ID + "/result?format=csv&wait=1")
	if err != nil {
		o.err = err
		return o
	}
	o.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	o.latency = time.Since(t0)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("result: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(o.body))
	}
	if err != nil {
		o.err = err
		return o
	}
	if withStatus {
		o.status, o.err = in.status(acc.ID)
	}
	return o
}

func (in *instance) status(id string) (*jobStatus, error) {
	resp, err := in.client.Get(in.base + "/v1/jobs/" + id)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("status %s: %w", id, err)
	}
	return &st, nil
}

// setUp brings a fresh server to the workload's starting state and
// returns it with the time that took: server start, listener, and the
// set-up jobs, each served to completion in order.
func setUp(w *workload, workdir string) (*instance, time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	in, err := start(w, workdir)
	if err != nil {
		return nil, 0, err
	}
	for _, req := range w.setup() {
		if o := in.runJob(req, false); o.err != nil {
			in.stop()
			return nil, 0, fmt.Errorf("set-up job %+v: %w", req, o.err)
		}
	}
	return in, time.Since(t0), nil
}

// warmUp serves the workload's untimed warm-up jobs on in.
func (in *instance) warmUp(w *workload, seed uint64) error {
	for _, step := range in.warmUpSteps(w, seed) {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// warmUpSteps splits the workload's untimed warm-up jobs into one step
// per mix cycle, each served on in by the workload's clients.
func (in *instance) warmUpSteps(w *workload, seed uint64) []func() error {
	warm := w.warmup(seed)
	steps := make([]func() error, w.warmupCycles)
	for k := range steps {
		part := warm[k*len(warm)/len(steps) : (k+1)*len(warm)/len(steps)]
		steps[k] = func() error {
			outs, _ := in.drive(part, w.clients, false)
			for i, o := range outs {
				if o.err != nil {
					return fmt.Errorf("warm-up job %s: %w", caseKey(part[i]), o.err)
				}
			}
			return nil
		}
	}
	return steps
}

// sampleSetups runs the untimed steps in order and, between them, sets
// up and stops n fresh servers spread evenly over the steps. The
// samples then span the whole stretch the steps take, not a fraction of
// a second of it, so a machine whose speed drifts over seconds does
// not put all of them in one of its states. It returns the set-up
// times in the order they were taken.
func sampleSetups(w *workload, workdir string, n int, steps []func() error) ([]time.Duration, error) {
	var durs []time.Duration
	for i, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
		for len(durs) < n*(i+1)/len(steps) {
			in, d, err := setUp(w, workdir)
			if err != nil {
				return nil, err
			}
			if err := in.stop(); err != nil {
				return nil, fmt.Errorf("stopping set-up server: %w", err)
			}
			durs = append(durs, d)
		}
	}
	return durs, nil
}

// drive serves jobs in a closed loop: each of clients goroutines takes
// the next job in list order, serves it, and only then takes another.
// It returns the outcomes in job order and the wall time from the
// first POST to the last result byte.
func (in *instance) drive(jobs []serve.JobRequest, clients int, withStatus bool) ([]outcome, time.Duration) {
	out := make([]outcome, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	runtime.GC()
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				out[i] = in.runJob(jobs[i], withStatus)
			}
		}()
	}
	wg.Wait()
	return out, time.Since(t0)
}
