package main

import (
	"bytes"
	"strings"
	"testing"

	"sinrcast/internal/serve"
	"sinrcast/internal/stats"
)

// servedCSV renders a run-job table shaped like the daemon's.
func servedCSV(t *testing.T, rows ...[]string) []byte {
	t.Helper()
	tb := stats.NewTable("run", "trial", "seed", "rounds", "informed", "all", "phases", "tx", "rx")
	tb.Rows = rows
	var buf bytes.Buffer
	if err := renderCSV(&buf, tb); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCrossCheckRunRows(t *testing.T) {
	req := serve.JobRequest{Scenario: "uniform:n=64", Protocol: "decay", Seed: 1, Trials: 2}
	c := &jobCase{req: req, want: map[uint64][]string{
		11: {"30", "64", "true", "0", "90", "400"},
		12: {"31", "64", "true", "0", "95", "410"},
	}}
	good := servedCSV(t,
		[]string{"0", "11", "30", "64", "true", "0", "90", "400"},
		[]string{"1", "12", "31", "64", "true", "0", "95", "410"})
	if err := crossCheck(req, good, c); err != nil {
		t.Fatalf("matching rows rejected: %v", err)
	}
	for name, body := range map[string][]byte{
		"changed rx": servedCSV(t,
			[]string{"0", "11", "30", "64", "true", "0", "90", "401"},
			[]string{"1", "12", "31", "64", "true", "0", "95", "410"}),
		"missing trial": servedCSV(t,
			[]string{"0", "11", "30", "64", "true", "0", "90", "400"}),
		"unreplayed seed": servedCSV(t,
			[]string{"0", "11", "30", "64", "true", "0", "90", "400"},
			[]string{"1", "13", "31", "64", "true", "0", "95", "410"}),
	} {
		if err := crossCheck(req, body, c); err == nil {
			t.Errorf("%s: mismatch accepted", name)
		}
	}
}

func TestCrossCheckExperimentBytes(t *testing.T) {
	req := serve.JobRequest{Experiment: 6, Seed: 1, Trials: 2, Scale: 0.25}
	c := &jobCase{req: req, csv: []byte("a,b\n1,2\n")}
	if err := crossCheck(req, []byte("a,b\n1,2\n"), c); err != nil {
		t.Fatalf("identical table rejected: %v", err)
	}
	if err := crossCheck(req, []byte("a,b\n1,3\n"), c); err == nil || !strings.Contains(err.Error(), "differs") {
		t.Fatalf("differing table: err = %v", err)
	}
}
