package spec

import (
	"errors"
	"math"
	"strings"
	"testing"
)

// entry is the test registry's entry type.
type entry struct {
	name   string
	params []Param
	run    func()
}

// testRegistry declares entries named after the scenario families and
// protocols of the CLIs, so the seeds below parse the way they do
// there.
func testRegistry() *Registry[entry] {
	r := New(Label{Pkg: "test", Kind: "thing", Subject: "thing ", Head: "thing", Pair: "k=v", Fn: "Run", Reader: "runner"},
		func(e *entry) Decl {
			return Decl{Name: e.name, Doc: e.name + " doc", Params: e.params, Runnable: e.run != nil}
		})
	n := Param{Name: "n", Doc: "stations", Default: 16, Min: 1, Max: math.Inf(1), Int: true}
	frac := func(name string) Param { return Param{Name: name, Doc: name, Default: 0.5, Min: 0, Max: 1} }
	count := func(name string) Param {
		return Param{Name: name, Doc: name, Default: 1, Min: 0, Max: MaxInt, Int: true}
	}
	run := func() {}
	for _, e := range []entry{
		{"uniform", []Param{n, {Name: "density", Doc: "density", Default: 8, Min: 0.1, Max: 1e6}}, run},
		{"grid", []Param{n, frac("spacing")}, run},
		{"annulus", []Param{n, frac("thickness")}, run},
		{"starclusters", []Param{count("arms"), count("hops")}, run},
		{"nos", []Param{count("source"), {Name: "budgetmul", Doc: "budget", Default: 1, Min: 0.01, Max: 1000}}, run},
		{"s", []Param{frac("maxtxprob"), {Name: "cprob", Doc: "cprob", Default: 4, Min: 0.1, Max: 1e6}}, run},
		{"wakeup", []Param{count("wakers"), frac("stagger")}, run},
		{"alert", []Param{count("raised")}, run},
		{"leader", nil, run},
	} {
		r.Register(e)
	}
	return r
}

// parseSeeds are the inputs of the scenario and protocol
// TestParseErrors and TestParseRoundTrip tables.
var parseSeeds = []string{
	"", "nosuchfamily", "nosuchfamily:n=4", "uniform:", "uniform:n", "uniform:n=", "uniform:=8",
	"uniform:bogus=1", "uniform:n=abc", "uniform:n=4,n=5",
	"uniform", "uniform:n=256,density=8", " uniform:n=256 , density=8 ", "grid:spacing=0.25,n=49",
	"annulus:thickness=0.3", "starclusters:arms=7,hops=2",
	"nosuchproto", "nosuchproto:x=1", "nos:", "nos:source", "nos:source=", "nos:=3", "nos:bogus=1",
	"nos:source=abc", "nos:source=1,source=2",
	"nos", "nos:source=3,budgetmul=2", " s:maxtxprob=0.5 , cprob=4 ", "wakeup:wakers=4,stagger=0.25",
	"alert:raised=0", "leader",
}

// FuzzParse checks the grammar's round trip: whatever Parse accepts,
// Format renders to a canonical form that Parse accepts again and that
// formats to itself. No input may panic.
func FuzzParse(f *testing.F) {
	r := testRegistry()
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		name, params, err := r.Parse(s)
		if err != nil {
			if name != "" || params != nil {
				t.Fatalf("Parse(%q) failed but returned %q %v", s, name, params)
			}
			return
		}
		canon := Format(name, params)
		name2, params2, err := r.Parse(canon)
		if err != nil {
			t.Fatalf("Parse(%q) ok, but its canonical form %q fails: %v", s, canon, err)
		}
		if again := Format(name2, params2); again != canon {
			t.Fatalf("canonical form drifted: %q -> %q", canon, again)
		}
	})
}

func TestParseAndFormat(t *testing.T) {
	r := testRegistry()
	for in, want := range map[string]string{
		"uniform":                     "uniform",
		" uniform:n=256 , density=8 ": "uniform:density=8,n=256",
		"nos:source=0x1p4":            "nos:source=16",
		"s:maxtxprob=5e-1":            "s:maxtxprob=0.5",
	} {
		name, params, err := r.Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		if got := Format(name, params); got != want {
			t.Errorf("Format(Parse(%q)) = %q, want %q", in, got, want)
		}
	}
	for in, want := range map[string]string{
		"":                      `test: empty spec (want "thing" or "thing:k=v,...")`,
		"nope":                  `test: unknown thing "nope" (known: alert, annulus, grid, leader, nos, s, starclusters, uniform, wakeup)`,
		"nos:":                  "test: nos: empty parameter list after ':'",
		"nos:source":            `test: nos: malformed parameter "source" (want k=v)`,
		"nos:x=1":               `test: thing nos has no parameter "x" (has: source, budgetmul)`,
		"nos:source=":           `test: nos: malformed parameter "source=" (want k=v)`,
		"nos:source=a":          `test: nos: parameter source="a" is not a number`,
		"nos:source=1,source=1": `test: nos: parameter "source" given twice`,
	} {
		if _, _, err := r.Parse(in); err == nil || err.Error() != want {
			t.Errorf("Parse(%q) error = %v, want %q", in, err, want)
		}
	}
}

func TestResolve(t *testing.T) {
	r := testRegistry()
	e, vals, err := r.Resolve("nos", map[string]float64{"source": 3})
	if err != nil || e.name != "nos" {
		t.Fatalf("Resolve: %v %v", e, err)
	}
	if vals.Int("source") != 3 || vals.Float("budgetmul") != 1 {
		t.Fatalf("resolved source %d budgetmul %v, want 3 and the default 1", vals.Int("source"), vals.Float("budgetmul"))
	}
	for _, tc := range []struct {
		name   string
		params map[string]float64
		want   string
	}{
		{"nope", nil, `test: unknown thing "nope"`},
		{"nos", map[string]float64{"x": 1}, `test: thing nos has no parameter "x"`},
		{"nos", map[string]float64{"budgetmul": 0}, "test: nos: parameter budgetmul=0 outside [0.01, 1000]"},
		{"nos", map[string]float64{"budgetmul": math.NaN()}, "test: nos: parameter budgetmul=NaN outside [0.01, 1000]"},
		{"nos", map[string]float64{"source": 1.5}, "test: nos: parameter source=1.5 must be an integer"},
		{"uniform", map[string]float64{"n": 2e9}, "test: uniform: parameter n=2e+09 exceeds the size limit 1e+09"},
		{"uniform", map[string]float64{"n": math.Inf(1)}, "test: uniform: parameter n=+Inf outside [1, +Inf]"},
		// Several bad overrides: the first in key order is reported.
		{"uniform", map[string]float64{"n": 0, "density": -1, "x": 1}, "test: uniform: parameter density=-1 outside"},
		{"uniform", map[string]float64{"n": 0, "bogus": 1}, `test: thing uniform has no parameter "bogus"`},
	} {
		for range 20 { // map order varies between calls; the error may not
			_, _, err := r.Resolve(tc.name, tc.params)
			if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
				t.Fatalf("Resolve(%s, %v) = %v, want prefix %q", tc.name, tc.params, err, tc.want)
			}
		}
		_, _, err := r.Resolve(tc.name, tc.params)
		var se *SpecError
		if errors.As(err, &se) {
			t.Errorf("static check classified as SpecError: %v", err)
		}
	}
}

func TestRegisterPanics(t *testing.T) {
	run := func() {}
	for want, e := range map[string]entry{
		"test: Register with empty thing name":                             {run: run},
		`test: thing "x" has no Run function`:                              {name: "x"},
		`test: thing "x" declares empty or duplicate parameter "a"`:        {"x", []Param{{Name: "a"}, {Name: "a"}}, run},
		`test: thing "x" parameter "a" default 2 outside [0, 1]`:           {"x", []Param{{Name: "a", Default: 2, Max: 1}}, run},
		`test: thing "x" integer parameter "a" has fractional default 0.5`: {"x", []Param{{Name: "a", Default: 0.5, Max: 1, Int: true}}, run},
		`test: thing "nos" registered twice`:                               {name: "nos", run: run},
	} {
		func() {
			defer func() {
				if got := recover(); got != want {
					t.Errorf("Register panic = %v, want %q", got, want)
				}
			}()
			testRegistry().Register(e)
		}()
	}
	_, vals, _ := testRegistry().Resolve("leader", nil)
	defer func() {
		if got := recover(); got != `test: runner read undeclared parameter "x"` {
			t.Errorf("undeclared read panic = %v", got)
		}
	}()
	vals.Float("x")
}

func TestDescribe(t *testing.T) {
	r := New(Label{}, func(e *entry) Decl { return Decl{Name: e.name, Doc: "doc", Params: e.params, Runnable: true} })
	r.Register(entry{name: "b", params: []Param{{Name: "n", Doc: "count", Default: 4, Max: 8, Int: true}, {Name: "ratio", Doc: "ratio", Default: 0.5, Max: 1}}})
	r.Register(entry{name: "a"})
	want := "a — doc\nb — doc\n    n      count (default 4, int)\n    ratio  ratio (default 0.5)\n"
	if got := r.Describe(); got != want {
		t.Fatalf("Describe =\n%s\nwant\n%s", got, want)
	}
	if got := strings.Join(r.Names(), ","); got != "a,b" {
		t.Fatalf("Names = %s", got)
	}
}
