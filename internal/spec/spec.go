// Package spec is the declarative-spec machinery behind both axes of
// the paper's comparison: the topology families of internal/scenario
// and the algorithms of internal/protocol. It holds the one copy of
// the typed parameter declaration, the canonical compact form
// "name:k=v,k=v", its parser, default filling with range, integer and
// size-limit checks, the registration sanity checks, the sorted
// name→entry registry, the -list catalogue renderer, and SpecError.
//
// A registry is a Registry value over the entry type; its Label keeps
// each registry's own error wording ("scenario: unknown family …",
// "protocol: unknown protocol …"), so both read as they always have
// while sharing one code path.
package spec

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// MaxInt caps integer parameters (station counts, station indices,
// cluster counts, …): large enough for any real deployment or run,
// small enough that int conversion and slice allocation stay
// well-defined.
const MaxInt = 1e9

// Param describes one parameter of a registry entry.
type Param struct {
	// Name is the key used in a spec's parameter map and compact form.
	Name string
	// Doc is a one-line description shown by -list.
	Doc string
	// Default is the value used when a spec omits the parameter.
	Default float64
	// Min and Max bound the accepted values (inclusive). Builders and
	// runners may apply stricter checks that depend on the physics or
	// the network (spacing ≤ comm radius, source < n) and report them
	// as SpecError.
	Min, Max float64
	// Int marks integer-valued parameters (station counts, indices).
	Int bool
}

// Find looks up a declared parameter by name.
func Find(params []Param, name string) (Param, bool) {
	for _, p := range params {
		if p.Name == name {
			return p, true
		}
	}
	return Param{}, false
}

// Decl is what a registry reads of an entry: its name, catalogue doc,
// declared parameters, and whether it carries its build or run
// function.
type Decl struct {
	Name     string
	Doc      string
	Params   []Param
	Runnable bool
}

// Label words one registry's errors and panics.
type Label struct {
	// Pkg prefixes every message: "scenario".
	Pkg string
	// Kind names an entry: "family" ("unknown family %q").
	Kind string
	// Subject precedes an entry's name where a message names it:
	// "family " ("family uniform has no parameter …") or "".
	Subject string
	// Head and Pair spell the compact form in usage hints:
	// `"family" or "family:name=value,..."`.
	Head, Pair string
	// Fn is the entry's function field ("Build"), Reader what calls it
	// ("builder"); they word the programming-error panics.
	Fn, Reader string
}

// Registry maps entry names to entries of type E. It is safe for
// concurrent use; entries are registered at init and never removed.
type Registry[E any] struct {
	label  Label
	decl   func(*E) Decl
	mu     sync.RWMutex
	byName map[string]*E
}

// New returns an empty registry whose entries decl describes.
func New[E any](label Label, decl func(*E) Decl) *Registry[E] {
	return &Registry[E]{label: label, decl: decl, byName: map[string]*E{}}
}

// Register adds a copy of e. It panics on an empty or duplicate name,
// a missing build or run function, or a Param whose default violates
// its own bounds — all programming errors caught at init.
func (r *Registry[E]) Register(e E) {
	l, d := r.label, r.decl(&e)
	if d.Name == "" {
		panic(fmt.Sprintf("%s: Register with empty %s name", l.Pkg, l.Kind))
	}
	who := fmt.Sprintf("%s: %s%q", l.Pkg, l.Subject, d.Name)
	if !d.Runnable {
		panic(fmt.Sprintf("%s has no %s function", who, l.Fn))
	}
	seen := map[string]bool{}
	for _, p := range d.Params {
		if p.Name == "" || seen[p.Name] {
			panic(fmt.Sprintf("%s declares empty or duplicate parameter %q", who, p.Name))
		}
		seen[p.Name] = true
		if p.Default < p.Min || p.Default > p.Max {
			panic(fmt.Sprintf("%s parameter %q default %v outside [%v, %v]", who, p.Name, p.Default, p.Min, p.Max))
		}
		if p.Int && p.Default != math.Trunc(p.Default) {
			panic(fmt.Sprintf("%s integer parameter %q has fractional default %v", who, p.Name, p.Default))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[d.Name]; dup {
		panic(fmt.Sprintf("%s registered twice", who))
	}
	r.byName[d.Name] = &e
}

// Lookup returns the named entry.
func (r *Registry[E]) Lookup(name string) (*E, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.byName[name]
	return e, ok
}

// All returns every registered entry sorted by name.
func (r *Registry[E]) All() []*E {
	r.mu.RLock()
	out := make([]*E, 0, len(r.byName))
	for _, e := range r.byName {
		out = append(out, e)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return r.decl(out[i]).Name < r.decl(out[j]).Name })
	return out
}

// Names returns the sorted names of all registered entries.
func (r *Registry[E]) Names() []string {
	all := r.All()
	out := make([]string, len(all))
	for i, e := range all {
		out[i] = r.decl(e).Name
	}
	return out
}

// Describe renders the catalogue of registered entries with their
// parameter docs — the text behind every CLI's -list flag.
func (r *Registry[E]) Describe() string {
	var sb strings.Builder
	for _, e := range r.All() {
		d := r.decl(e)
		fmt.Fprintf(&sb, "%s — %s\n", d.Name, d.Doc)
		width := 0
		for _, p := range d.Params {
			width = max(width, len(p.Name))
		}
		for _, p := range d.Params {
			kind := ""
			if p.Int {
				kind = ", int"
			}
			fmt.Fprintf(&sb, "    %-*s  %s (default %s%s)\n", width, p.Name, p.Doc, formatValue(p.Default), kind)
		}
	}
	return sb.String()
}

// Format renders the canonical compact form "name:k=v,k=v" with
// parameters sorted by key; Parse of the result reproduces the pair
// exactly.
func Format(name string, params map[string]float64) string {
	if len(params) == 0 {
		return name
	}
	var sb strings.Builder
	sb.WriteString(name)
	for i, k := range slices.Sorted(maps.Keys(params)) {
		if i == 0 {
			sb.WriteByte(':')
		} else {
			sb.WriteByte(',')
		}
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(formatValue(params[k]))
	}
	return sb.String()
}

// formatValue renders a parameter value in the shortest form that
// round-trips through strconv.ParseFloat.
func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Parse reads the compact form "name" or "name:k=v,k=v". The entry
// must be registered and every key declared by it; values must parse
// as numbers. Range and integrality are left to Resolve, so specs
// built programmatically get the same validation. On error the name
// is "" and the map nil.
func (r *Registry[E]) Parse(s string) (string, map[string]float64, error) {
	l := r.label
	s = strings.TrimSpace(s)
	if s == "" {
		return "", nil, fmt.Errorf("%s: empty spec (want %q or \"%s:%s,...\")", l.Pkg, l.Head, l.Head, l.Pair)
	}
	name, rest, hasParams := strings.Cut(s, ":")
	e, ok := r.Lookup(name)
	if !ok {
		return "", nil, r.unknown(name)
	}
	if !hasParams {
		return name, nil, nil
	}
	if strings.TrimSpace(rest) == "" {
		return "", nil, fmt.Errorf("%s: %s: empty parameter list after ':'", l.Pkg, name)
	}
	declared := r.decl(e).Params
	params := map[string]float64{}
	for _, pair := range strings.Split(rest, ",") {
		key, val, ok := strings.Cut(pair, "=")
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if !ok || key == "" || val == "" {
			return "", nil, fmt.Errorf("%s: %s: malformed parameter %q (want %s)", l.Pkg, name, pair, l.Pair)
		}
		if _, ok := Find(declared, key); !ok {
			return "", nil, r.undeclared(name, key, declared)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return "", nil, fmt.Errorf("%s: %s: parameter %s=%q is not a number", l.Pkg, name, key, val)
		}
		if _, dup := params[key]; dup {
			return "", nil, fmt.Errorf("%s: %s: parameter %q given twice", l.Pkg, name, key)
		}
		params[key] = v
	}
	return name, params, nil
}

func (r *Registry[E]) unknown(name string) error {
	return fmt.Errorf("%s: unknown %s %q (known: %s)", r.label.Pkg, r.label.Kind, name, strings.Join(r.Names(), ", "))
}

func (r *Registry[E]) undeclared(name, key string, declared []Param) error {
	has := make([]string, len(declared))
	for i, p := range declared {
		has[i] = p.Name
	}
	return fmt.Errorf("%s: %s%s has no parameter %q (has: %s)",
		r.label.Pkg, r.label.Subject, name, key, strings.Join(has, ", "))
}

// Resolve looks up the named entry and fills its defaults under the
// overrides, checking that every override is declared, finite and in
// range, and — for integer parameters — integral and within MaxInt.
// Overrides are checked in key order, so a spec with several bad
// values always reports the same one.
func (r *Registry[E]) Resolve(name string, overrides map[string]float64) (*E, Values, error) {
	l := r.label
	e, ok := r.Lookup(name)
	if !ok {
		return nil, Values{}, r.unknown(name)
	}
	declared := r.decl(e).Params
	vals := make(map[string]float64, len(declared))
	for _, p := range declared {
		vals[p.Name] = p.Default
	}
	for _, key := range slices.Sorted(maps.Keys(overrides)) {
		v := overrides[key]
		p, ok := Find(declared, key)
		if !ok {
			return nil, Values{}, r.undeclared(name, key, declared)
		}
		if v < p.Min || v > p.Max || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, Values{}, fmt.Errorf("%s: %s: parameter %s=%s outside [%s, %s]",
				l.Pkg, name, key, formatValue(v), formatValue(p.Min), formatValue(p.Max))
		}
		if p.Int {
			if v != math.Trunc(v) {
				return nil, Values{}, fmt.Errorf("%s: %s: parameter %s=%s must be an integer",
					l.Pkg, name, key, formatValue(v))
			}
			// Bound sizes before int conversion: huge values would
			// overflow int or hang allocation, not describe a run.
			if math.Abs(v) > MaxInt {
				return nil, Values{}, fmt.Errorf("%s: %s: parameter %s=%s exceeds the size limit %s",
					l.Pkg, name, key, formatValue(v), formatValue(MaxInt))
			}
		}
		vals[key] = v
	}
	return e, Values{vals: vals, label: &r.label}, nil
}

// Values are an entry's resolved parameters: defaults filled in,
// overrides checked. Builders and runners read them by name.
type Values struct {
	vals  map[string]float64
	label *Label
}

// Float returns the resolved value of a declared parameter. It panics
// on undeclared names: that is a bug in the entry's definition, not a
// user error (user input is checked before Values exist).
func (v Values) Float(name string) float64 {
	x, ok := v.vals[name]
	if !ok {
		panic(fmt.Sprintf("%s: %s read undeclared parameter %q", v.label.Pkg, v.label.Reader, name))
	}
	return x
}

// Int returns a declared integer parameter.
func (v Values) Int(name string) int { return int(v.Float(name)) }

// SpecError marks a spec that passes the static checks but cannot
// describe a run: a scenario whose parameters contradict the physics
// (a dumbbell blob radius beyond the communication radius) or a
// protocol whose parameters contradict the network (a source index
// ≥ n). CLIs classify it as a usage error (exit 2), not a runtime
// failure; genuine runtime failures (a densifying generator exhausting
// its connectivity retries) stay plain errors.
type SpecError struct{ msg string }

func (e *SpecError) Error() string { return e.msg }

// Errorf builds a SpecError.
func Errorf(format string, args ...any) error {
	return &SpecError{msg: fmt.Sprintf(format, args...)}
}
