// Package scenario is the registry of topology families: named,
// self-describing network generators that build deterministic
// deployments from a declarative Spec (family name + parameter map,
// parseable from the compact string form "uniform:n=256,density=8").
//
// Every family declares its typed parameters (name, default, range,
// doc), so command-line tools list the full catalogue with -list and
// experiments can sweep *every* registered family without naming any
// of them (exp.E12CrossFamilySweep). The grammar, parameter
// resolution, registration checks and catalogue are internal/spec's,
// shared with the protocol registry; this package adds what is
// particular to geometry — the physics and seed a Build carries, and
// ForN sizing. internal/netgen keeps its function-per-family surface
// as thin wrappers over this registry.
//
// Registering a family makes it visible everywhere at once: the three
// CLIs (netgen, broadcast-sim, experiments), the cross-family sweep,
// the registry-wide property tests, and the public sinrcast.Generate.
package scenario

import (
	"sinrcast/internal/network"
	"sinrcast/internal/rng"
	"sinrcast/internal/sinr"
	"sinrcast/internal/spec"
)

// Param describes one parameter of a topology family. Builders may
// apply stricter, physics-dependent checks (e.g. spacing ≤ comm
// radius) than its static bounds.
type Param = spec.Param

// SpecError marks a spec-vs-physics mismatch detected inside a
// builder: the parameters are statically valid (Validate passes) but
// their combination cannot describe a deployment — a dumbbell blob
// radius beyond the communication radius, a lattice spacing that
// disconnects the grid, a hole larger than the lattice. It is the one
// spec.SpecError type, shared with the protocol registry.
type SpecError = spec.SpecError

// specErrorf builds a SpecError; used by builders for their
// physics-dependent parameter checks.
var specErrorf = spec.Errorf

// Spec is a declarative scenario: a family name plus parameter
// overrides. The zero value of Params means "all defaults". A Spec,
// the physical parameters, and a seed fully determine the generated
// network (see Generate).
type Spec struct {
	Family string
	Params map[string]float64
}

// String renders the canonical compact form "family:k=v,k=v" with
// parameters sorted by name; Parse(s.String()) reproduces s exactly.
func (s Spec) String() string { return spec.Format(s.Family, s.Params) }

// Build carries the resolved inputs of one generation: physical
// parameters, seed, and the family's parameter values with defaults
// filled in and ranges checked (read with Float and Int).
type Build struct {
	// Phys are the physical parameters (notably ε, which fixes the
	// communication radius 1-ε).
	Phys sinr.Params
	// Seed drives all sampling.
	Seed uint64
	spec.Values
}

// Rng returns a fresh deterministic stream seeded from Build.Seed.
func (b Build) Rng() *rng.Source { return rng.New(b.Seed) }

// Family is one registered topology generator.
type Family struct {
	// Name identifies the family in Spec strings; lowercase.
	Name string
	// Doc is a one-line description shown by -list.
	Doc string
	// Params declares the accepted parameters in display order.
	Params []Param
	// ForN returns parameter overrides sizing the family to ≈n
	// stations, for cross-family sweeps at matched n. When nil,
	// SpecForN sets the parameter literally named "n" if one exists.
	ForN func(n int) map[string]float64
	// Build generates the deployment. It must be deterministic in
	// (Build.Phys, Build.Seed, params): same inputs, byte-identical
	// positions.
	Build func(b Build) (*network.Network, error)
}

// SpecForN returns a Spec sizing the family to approximately n
// stations (exactly n for most families).
func (f *Family) SpecForN(n int) Spec {
	if f.ForN != nil {
		return Spec{Family: f.Name, Params: f.ForN(n)}
	}
	if _, ok := spec.Find(f.Params, "n"); ok {
		return Spec{Family: f.Name, Params: map[string]float64{"n": float64(n)}}
	}
	return Spec{Family: f.Name}
}

var families = spec.New(spec.Label{
	Pkg: "scenario", Kind: "family", Subject: "family ",
	Head: "family", Pair: "name=value", Fn: "Build", Reader: "builder",
}, func(f *Family) spec.Decl {
	return spec.Decl{Name: f.Name, Doc: f.Doc, Params: f.Params, Runnable: f.Build != nil}
})

// Register adds a family to the registry; it panics on programming
// errors (see spec.Registry.Register).
func Register(f Family) { families.Register(f) }

// Lookup returns the named family.
func Lookup(name string) (*Family, bool) { return families.Lookup(name) }

// Families returns every registered family sorted by name.
func Families() []*Family { return families.All() }

// Names returns the sorted names of all registered families.
func Names() []string { return families.Names() }

// Describe renders the family catalogue with parameter docs — the
// text behind every CLI's -list flag.
func Describe() string { return families.Describe() }

// Parse reads the compact spec form "family" or
// "family:name=value,name=value". The family must be registered and
// every parameter declared by it; values must parse as numbers.
// (Range and integrality are checked by Validate and Generate.)
func Parse(s string) (Spec, error) {
	name, params, err := families.Parse(s)
	return Spec{Family: name, Params: params}, err
}

// Validate checks a spec against the registry without building it:
// the family must exist and every override must be declared, in
// range, and integral where required. (Builders may still reject
// physics-dependent combinations at Generate time.) CLIs use it to
// classify bad specs as usage errors.
func Validate(s Spec) error {
	_, _, err := families.Resolve(s.Family, s.Params)
	return err
}

// Generate builds the network described by s under the given
// physical parameters and seed. Defaults fill omitted parameters;
// unknown names, out-of-range values, and fractional values for
// integer parameters are rejected.
func Generate(s Spec, phys sinr.Params, seed uint64) (*network.Network, error) {
	f, vals, err := families.Resolve(s.Family, s.Params)
	if err != nil {
		return nil, err
	}
	return f.Build(Build{Phys: phys, Seed: seed, Values: vals})
}
