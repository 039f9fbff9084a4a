// Package protocol is the registry of communication algorithms: named,
// self-describing protocol runners that execute deterministically from
// a declarative Spec (protocol name + parameter map, parseable from the
// compact string form "nos:budgetmul=2,source=5").
//
// A protocol declares its typed parameters (name, default, range, doc),
// so command-line tools list the full catalogue with -list and
// experiments can sweep *every* registered protocol without naming any
// of them (exp.E13ProtocolMatrix races every protocol over every
// scenario family). The grammar, parameter resolution, registration
// checks and catalogue are internal/spec's, shared with the scenario
// registry of topology families: the two registries are the two axes
// of the paper's central comparison — algorithms against geometries.
// This package adds what is particular to algorithms — the physical
// layer a run uses (Channel) and the runners themselves.
//
// Every runner returns a *broadcast.Result: the paper's broadcast
// algorithms and the baseline floods natively, the §5 applications
// (wake-up, consensus, leader election, alert) through a result adapter
// that maps "protocol completed correctly" onto Result.AllInformed.
// The original entry points (broadcast.RunNoS, baseline.RunFlood,
// apps/*.Run) remain the primary implementations; the registry wraps
// them without changing their behavior.
//
// Registering a protocol makes it visible everywhere at once: the
// broadcast-sim CLI (-alg/-list), the protocol×scenario matrix
// experiment E13, the registry-wide property tests, and the public
// sinrcast.RunProtocol.
package protocol

import (
	"fmt"

	"sinrcast/internal/broadcast"
	"sinrcast/internal/network"
	"sinrcast/internal/sim"
	"sinrcast/internal/sinr"
	"sinrcast/internal/spec"
)

// Channel builds the physical layer for a run. It matches
// broadcast.Config.Channel so runners can hand it straight through;
// nil always means "each protocol's default", the exact SINR engine.
type Channel = func(net *network.Network) (sim.Resolver, error)

// NamedChannel maps an -engine selection onto a Channel — the single
// adapter behind every engine flag (broadcast-sim, experiments E14,
// sinrcast.RunProtocolOn). "" and "exact" return a nil Channel (each
// protocol's default is already the exact engine); unknown names
// error, so CLIs can classify them as usage errors.
func NamedChannel(name string) (Channel, error) {
	switch name {
	case "", "exact":
		return nil, nil
	case "grid", "hier", "auto":
		return func(net *network.Network) (sim.Resolver, error) {
			r, err := sinr.NewNamedEngine(name, net.Space, net.Params)
			if err != nil {
				return nil, err
			}
			return r, nil
		}, nil
	default:
		return nil, fmt.Errorf("protocol: unknown engine %q (want exact, grid, hier or auto)", name)
	}
}

// Param describes one parameter of a protocol. Runners may apply
// stricter, network-dependent checks (e.g. source < n) than its static
// bounds.
type Param = spec.Param

// maxIntParam caps integer parameters (station indices, waker counts,
// message-domain bounds, …); see spec.MaxInt.
const maxIntParam = spec.MaxInt

// SpecError marks a spec-vs-network mismatch: the parameters are
// statically valid (Validate passes) but disagree with the concrete
// network — a source index or waker count beyond n. It is the one
// spec.SpecError type, shared with the scenario registry.
type SpecError = spec.SpecError

// specErrorf builds a SpecError; used by runners for their
// network-dependent parameter checks.
var specErrorf = spec.Errorf

// Spec is a declarative protocol selection: a registered protocol name
// plus parameter overrides. The zero value of Params means "all
// defaults". A Spec, a network, and a seed fully determine the
// execution (see Run).
type Spec struct {
	Name   string
	Params map[string]float64
}

// String renders the canonical compact form "name:k=v,k=v" with
// parameters sorted by name; Parse(s.String()) reproduces s exactly.
func (s Spec) String() string { return spec.Format(s.Name, s.Params) }

// Build carries the resolved inputs of one execution: the seed and the
// protocol's parameter values with defaults filled in and ranges
// checked (read with Float and Int).
type Build struct {
	// Seed drives all protocol randomness.
	Seed uint64
	spec.Values

	channel Channel
}

// Channel returns the physical-layer factory of this run (nil = the
// protocol's default engine). Runners thread it into their entry
// points; see RunOn.
func (b Build) Channel() Channel { return b.channel }

// Protocol is one registered algorithm.
type Protocol struct {
	// Name identifies the protocol in Spec strings; lowercase.
	Name string
	// Doc is a one-line description shown by -list.
	Doc string
	// Params declares the accepted parameters in display order.
	Params []Param
	// Run executes the protocol on the network. It must be
	// deterministic in (net, Build.Seed, params): same inputs, same
	// Result, regardless of goroutine or engine worker count.
	Run func(net *network.Network, b Build) (*broadcast.Result, error)
}

var protocols = spec.New(spec.Label{
	Pkg: "protocol", Kind: "protocol", Subject: "",
	Head: "name", Pair: "param=value", Fn: "Run", Reader: "runner",
}, func(p *Protocol) spec.Decl {
	return spec.Decl{Name: p.Name, Doc: p.Doc, Params: p.Params, Runnable: p.Run != nil}
})

// Register adds a protocol to the registry; it panics on programming
// errors (see spec.Registry.Register).
func Register(p Protocol) { protocols.Register(p) }

// Lookup returns the named protocol.
func Lookup(name string) (*Protocol, bool) { return protocols.Lookup(name) }

// Protocols returns every registered protocol sorted by name.
func Protocols() []*Protocol { return protocols.All() }

// Names returns the sorted names of all registered protocols.
func Names() []string { return protocols.Names() }

// Describe renders the protocol catalogue with parameter docs — the
// text behind the CLI's -list flag.
func Describe() string { return protocols.Describe() }

// Parse reads the compact spec form "name" or
// "name:param=value,param=value". The protocol must be registered and
// every parameter declared by it; values must parse as numbers.
// (Range and integrality are checked by Validate and Run.)
func Parse(s string) (Spec, error) {
	name, params, err := protocols.Parse(s)
	return Spec{Name: name, Params: params}, err
}

// Validate checks a spec against the registry without running it:
// the protocol must exist and every override must be declared,
// in range, and integral where required. CLIs use it to classify
// bad specs as usage errors before any network is built.
func Validate(s Spec) error {
	_, _, err := protocols.Resolve(s.Name, s.Params)
	return err
}

// Run executes the protocol described by spec on the network under the
// given seed. Defaults fill omitted parameters; unknown names,
// out-of-range values, and fractional values for integer parameters
// are rejected. The execution is deterministic in (net, spec, seed).
// The physical layer is each protocol's default — the exact SINR
// engine, the paper's model; RunOn selects a different one.
func Run(net *network.Network, s Spec, seed uint64) (*broadcast.Result, error) {
	return RunOn(net, s, seed, nil)
}

// RunOn is Run with an explicit physical-layer factory. Every runner
// threads it into its underlying entry point (broadcast.Config.Channel,
// baseline.RunFloodOn, the app configs), so one -engine flag selects
// the engine for any registered protocol. nil keeps the default exact
// engine. Approximate engines (grid/hier/auto on large n) change
// physics slightly — results are deterministic but not comparable
// bit-for-bit with exact-engine runs.
func RunOn(net *network.Network, s Spec, seed uint64, ch Channel) (*broadcast.Result, error) {
	p, vals, err := protocols.Resolve(s.Name, s.Params)
	if err != nil {
		return nil, err
	}
	return p.Run(net, Build{Seed: seed, Values: vals, channel: ch})
}
