package main

import (
	"reflect"
	"testing"

	"sinrcast/internal/protocol"
	"sinrcast/internal/scenario"
	"sinrcast/internal/sim"
	"sinrcast/internal/sinr"
)

// onlyResolve hides every optional capability of an engine.
type onlyResolve struct{ sim.Resolver }

func TestTimeResolverForwardsCapabilities(t *testing.T) {
	sp, err := scenario.Parse("uniform:n=64")
	if err != nil {
		t.Fatal(err)
	}
	net, err := scenario.Generate(sp, sinr.DefaultParams(), 3)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sinr.NewNamedEngine("exact", net.Space, net.Params)
	if err != nil {
		t.Fatal(err)
	}
	wrapped, _ := timeResolver(eng)
	if _, ok := wrapped.(sim.SubsetResolver); !ok {
		t.Fatal("timing wrapper dropped sim.SubsetResolver")
	}
	plain, _ := timeResolver(onlyResolve{eng})
	if _, ok := plain.(sim.SubsetResolver); ok {
		t.Fatal("timing wrapper invented sim.SubsetResolver")
	}
}

func TestTimeResolverReplayIdentical(t *testing.T) {
	sp, err := scenario.Parse("gaussian:n=96")
	if err != nil {
		t.Fatal(err)
	}
	net, err := scenario.Generate(sp, sinr.DefaultParams(), 5)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := sinr.NewNamedEngine("exact", net.Space, net.Params)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"decay", "daum", "oracle", "tdma"} {
		spec, err := protocol.Parse(name)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := sinr.CloneResolver(proto)
		want, err := protocol.RunOn(net, spec, 9, fixedChannel(a))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := sinr.CloneResolver(proto)
		wrapped, rt := timeResolver(b)
		got, err := protocol.RunOn(net, spec, 9, fixedChannel(wrapped))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: timed replay differs from the unwrapped run", name)
		}
		if rt.calls == 0 || rt.dur <= 0 {
			t.Errorf("%s: wrapper timed %d rounds in %v", name, rt.calls, rt.dur)
		}
	}
}
