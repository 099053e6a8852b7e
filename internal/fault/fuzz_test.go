package fault

import (
	"math"
	"testing"
)

// FuzzParsePlan drives arbitrary strings through the CLI plan parser. It
// must reject garbage with an error and never panic; every plan it accepts
// must pass Validate with finite rates in [0, 1] and a finite multiplier,
// and re-parsing its String rendering must reproduce the rates, the
// multiplier and (when the replica site is armed) the replica index.
func FuzzParsePlan(f *testing.F) {
	for _, seed := range []string{
		"", "none", "exec=0.01,prefetch=0.05,latency=0.02,mult=8",
		"replica=1,replica-id=1", "serve=0.2", "infer=1,mult=0",
		"exec=NaN", "mult=NaN", "mult=Inf", "mult=1e300", "latency=-0",
		"exec=0x1p-3", "replica-id=1e19", "exec", "bogus=1", "exec=1,,",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePlan(s)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("ParsePlan(%q) accepted a plan Validate rejects: %v", s, err)
		}
		rates := func(p Plan) [6]float64 {
			return [6]float64{p.ExecReadRate, p.PrefetchReadRate, p.LatencySpikeRate,
				p.InferenceRate, p.ServeRate, p.ReplicaRate}
		}
		for i, r := range rates(p) {
			if math.IsNaN(r) || r < 0 || r > 1 {
				t.Fatalf("ParsePlan(%q) rate %d = %v", s, i, r)
			}
		}
		m := p.LatencyMultiplier
		if math.IsNaN(m) || math.IsInf(m, 0) || m < 0 || m > maxLatencyMultiplier {
			t.Fatalf("ParsePlan(%q) multiplier = %v", s, m)
		}
		q, err := ParsePlan(p.String())
		if err != nil {
			t.Fatalf("re-parse of %q (from %q) failed: %v", p.String(), s, err)
		}
		if rates(q) != rates(p) || q.LatencyMultiplier != m {
			t.Fatalf("round trip of %q: %+v, want %+v", s, q, p)
		}
		if p.ReplicaRate != 0 && q.ReplicaIndex != p.ReplicaIndex {
			t.Fatalf("round trip of %q: replica-id %d, want %d", s, q.ReplicaIndex, p.ReplicaIndex)
		}
	})
}
