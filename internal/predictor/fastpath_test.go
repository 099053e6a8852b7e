package predictor

import (
	"testing"

	"github.com/pythia-db/pythia/internal/plan"
	"github.com/pythia-db/pythia/internal/sim"
)

// trainedFixture builds a small trained predictor plus a few distinct test
// plans from the shared workload fixture.
func trainedFixture(t *testing.T) (*Predictor, []*plan.Node) {
	t.Helper()
	db := workloadDB()
	r := sim.NewRand(17)
	var params []int64
	for i := 0; i < 32; i++ {
		params = append(params, r.Int63n(900))
	}
	samples, _, _ := buildSamples(t, db, params)
	p := Train(db.Registry, samples, fastOpts())
	pl := plan.NewPlanner(db)
	var roots []*plan.Node
	for _, q := range []int64{100, 400, 700, 100} {
		roots = append(roots, pl.MustPlan(templateQuery(q)))
	}
	return p, roots
}

// TestFingerprintProperties: equal token sequences collide, different ones
// (here: distinct plan parameters, and prefix/extension pairs) do not, and
// the hash is a pure function of the sequence.
func TestFingerprintProperties(t *testing.T) {
	a := []int{3, 1, 4, 1, 5}
	if Fingerprint(a) != Fingerprint([]int{3, 1, 4, 1, 5}) {
		t.Fatal("equal sequences hash differently")
	}
	distinct := [][]int{{}, {0}, {1}, {3, 1}, {1, 3}, {3, 1, 4}, a, {3, 1, 4, 1, 5, 0}}
	seen := map[uint64][]int{}
	for _, s := range distinct {
		h := Fingerprint(s)
		if prev, dup := seen[h]; dup {
			t.Fatalf("collision between %v and %v", prev, s)
		}
		seen[h] = s
	}
}

// TestEncodePlanMatchesPredictTokens: fingerprinting two identical-template
// plans with equal params must collide; different params must not (their
// serializations differ in the predicate constants).
func TestEncodePlanFingerprint(t *testing.T) {
	p, roots := trainedFixture(t)
	if got, want := Fingerprint(p.EncodePlan(roots[0])), Fingerprint(p.EncodePlan(roots[3])); got != want {
		t.Fatal("identical plans fingerprint differently")
	}
	if Fingerprint(p.EncodePlan(roots[0])) == Fingerprint(p.EncodePlan(roots[1])) {
		t.Fatal("distinct plans collided (parameters should tokenize differently)")
	}
}

// TestQuantizedPredictorAgreement: quantizing the whole predictor keeps
// per-plan prediction sets within the pinned agreement budget of the float
// path.
func TestQuantizedPredictorAgreement(t *testing.T) {
	p, roots := trainedFixture(t)
	floatPreds := make(map[int]int) // plan → float set size (for sanity)
	want := p.PredictParallel(roots[0])
	floatPreds[0] = len(want)

	p.Quantize()
	got := p.PredictParallel(roots[0])
	// Pinned agreement budget: Jaccard ≥ 0.9 on the seed workload.
	in := map[string]bool{}
	for _, pg := range want {
		in[pg.String()] = true
	}
	inter, union := 0, len(want)
	for _, pg := range got {
		if in[pg.String()] {
			inter++
		} else {
			union++
		}
	}
	agreement := 1.0
	if union > 0 {
		agreement = float64(inter) / float64(union)
	}
	if agreement < 0.9 {
		t.Fatalf("quantized agreement %.3f below pinned budget 0.90 (float %d pages, int8 %d pages)",
			agreement, len(want), len(got))
	}

}
