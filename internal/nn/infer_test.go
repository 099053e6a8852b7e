package nn

import (
	"math"
	"strings"
	"testing"

	"github.com/pythia-db/pythia/internal/sim"
)

// TestPosTableMatchesFormula: the cached positional table must add exactly
// what AddPositional computes, bit for bit, at every shape — including
// regrowth to a longer sequence, a change of width, and positions past the
// table's bound — and must stop allocating once it has grown.
func TestPosTableMatchesFormula(t *testing.T) {
	var p posTable
	r := sim.NewRand(11)
	for _, c := range []struct{ rows, dim int }{
		{1, 8}, {3, 8}, {2, 8}, {56, 32}, {10, 32}, {70, 100}, {maxPosRows + 5, 6},
	} {
		x := randMat(r, c.rows, c.dim)
		want := x.Clone()
		AddPositional(want)
		p.add(x)
		for i := range want.Data {
			if math.Float64bits(x.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("rows=%d dim=%d: element %d = %v, formula gives %v", c.rows, c.dim, i, x.Data[i], want.Data[i])
			}
		}
		table := NewMat(p.m.Rows, c.dim)
		AddPositional(table)
		for i := range table.Data {
			if math.Float64bits(p.m.Data[i]) != math.Float64bits(table.Data[i]) {
				t.Fatalf("rows=%d dim=%d: table element %d = %v, formula gives %v", c.rows, c.dim, i, p.m.Data[i], table.Data[i])
			}
		}
	}
	if p.m.Rows != maxPosRows {
		t.Fatalf("table grew to %d rows, want the bound %d", p.m.Rows, maxPosRows)
	}

	// A shorter sequence reuses the longest table seen so far.
	var q posTable
	q.add(NewMat(56, 32))
	x := NewMat(40, 32)
	if allocs := testing.AllocsPerRun(20, func() { q.add(x) }); allocs != 0 {
		t.Fatalf("steady-state add allocates %.0f times per call", allocs)
	}
	if q.m.Rows != 56 {
		t.Fatalf("table has %d rows after sequences of 56 and 40, want 56", q.m.Rows)
	}
}

// TestBackwardAfterInferPanics: Infer and a query-pruned attention forward
// keep no training graph, so a backward pass after them must refuse loudly
// instead of propagating through mismatched caches.
func TestBackwardAfterInferPanics(t *testing.T) {
	mustPanic := func(name, want string, f func()) {
		t.Helper()
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, want) {
				t.Fatalf("%s: panic %q, want the guard's message containing %q", name, msg, want)
			}
		}()
		f()
	}
	r := sim.NewRand(12)
	enc := NewEncoder(EncoderConfig{Vocab: 10, Dim: 8, Heads: 2, Layers: 2}, r)
	rep := enc.Forward([]int{1, 2, 3})
	enc.Backward(rep) // a full forward is backward-able
	rep = enc.Infer([]int{1, 2, 3})
	mustPanic("Encoder.Backward after Infer", "Infer keeps no training graph", func() { enc.Backward(rep) })

	a := NewMHSA("t", 8, 2, r)
	y := a.Forward(randMat(r, 5, 8), 4)
	mustPanic("MHSA.Backward after a pruned Forward", "skipped query rows", func() { a.Backward(y) })
}
