package nn

import (
	"fmt"
	"math"
	"testing"

	"github.com/pythia-db/pythia/internal/sim"
)

// The naive references below are deliberately independent of kernels.go:
// plain triple loops with one accumulator per output element that starts
// at 0 (or at dst, for the in-place accumulation) and adds the contraction
// terms with k ascending. They are the definition of the kernels' result,
// so a kernel that regroups, splits or reorders the accumulation fails
// TestKernelsMatchNaiveReference even when every thread count agrees with
// every other.

func naiveMatMul(a, b *Mat) *Mat {
	out := NewMat(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			s := 0.0
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func naiveMatMulT1(a, b *Mat) *Mat {
	out := NewMat(a.Cols, b.Cols)
	for i := 0; i < a.Cols; i++ {
		for j := 0; j < b.Cols; j++ {
			s := 0.0
			for r := 0; r < a.Rows; r++ {
				s += a.At(r, i) * b.At(r, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func naiveMatMulT2(a, b *Mat) *Mat {
	out := NewMat(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			s := 0.0
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(j, k)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// naiveAccumT1 is dst += aᵀ @ b with AccumT1Into's contract: terms whose a
// entry is exactly zero are skipped, the rest are added to the element's
// current value in ascending r.
func naiveAccumT1(dst, a, b *Mat) {
	for i := 0; i < a.Cols; i++ {
		for j := 0; j < b.Cols; j++ {
			s := dst.At(i, j)
			for r := 0; r < a.Rows; r++ {
				if av := a.At(r, i); av != 0 {
					s += av * b.At(r, j)
				}
			}
			dst.Set(i, j, s)
		}
	}
}

// signedZeroMat is a random matrix with some entries replaced by -0 and +0:
// a kernel that seeds an accumulator with its first product instead of 0
// turns an all-(-0) sum into -0 where the reference gives +0.
func signedZeroMat(r *sim.Rand, rows, cols int) *Mat {
	m := randMat(r, rows, cols)
	for i := range m.Data {
		switch i % 7 {
		case 2:
			m.Data[i] = math.Copysign(0, -1)
		case 5:
			m.Data[i] = 0
		}
	}
	return m
}

// reluMat is a ReLU-style activation: negatives clamped to exact zero, plus
// the odd -0, so about half of AccumT1Into's terms take the skip.
func reluMat(r *sim.Rand, rows, cols int) *Mat {
	m := signedZeroMat(r, rows, cols)
	for i, v := range m.Data {
		if v < 0 {
			m.Data[i] = 0
		}
	}
	return m
}

// bitsEq fails unless got and want are identical bit patterns, so -0 and +0
// (and NaN payloads) count as different.
func bitsEq(t *testing.T, op string, got, want *Mat) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", op, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element (%d,%d) = %v, want %v (bitwise)", op, i/want.Cols, i%want.Cols, got.Data[i], want.Data[i])
		}
	}
}

// TestKernelsMatchNaiveReference checks all four matmul forms against the
// naive references, bit for bit, at shapes that exercise every tile and
// tail of the register-blocked kernels. Each form runs through its public
// Pool.*Into entry at Threads 1, 2 and 3 (which picks serial, row-sharded or
// column-sharded by shape), and the range kernels also run on forced row
// and column shards at every shape, since the serial cutoff keeps small
// shapes off the sharded routes in the public entries. k = 300 crosses two
// kBlock pass boundaries of matMulBlock and one 256-row chunk of
// accumT1Rows' nonzero list.
func TestKernelsMatchNaiveReference(t *testing.T) {
	r := sim.NewRand(13)
	for _, m := range []int{1, 2, 3, 5, 56} {
		for _, k := range []int{1, 3, 8, 32, 128, 300} {
			for _, n := range []int{1, 3, 4, 7, 8, 32, 300} {
				a, b := signedZeroMat(r, m, k), signedZeroMat(r, k, n)
				wantMM := naiveMatMul(a, b)
				at, bt := signedZeroMat(r, k, m), signedZeroMat(r, k, n)
				wantT1 := naiveMatMulT1(at, bt)
				c, d := signedZeroMat(r, m, k), signedZeroMat(r, n, k)
				wantT2 := naiveMatMulT2(c, d)
				x, dy := reluMat(r, k, m), signedZeroMat(r, k, n)
				start := signedZeroMat(r, m, n)
				wantAcc := start.Clone()
				naiveAccumT1(wantAcc, x, dy)

				for _, threads := range []int{1, 2, 3} {
					p := NewPool(threads)
					tag := func(op string) string { return fmt.Sprintf("%s %dx%dx%d threads=%d", op, m, k, n, threads) }

					got := NewMat(m, n)
					p.MatMulInto(got, a, b)
					bitsEq(t, tag("MatMulInto"), got, wantMM)
					got = NewMat(m, n)
					p.MatMulT1Into(got, at, bt)
					bitsEq(t, tag("MatMulT1Into"), got, wantT1)
					got = NewMat(m, n)
					p.MatMulT2Into(got, c, d)
					bitsEq(t, tag("MatMulT2Into"), got, wantT2)
					got = start.Clone()
					p.AccumT1Into(got, x, dy)
					bitsEq(t, tag("AccumT1Into"), got, wantAcc)

					// Forced routes: shard with a work estimate far above
					// parallelMinWork so every shape really fans out.
					const force = 1 << 30
					got = NewMat(m, n)
					p.shard(m, force, func(lo, hi int) { matMulBlock(got, a, b, lo, hi, 0, n) })
					bitsEq(t, tag("matMulBlock rows"), got, wantMM)
					got = NewMat(m, n)
					p.shard(n, force, func(lo, hi int) { matMulBlock(got, a, b, 0, m, lo, hi) })
					bitsEq(t, tag("matMulBlock cols"), got, wantMM)
					got = NewMat(m, n)
					p.shard(m, force, func(lo, hi int) { matMulT1Rows(got, at, bt, lo, hi) })
					bitsEq(t, tag("matMulT1Rows rows"), got, wantT1)
					got = NewMat(m, n)
					p.shard(m, force, func(lo, hi int) { matMulT2Block(got, c, d, lo, hi, 0, n) })
					bitsEq(t, tag("matMulT2Block rows"), got, wantT2)
					got = NewMat(m, n)
					p.shard(n, force, func(lo, hi int) { matMulT2Block(got, c, d, 0, m, lo, hi) })
					bitsEq(t, tag("matMulT2Block cols"), got, wantT2)
					got = start.Clone()
					p.shard(m, force, func(lo, hi int) { accumT1Rows(got, x, dy, lo, hi) })
					bitsEq(t, tag("accumT1Rows rows"), got, wantAcc)
				}
			}
		}
	}
}
