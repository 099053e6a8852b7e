package nn

import (
	"math"
	"testing"

	"github.com/pythia-db/pythia/internal/sim"
)

// quantize a random activation matrix for kernel tests.
func quantFixture(r *sim.Rand, rows, k int) (*Mat, []int8, []float64) {
	x := randMat(r, rows, k)
	qx := make([]int8, rows*k)
	scales := make([]float64, rows)
	QuantizeRows(x, qx, scales)
	return x, qx, scales
}

// TestMatMulQ8MatchesSerialBitwise: the pooled int8 kernel must agree with
// the serial reference bit for bit at every thread count — integer
// accumulation makes this exact, not approximate.
func TestMatMulQ8MatchesSerialBitwise(t *testing.T) {
	for _, threads := range []int{2, 3, 7, 16} {
		p := NewPool(threads)
		r := sim.NewRand(uint64(threads) + 100)
		for _, s := range kernelShapes {
			_, qa, scales := quantFixture(r, s.m, s.k)
			b := QuantizeMat(randMat(r, s.k, s.n))
			got := NewMat(s.m, s.n)
			p.MatMulQ8Into(got, qa, scales, s.m, b)
			bitwiseEq(t, "MatMulQ8Into", got, MatMulQ8(qa, scales, s.m, b))
		}
	}
}

// TestQuantizedMatMulApproximatesFloat pins the dequantization error of the
// full int8 pipeline (quantized activations × quantized weights) against
// the float kernel: per-tensor symmetric int8 keeps each operand within
// 1/254 of its max magnitude, so the dot-product error stays well under 2%
// of the output scale for the shapes the model uses.
func TestQuantizedMatMulApproximatesFloat(t *testing.T) {
	r := sim.NewRand(42)
	for _, s := range kernelShapes {
		a := randMat(r, s.m, s.k)
		bw := randMat(r, s.k, s.n)
		want := MatMul(a, bw)

		qa := make([]int8, s.m*s.k)
		scales := make([]float64, s.m)
		QuantizeRows(a, qa, scales)
		got := MatMulQ8(qa, scales, s.m, QuantizeMat(bw))

		// Bound the error relative to the largest output magnitude.
		maxOut := 0.0
		for _, v := range want.Data {
			if m := math.Abs(v); m > maxOut {
				maxOut = m
			}
		}
		for i := range want.Data {
			if err := math.Abs(got.Data[i] - want.Data[i]); err > 0.02*maxOut {
				t.Fatalf("shape %dx%dx%d element %d: int8 %v vs float %v (err %v > 2%% of %v)",
					s.m, s.k, s.n, i, got.Data[i], want.Data[i], err, maxOut)
			}
		}
	}
}

// TestQuantizeMatRoundTrip: dequantizing every weight must land within half
// a quantization step of the original.
func TestQuantizeMatRoundTrip(t *testing.T) {
	r := sim.NewRand(7)
	m := randMat(r, 13, 17)
	q := QuantizeMat(m)
	if q.K != m.Rows || q.N != m.Cols {
		t.Fatalf("QuantMat shape %dx%d, want %dx%d", q.K, q.N, m.Rows, m.Cols)
	}
	for rr := 0; rr < m.Rows; rr++ {
		for c := 0; c < m.Cols; c++ {
			deq := float64(q.Q[c*q.K+rr]) * q.Scale
			if err := math.Abs(deq - m.Data[rr*m.Cols+c]); err > q.Scale/2+1e-12 {
				t.Fatalf("weight (%d,%d): dequant %v vs %v, err %v > step/2 %v",
					rr, c, deq, m.Data[rr*m.Cols+c], err, q.Scale/2)
			}
		}
	}
}

// TestQuantizeZeroInputs: all-zero weights and all-zero activation rows
// must produce exactly zero output, not NaN from a zero scale.
func TestQuantizeZeroInputs(t *testing.T) {
	zw := QuantizeMat(NewMat(5, 4))
	if zw.Scale != 1 {
		t.Fatalf("all-zero weight scale = %v, want 1", zw.Scale)
	}
	x := NewMat(2, 5) // all-zero rows
	qx := make([]int8, 10)
	scales := []float64{99, 99}
	QuantizeRows(x, qx, scales)
	if scales[0] != 0 || scales[1] != 0 {
		t.Fatalf("zero-row scales = %v, want zeros", scales)
	}
	out := MatMulQ8(qx, scales, 2, zw)
	for i, v := range out.Data {
		if v != 0 {
			t.Fatalf("zero×zero output element %d = %v, want 0", i, v)
		}
	}
}

// TestLinearQuantizedForward: a quantized layer must keep Forward close to
// the float layer and refuse Backward.
func TestLinearQuantizedForward(t *testing.T) {
	r := sim.NewRand(11)
	l := NewLinear("q", 24, 40, r)
	for i := range l.Bias.W.Data {
		l.Bias.W.Data[i] = r.NormFloat64()
	}
	x := randMat(r, 3, 24)
	want := l.Forward(x)
	if l.Quantized() {
		t.Fatal("layer quantized before Quantize call")
	}

	l.Quantize()
	if !l.Quantized() {
		t.Fatal("Quantized() false after Quantize")
	}
	got := l.Forward(x)
	maxOut := 0.0
	for _, v := range want.Data {
		if m := math.Abs(v); m > maxOut {
			maxOut = m
		}
	}
	for i := range want.Data {
		if err := math.Abs(got.Data[i] - want.Data[i]); err > 0.02*maxOut {
			t.Fatalf("element %d: quantized %v vs float %v", i, got.Data[i], want.Data[i])
		}
	}

	defer func() {
		if recover() == nil {
			t.Fatal("Backward on quantized layer did not panic")
		}
	}()
	l.Backward(NewMat(3, 40))
}

// Kernel-level comparison at the inference hot shape (1×hidden @
// hidden×pages, the decoder output layer).
func benchQuantOperands(rows int) (x *Mat, qx []int8, scales []float64, w *Mat, qw *QuantMat, dst *Mat) {
	r := sim.NewRand(4)
	const k, n = 512, 4000
	x = randMat(r, rows, k)
	w = randMat(r, k, n)
	qw = QuantizeMat(w)
	qx = make([]int8, rows*k)
	scales = make([]float64, rows)
	QuantizeRows(x, qx, scales)
	return x, qx, scales, w, qw, NewMat(rows, n)
}

func BenchmarkMatMulQ8(b *testing.B) {
	x, qx, scales, w, qw, dst := benchQuantOperands(1)
	b.Run("float-serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			matMulBlock(dst, x, w, 0, x.Rows, 0, w.Cols)
		}
	})
	b.Run("q8-serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			matMulQ8Block(dst, qx, scales, qw, 0, x.Rows, 0, qw.N)
		}
	})
}
