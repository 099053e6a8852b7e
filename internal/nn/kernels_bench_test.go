package nn

import (
	"fmt"
	"math"
	"testing"

	"github.com/pythia-db/pythia/internal/sim"
)

// Kernel microbenchmarks at decoder-realistic shapes. The hot shape in
// training is the decoder head: a hidden activation (batch×hidden) against a
// hidden×pages weight with pages in the thousands. 64×64 @ 64×4096 mirrors
// that. Run with:
//
//	go test ./internal/nn -bench 'MatMul|Attention|TrainStep' -benchmem
//
// On a multi-core machine the parallel variants should approach
// min(threads, 8)× the serial rate at these shapes; on one core they match
// serial (the pool degrades to the serial schedule, and results are bitwise
// identical either way).

const (
	benchM = 64
	benchK = 64
	benchN = 4096
)

func benchMats(r *sim.Rand) (a, b, dst *Mat) {
	return randMat(r, benchM, benchK), randMat(r, benchK, benchN), NewMat(benchM, benchN)
}

func BenchmarkMatMul(b *testing.B) {
	r := sim.NewRand(1)
	x, w, dst := benchMats(r)
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			matMulBlock(dst, x, w, 0, x.Rows, 0, w.Cols)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		p := NewPool(0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.MatMulInto(dst, x, w)
		}
	})
}

func BenchmarkMatMulT1(b *testing.B) {
	r := sim.NewRand(2)
	x := randMat(r, benchK, benchM) // xᵀ @ dy: contraction over rows
	dy := randMat(r, benchK, benchN)
	dst := NewMat(benchM, benchN)
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			matMulT1Rows(dst, x, dy, 0, x.Cols)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		p := NewPool(0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.MatMulT1Into(dst, x, dy)
		}
	})
}

func BenchmarkMatMulT2(b *testing.B) {
	r := sim.NewRand(3)
	dy := randMat(r, benchM, benchN) // dy @ wᵀ: the input-gradient shape
	w := randMat(r, benchK, benchN)
	dst := NewMat(benchM, benchK)
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			matMulT2Block(dst, dy, w, 0, dy.Rows, 0, w.Rows)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		p := NewPool(0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.MatMulT2Into(dst, dy, w)
		}
	})
}

// BenchmarkMatMulShard locates the serial-vs-sharded crossover of
// MatMulInto at the shapes the server runs (contraction 32, the model
// width): serial runs the kernel on one goroutine, sharded forces the
// two-way fan-out MatMulInto would pick above parallelMinWork (row shards,
// or column shards for the single-row shapes). The work metric is the
// multiply-add count parallelMinWork is compared against. Run at -cpu 2.
func BenchmarkMatMulShard(b *testing.B) {
	const k = 32
	for _, rows := range []int{1, 56} {
		for _, cols := range []int{32, 128, 300} {
			r := sim.NewRand(8)
			x, w, dst := randMat(r, rows, k), randMat(r, k, cols), NewMat(rows, cols)
			shape := fmt.Sprintf("%dx%dx%d", rows, k, cols)
			work := float64(rows * k * cols)
			b.Run(shape+"/serial", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					matMulBlock(dst, x, w, 0, rows, 0, cols)
				}
				b.ReportMetric(work, "work")
			})
			b.Run(shape+"/sharded", func(b *testing.B) {
				p := NewPool(2)
				for i := 0; i < b.N; i++ {
					if rows >= 2 {
						p.shard(rows, math.MaxInt, func(lo, hi int) { matMulBlock(dst, x, w, lo, hi, 0, cols) })
					} else {
						p.shard(cols, math.MaxInt, func(lo, hi int) { matMulBlock(dst, x, w, 0, rows, lo, hi) })
					}
				}
				b.ReportMetric(work, "work")
			})
		}
	}
}

// BenchmarkAttention measures a full MHSA forward+backward at an
// encoder-realistic shape (sequence 64, the paper's Dim-100-ish width,
// 8 heads), serial vs head-parallel.
func BenchmarkAttention(b *testing.B) {
	run := func(b *testing.B, threads int) {
		r := sim.NewRand(4)
		a := NewMHSA("bench", 96, 8, r)
		rt := Runtime{Pool: NewPool(threads), Arena: NewArena()}
		a.SetRuntime(rt)
		x := randMat(r, 64, 96)
		dy := randMat(r, 64, 96)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rt.Arena.Release()
			a.Forward(x, 0)
			a.Backward(dy)
		}
	}
	b.Run("serial", func(b *testing.B) { run(b, 1) })
	b.Run("parallel", func(b *testing.B) { run(b, 0) })
}

// accumT1RowsNoSkip is a plain scalar dst += aᵀ @ b loop with no zero
// skip, the dense baseline for the sparse comparison below.
func accumT1RowsNoSkip(dst, a, b *Mat, ilo, ihi int) {
	for i := ilo; i < ihi; i++ {
		orow := dst.Row(i)
		for r := 0; r < a.Rows; r++ {
			av := a.Data[r*a.Cols+i]
			brow := b.Row(r)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// BenchmarkAccumT1Sparse justifies keeping the skip in AccumT1Into: the
// activation feeding the decoder-head weight gradient is ReLU output, where
// roughly half the entries are exactly zero, and each skipped entry drops
// its b row from every column strip of the output row.
func BenchmarkAccumT1Sparse(b *testing.B) {
	r := sim.NewRand(6)
	x := randMat(r, benchK, benchM)
	for i := range x.Data {
		if x.Data[i] < 0 { // ReLU-like: about half exactly zero
			x.Data[i] = 0
		}
	}
	dy := randMat(r, benchK, benchN)
	dst := NewMat(benchM, benchN)
	b.Run("skip", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			accumT1Rows(dst, x, dy, 0, x.Cols)
		}
	})
	b.Run("noskip", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			accumT1RowsNoSkip(dst, x, dy, 0, x.Cols)
		}
	})
}

// BenchmarkTrainStep measures one full encoder+decoder forward/backward at
// a model-realistic size, with and without the scratch arena. The arena
// variant should report ~0 allocs/op against hundreds for the heap variant —
// the zero-alloc claim of the training hot path.
func BenchmarkTrainStep(b *testing.B) {
	run := func(b *testing.B, rt Runtime) {
		r := sim.NewRand(7)
		enc := NewEncoder(EncoderConfig{Vocab: 64, Dim: 32, Heads: 4, Layers: 2}, r)
		dec := NewDecoder("d", 32, 64, 2048, r)
		enc.SetRuntime(rt)
		dec.SetRuntime(rt)
		bce := BCEWithLogits{Sum: true, Scratch: rt.Arena}
		targets := make([]float64, 2048)
		for i := 0; i < len(targets); i += 7 {
			targets[i] = 1
		}
		ids := []int{3, 17, 4, 9, 22, 1, 5, 12, 40, 2, 33, 8}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rt.Arena.Release()
			rep := enc.Forward(ids)
			logits := dec.Forward(rep)
			_, dLogits := bce.Loss(logits, targets)
			enc.Backward(dec.Backward(dLogits))
		}
	}
	b.Run("heap", func(b *testing.B) { run(b, Runtime{}) })
	b.Run("arena", func(b *testing.B) { run(b, Runtime{Pool: NewPool(1), Arena: NewArena()}) })
	b.Run("arena-parallel", func(b *testing.B) { run(b, Runtime{Pool: NewPool(0), Arena: NewArena()}) })
}
