package nn

import "fmt"

// Destination-passing compute kernels. Each kernel writes into a
// caller-supplied matrix (usually from an Arena) instead of allocating, and
// each has a range form that computes only the output elements in its
// range — the unit the Pool shards across workers. a @ b and a @ bᵀ take a
// row range and a column range, so the row-sharded and the column-sharded
// routes run the same kernel body.
//
// Register blocking: the kernels keep each output element's running sum in
// a register for the whole contraction instead of loading and storing dst
// on every multiply-add.
//
//   - a @ b (matMulBlock) and aᵀ @ b (matMulT1Rows) use a 2-row × 4-column
//     tile: eight accumulators, two a values and four b values per step of
//     the contraction, sized for 14 of amd64's 16 XMM registers.
//     matMulBlock walks the contraction in passes of at most kBlock rows.
//   - a @ bᵀ (matMulT2Block) runs four dot products (four b rows) per pass
//     of the a row.
//   - dst += aᵀ @ b (accumT1Rows) first lists the nonzero entries of column
//     i of a, then runs 8-wide accumulator strips over that list only.
//   - Scalar tails cover the rows and columns a tile does not fill.
//
// Bounds checks are hoisted by re-slicing (s[p:p+4:p+4], b = b[:len(a)]),
// which leaves one or two checks per contraction step instead of one per
// load.
//
// Exactness: every output element has exactly one accumulator. It starts
// at 0 (or, for the in-place AccumT1Into, at the element's current value),
// and the contraction index is added in ascending order, one rounded
// multiply and one rounded add per term. That is the per-element sequence
// of the naive triple loop, so blocking changes which register holds a sum,
// never its bits; TestKernelsMatchNaiveReference checks this against
// independent loops. (A sum that parks in dst between matMulBlock's
// kBlock-long passes is the same accumulator: a float64 store and reload
// are exact.) The rule forbids the usual faster tricks: seeding the
// accumulator with the bias or with dst's previous contents (the adds would
// happen in a different order), splitting K into partial sums that are
// added at the end, math.FMA (one rounding instead of two), and float32.
// Builds at the default GOAMD64=v1 emit no fused multiply-add; at v3 the
// compiler may fuse s += x*y, which would change every kernel and its
// references alike.
//
// Sharding keeps the same contract: every output element is owned by
// exactly one shard, so it changes which goroutine computes an element,
// never its bit pattern (see the golden tests in pool_test.go).
//
// The dense kernels carry no zero-skip branch: post-embedding activations
// are dense, no matmul call site in the model feeds one-hot rows, and a
// tile can only skip a contraction step when every row of the tile is zero
// there. The one place exact zeros are common — ReLU outputs feeding a
// weight-gradient accumulation — keeps its skip in AccumT1Into
// (BenchmarkAccumT1Sparse).

// dstCheck panics when dst does not have the required shape.
func dstCheck(dst *Mat, rows, cols int, op string) {
	if dst.Rows != rows || dst.Cols != cols {
		panic(fmt.Sprintf("nn: %s dst shape %dx%d, want %dx%d", op, dst.Rows, dst.Cols, rows, cols))
	}
}

// serial reports whether a kernel of roughly work scalar ops should skip the
// fan-out entirely. Every Pool method checks this *before* constructing its
// shard closure: a func literal is heap-allocated at the point it appears,
// so keeping it out of the serial path is what makes steady-state training
// steps allocation-free at Threads=1 (TestArenaSteadyStateAllocs).
func (p *Pool) serial(work int) bool {
	return p.Threads() <= 1 || work < parallelMinWork
}

// MatMulInto computes dst = a @ b. dst must not alias a or b.
func (p *Pool) MatMulInto(dst, a, b *Mat) {
	shapeCheck(a.Cols == b.Rows, "matmul", a, b)
	dstCheck(dst, a.Rows, b.Cols, "matmul")
	work := a.Rows * a.Cols * b.Cols
	if p.serial(work) {
		matMulBlock(dst, a, b, 0, a.Rows, 0, b.Cols)
		return
	}
	// Row-shard when there are enough output rows to feed every worker;
	// otherwise (e.g. the decoder's 1×D @ D×pages layer) shard the output
	// columns. Both preserve the per-element k-ascending accumulation
	// order, so the choice affects speed only.
	if a.Rows >= p.Threads() || a.Rows >= b.Cols {
		p.shard(a.Rows, work, func(lo, hi int) { matMulBlock(dst, a, b, lo, hi, 0, b.Cols) })
	} else {
		p.shard(b.Cols, work, func(lo, hi int) { matMulBlock(dst, a, b, 0, a.Rows, lo, hi) })
	}
}

// kBlock is the longest contraction matMulBlock walks in one pass. A pass
// reads a 4-wide strip of b down kBlock rows, and the next strip reads the
// other halves of the same cache lines; 128 rows of lines stay in L1 until
// then, while an 800-row walk at the paper's decoder width does not and
// fetches every line twice. Every served shape has K ≤ 128 and runs in one
// pass.
const kBlock = 128

// matMulBlock computes the output rows [ilo, ihi) × columns [jlo, jhi) of
// a @ b. The micro-kernel holds a 2-row × 4-column output tile in eight
// accumulators while k walks the contraction: per k it loads two a values
// and one 4-wide strip of b row k, and does eight multiply-adds with no
// load or store of dst. Column strips are the outer loop so the K×4 b strip
// stays in L1 across every row pair. A contraction longer than kBlock runs
// in kBlock-long passes; between passes each running sum parks in its dst
// element, and a float64 store and reload are exact, so it is still one
// accumulator per element, resumed, not a partial sum.
//
//pythia:noalloc
func matMulBlock(dst, a, b *Mat, ilo, ihi, jlo, jhi int) {
	n, bd := b.Cols, b.Data
	for k0 := 0; k0 == 0 || k0 < a.Cols; k0 += kBlock {
		k1 := min(k0+kBlock, a.Cols)
		resume := k0 > 0
		j := jlo
		for ; j+4 <= jhi; j += 4 {
			i := ilo
			for ; i+2 <= ihi; i += 2 {
				a0 := a.Row(i)[k0:k1]
				a1 := a.Row(i + 1)[k0:k1]
				a1 = a1[:len(a0)]
				o0 := dst.Data[i*n+j : i*n+j+4 : i*n+j+4]
				o1 := dst.Data[(i+1)*n+j : (i+1)*n+j+4 : (i+1)*n+j+4]
				var s00, s01, s02, s03, s10, s11, s12, s13 float64
				if resume {
					s00, s01, s02, s03 = o0[0], o0[1], o0[2], o0[3]
					s10, s11, s12, s13 = o1[0], o1[1], o1[2], o1[3]
				}
				p := k0*n + j
				for k, x0 := range a0 {
					x1 := a1[k]
					w := bd[p : p+4 : p+4]
					p += n
					s00 += x0 * w[0]
					s10 += x1 * w[0]
					s01 += x0 * w[1]
					s11 += x1 * w[1]
					s02 += x0 * w[2]
					s12 += x1 * w[2]
					s03 += x0 * w[3]
					s13 += x1 * w[3]
				}
				o0[0], o0[1], o0[2], o0[3] = s00, s01, s02, s03
				o1[0], o1[1], o1[2], o1[3] = s10, s11, s12, s13
			}
			if i < ihi {
				o := dst.Data[i*n+j : i*n+j+4 : i*n+j+4]
				var s0, s1, s2, s3 float64
				if resume {
					s0, s1, s2, s3 = o[0], o[1], o[2], o[3]
				}
				p := k0*n + j
				for _, x := range a.Row(i)[k0:k1] {
					w := bd[p : p+4 : p+4]
					p += n
					s0 += x * w[0]
					s1 += x * w[1]
					s2 += x * w[2]
					s3 += x * w[3]
				}
				o[0], o[1], o[2], o[3] = s0, s1, s2, s3
			}
		}
		for ; j < jhi; j++ {
			for i := ilo; i < ihi; i++ {
				s := 0.0
				if resume {
					s = dst.Data[i*n+j]
				}
				p := k0*n + j
				for _, x := range a.Row(i)[k0:k1] {
					s += x * bd[p]
					p += n
				}
				dst.Data[i*n+j] = s
			}
		}
	}
}

// MatMulT1Into computes dst = aᵀ @ b (weight-gradient shape: dW = Xᵀ dY).
// Restructured from the serial r-outer loop so that each *output* row i
// (column i of a) is owned by exactly one worker; the contraction still
// runs r-ascending per element, so results match MatMulT1 bitwise.
func (p *Pool) MatMulT1Into(dst, a, b *Mat) {
	shapeCheck(a.Rows == b.Rows, "matmulT1", a, b)
	dstCheck(dst, a.Cols, b.Cols, "matmulT1")
	work := a.Rows * a.Cols * b.Cols
	if p.serial(work) {
		matMulT1Rows(dst, a, b, 0, a.Cols)
		return
	}
	p.shard(a.Cols, work, func(lo, hi int) { matMulT1Rows(dst, a, b, lo, hi) })
}

// matMulT1Rows computes output rows [ilo, ihi) of aᵀ @ b with the same
// 2×4 register tile as matMulBlock: output rows i and i+1 are adjacent
// columns of a, so per r it loads a[r][i:i+2] and a 4-wide strip of b row r.
// It is a separate body because a is read down its columns; one body with
// the a strides as parameters cost a @ b 10–20% at the served shapes.
//
//pythia:noalloc
func matMulT1Rows(dst, a, b *Mat, ilo, ihi int) {
	m, n := a.Cols, b.Cols
	ad, bd := a.Data, b.Data
	j := 0
	for ; j+4 <= n; j += 4 {
		i := ilo
		for ; i+2 <= ihi; i += 2 {
			var s00, s01, s02, s03, s10, s11, s12, s13 float64
			q, p := i, j
			for r := 0; r < a.Rows; r++ {
				x0, x1 := ad[q], ad[q+1]
				w := bd[p : p+4 : p+4]
				q += m
				p += n
				s00 += x0 * w[0]
				s10 += x1 * w[0]
				s01 += x0 * w[1]
				s11 += x1 * w[1]
				s02 += x0 * w[2]
				s12 += x1 * w[2]
				s03 += x0 * w[3]
				s13 += x1 * w[3]
			}
			o := dst.Data[i*n+j : i*n+j+4 : i*n+j+4]
			o[0], o[1], o[2], o[3] = s00, s01, s02, s03
			o = dst.Data[(i+1)*n+j : (i+1)*n+j+4 : (i+1)*n+j+4]
			o[0], o[1], o[2], o[3] = s10, s11, s12, s13
		}
		if i < ihi {
			var s0, s1, s2, s3 float64
			q, p := i, j
			for r := 0; r < a.Rows; r++ {
				x := ad[q]
				w := bd[p : p+4 : p+4]
				q += m
				p += n
				s0 += x * w[0]
				s1 += x * w[1]
				s2 += x * w[2]
				s3 += x * w[3]
			}
			o := dst.Data[i*n+j : i*n+j+4 : i*n+j+4]
			o[0], o[1], o[2], o[3] = s0, s1, s2, s3
		}
	}
	for ; j < n; j++ {
		for i := ilo; i < ihi; i++ {
			s := 0.0
			q, p := i, j
			for r := 0; r < a.Rows; r++ {
				s += ad[q] * bd[p]
				q += m
				p += n
			}
			dst.Data[i*n+j] = s
		}
	}
}

// AccumT1Into computes dst += aᵀ @ b without clearing dst — the in-place
// weight-gradient accumulation (dW += Xᵀ dY). Rows of dst are owned by one
// worker each, like MatMulT1Into. The zero-skip stays here on purpose: a is
// an activation matrix that is ReLU output at the decoder and FFN second
// layers, where roughly half the entries are exactly zero, and dropping a
// zero's b row from every column strip is a measured win
// (BenchmarkAccumT1Sparse) that costs little on dense inputs.
func (p *Pool) AccumT1Into(dst, a, b *Mat) {
	shapeCheck(a.Rows == b.Rows, "accumT1", a, b)
	dstCheck(dst, a.Cols, b.Cols, "accumT1")
	work := a.Rows * a.Cols * b.Cols
	if p.serial(work) {
		accumT1Rows(dst, a, b, 0, a.Cols)
		return
	}
	p.shard(a.Cols, work, func(lo, hi int) { accumT1Rows(dst, a, b, lo, hi) })
}

// accumT1Rows adds output rows [ilo, ihi) of aᵀ @ b into dst. For each
// output row i it lists the nonzero entries of column i of a with their b
// row offsets (in chunks of up to 256 contraction rows, on the stack), then
// walks 8-wide column strips over that list, so a zero entry skips its b
// row for every strip and the strips need no branch. Each element's
// accumulator starts from its current dst value and adds the nonzero terms
// in ascending r, exactly like the scalar loop with an av == 0 skip.
//
//pythia:noalloc
func accumT1Rows(dst, a, b *Mat, ilo, ihi int) {
	m, n := a.Cols, b.Cols
	var offs [256]int
	var xs [256]float64
	for i := ilo; i < ihi; i++ {
		for r0 := 0; r0 < a.Rows; r0 += len(offs) {
			nz := 0
			for r, q := r0, r0*m+i; r < a.Rows && r < r0+len(offs); r, q = r+1, q+m {
				if x := a.Data[q]; x != 0 {
					offs[nz], xs[nz] = r*n, x
					nz++
				}
			}
			idx, vals := offs[:nz], xs[:nz]
			j := 0
			for ; j+8 <= n; j += 8 {
				o := dst.Data[i*n+j : i*n+j+8 : i*n+j+8]
				s0, s1, s2, s3, s4, s5, s6, s7 := o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7]
				for t, off := range idx {
					x := vals[t]
					p := off + j
					w := b.Data[p : p+8 : p+8]
					s0 += x * w[0]
					s1 += x * w[1]
					s2 += x * w[2]
					s3 += x * w[3]
					s4 += x * w[4]
					s5 += x * w[5]
					s6 += x * w[6]
					s7 += x * w[7]
				}
				o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = s0, s1, s2, s3, s4, s5, s6, s7
			}
			for ; j < n; j++ {
				s := dst.Data[i*n+j]
				for t, off := range idx {
					s += vals[t] * b.Data[off+j]
				}
				dst.Data[i*n+j] = s
			}
		}
	}
}

// MatMulT2Into computes dst = a @ bᵀ (input-gradient shape: dX = dY Wᵀ).
func (p *Pool) MatMulT2Into(dst, a, b *Mat) {
	shapeCheck(a.Cols == b.Cols, "matmulT2", a, b)
	dstCheck(dst, a.Rows, b.Rows, "matmulT2")
	work := a.Rows * a.Cols * b.Rows
	if p.serial(work) {
		matMulT2Block(dst, a, b, 0, a.Rows, 0, b.Rows)
		return
	}
	if a.Rows >= p.Threads() || a.Rows >= b.Rows {
		p.shard(a.Rows, work, func(lo, hi int) { matMulT2Block(dst, a, b, lo, hi, 0, b.Rows) })
	} else {
		p.shard(b.Rows, work, func(lo, hi int) { matMulT2Block(dst, a, b, 0, a.Rows, lo, hi) })
	}
}

// matMulT2Block computes the output rows [ilo, ihi) × columns [jlo, jhi)
// of a @ bᵀ. Every output element is a dot product of two contiguous rows;
// the micro-kernel runs four of them (b rows j..j+3) per pass of the a row,
// so each a value is loaded once per four multiply-adds.
//
//pythia:noalloc
func matMulT2Block(dst, a, b *Mat, ilo, ihi, jlo, jhi int) {
	for i := ilo; i < ihi; i++ {
		x := a.Row(i)
		o := dst.Row(i)
		j := jlo
		for ; j+4 <= jhi; j += 4 {
			b0 := b.Row(j)[:len(x)]
			b1 := b.Row(j + 1)[:len(x)]
			b2 := b.Row(j + 2)[:len(x)]
			b3 := b.Row(j + 3)[:len(x)]
			var s0, s1, s2, s3 float64
			for k, v := range x {
				s0 += v * b0[k]
				s1 += v * b1[k]
				s2 += v * b2[k]
				s3 += v * b3[k]
			}
			w := o[j : j+4 : j+4]
			w[0], w[1], w[2], w[3] = s0, s1, s2, s3
		}
		for ; j < jhi; j++ {
			y := b.Row(j)[:len(x)]
			s := 0.0
			for k, v := range x {
				s += v * y[k]
			}
			o[j] = s
		}
	}
}

// AddInto computes dst = a + b element-wise. Elements are owned, not
// accumulated, so any sharding is trivially deterministic.
func (p *Pool) AddInto(dst, a, b *Mat) {
	shapeCheck(a.Rows == b.Rows && a.Cols == b.Cols, "add", a, b)
	dstCheck(dst, a.Rows, a.Cols, "add")
	if p.serial(len(a.Data)) {
		addRange(dst, a, b, 0, len(a.Data))
		return
	}
	p.shard(len(a.Data), len(a.Data), func(lo, hi int) { addRange(dst, a, b, lo, hi) })
}

//pythia:noalloc
func addRange(dst, a, b *Mat, lo, hi int) {
	da, db, dd := a.Data[lo:hi], b.Data[lo:hi], dst.Data[lo:hi]
	for i := range dd {
		dd[i] = da[i] + db[i]
	}
}

// AddInPlace accumulates b into a.
func (p *Pool) AddInPlace(a, b *Mat) {
	shapeCheck(a.Rows == b.Rows && a.Cols == b.Cols, "add", a, b)
	if p.serial(len(a.Data)) {
		accumRange(a, b, 0, len(a.Data))
		return
	}
	p.shard(len(a.Data), len(a.Data), func(lo, hi int) { accumRange(a, b, lo, hi) })
}

//pythia:noalloc
func accumRange(a, b *Mat, lo, hi int) {
	da, db := a.Data[lo:hi], b.Data[lo:hi]
	for i := range db {
		da[i] += db[i]
	}
}

// SoftmaxRows applies a numerically stable softmax to each row of m in
// place, sharding rows across the pool (rows are independent).
func (p *Pool) SoftmaxRows(m *Mat) {
	if p.serial(len(m.Data) * 4) {
		softmaxRowRange(m, 0, m.Rows)
		return
	}
	p.shard(m.Rows, len(m.Data)*4, func(lo, hi int) { softmaxRowRange(m, lo, hi) })
}

//pythia:noalloc
func softmaxRowRange(m *Mat, lo, hi int) {
	for i := lo; i < hi; i++ {
		softmaxRow(m.Row(i))
	}
}
