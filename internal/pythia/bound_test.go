package pythia

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

// endlessReader yields 0xAA and counts what it handed out. It stops after
// 64 MiB, far past any bound under test, so an unbounded read fails the
// assertions below instead of hanging the test.
type endlessReader struct{ n int64 }

func (r *endlessReader) Read(p []byte) (int, error) {
	if r.n >= 64<<20 {
		return 0, io.EOF
	}
	for i := range p {
		p[i] = 0xAA
	}
	r.n += int64(len(p))
	return len(p), nil
}

// headerThenEndless is a snapshot header declaring declared payload bytes,
// followed by an endless stream.
func headerThenEndless(declared uint64) (io.Reader, *endlessReader) {
	hdr := append([]byte{}, snapMagic[:]...)
	hdr = binary.BigEndian.AppendUint64(hdr, declared)
	tail := &endlessReader{}
	return io.MultiReader(bytes.NewReader(hdr), tail), tail
}

// allocatedBy reports the bytes f allocated on the heap.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSnapshotReadsAreBounded: a header declaring more than MaxSnapshotBytes
// is rejected before one payload byte is read, and a header followed by an
// endless stream is read only up to its declared length (plus one byte to
// detect the overrun). Both surface ErrSnapshotCorrupt, on LoadSystem and on
// ReadSnapshot (the serve pool's swap path), and neither allocates more
// than the declared length allows.
func TestSnapshotReadsAreBounded(t *testing.T) {
	s, _ := testSystem(t)
	readers := map[string]func(io.Reader) error{
		"LoadSystem": func(r io.Reader) error {
			_, err := LoadSystem(s.DB, s.Config(), r)
			return err
		},
		"ReadSnapshot": func(r io.Reader) error {
			_, err := ReadSnapshot(r)
			return err
		},
	}
	const slack = 64 << 10 // the read buffer's first allocation and test plumbing
	for name, read := range readers {
		r, tail := headerThenEndless(1 << 40)
		var err error
		alloc := allocatedBy(func() { err = read(r) })
		if !errors.Is(err, ErrSnapshotCorrupt) {
			t.Errorf("%s, header declaring 2^40 bytes: %v, want ErrSnapshotCorrupt", name, err)
		}
		if tail.n != 0 {
			t.Errorf("%s, header declaring 2^40 bytes: read %d payload bytes before rejecting", name, tail.n)
		}
		if alloc > slack {
			t.Errorf("%s, header declaring 2^40 bytes: allocated %d bytes", name, alloc)
		}

		const declared = 1 << 20
		r, tail = headerThenEndless(declared)
		alloc = allocatedBy(func() { err = read(r) })
		if !errors.Is(err, ErrSnapshotCorrupt) {
			t.Errorf("%s, endless stream: %v, want ErrSnapshotCorrupt", name, err)
		}
		// Payload, 4-byte footer and the one byte that proves the overrun.
		if limit := int64(declared + 4 + 1); tail.n > limit {
			t.Errorf("%s, endless stream: consumed %d bytes, limit %d", name, tail.n, limit)
		}
		// The buffer grows by doubling, so everything it ever allocated sums
		// to under four times its final size.
		if bound := uint64(4*declared + slack); alloc > bound {
			t.Errorf("%s, endless stream: allocated %d bytes, bound %d", name, alloc, bound)
		}
	}
}
