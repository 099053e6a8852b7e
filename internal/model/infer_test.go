package model

import (
	"math"
	"testing"

	"github.com/pythia-db/pythia/internal/nn"
	"github.com/pythia-db/pythia/internal/storage"
)

// TestInferLastRowExact pins the inference path's last-row pruning: the
// representation Infer returns must equal, bit for bit, the last row of the
// full training Forward, and Scores (which runs Infer) must equal the
// probabilities of the full forward — for short and long sequences, serial
// and parallel kernels, float and int8 models.
func TestInferLastRowExact(t *testing.T) {
	const vocab = 12
	labels := make([]storage.PageID, 20)
	for i := range labels {
		labels[i] = pg(1, uint32(i))
	}
	for _, quantize := range []bool{false, true} {
		for _, threads := range []int{1, max(2, nn.DefaultThreads())} {
			cfg := DefaultConfig()
			cfg.Threads = threads
			m := New(vocab, labels, cfg)
			if quantize {
				m.Quantize()
			}
			for _, n := range []int{1, 2, 3, 64, 97} {
				ids := make([]int, n)
				for i := range ids {
					ids[i] = (7*i + 3) % vocab
				}
				m.rt.Arena.Release()
				full := m.enc.Forward(ids)
				want := append([]float64(nil), full.Row(0)...)
				logits := m.dec.Forward(full)
				wantScores := make([]float64, len(logits.Data))
				for i, x := range logits.Data {
					wantScores[i] = nn.Sigmoid(x)
				}
				m.rt.Arena.Release()
				got := m.enc.Infer(ids).Row(0)
				for j := range want {
					if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
						t.Fatalf("quantize=%v threads=%d n=%d: rep[%d] = %v, full forward %v",
							quantize, threads, n, j, got[j], want[j])
					}
				}
				for j, s := range m.Scores(ids) {
					if math.Float64bits(s) != math.Float64bits(wantScores[j]) {
						t.Fatalf("quantize=%v threads=%d n=%d: score[%d] = %v, full forward %v",
							quantize, threads, n, j, s, wantScores[j])
					}
				}
			}
		}
	}
}
