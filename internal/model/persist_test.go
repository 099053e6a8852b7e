package model

import (
	"bytes"
	"encoding/gob"
	"testing"

	"github.com/pythia-db/pythia/internal/storage"
)

func TestModelSaveLoadRoundTrip(t *testing.T) {
	labels, samples := trainingFixture()
	m := New(12, labels, smallCfg())
	m.Train(samples)

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, seq := range [][]int{{2, 5, 3}, {2, 9, 3}, {1, 1, 1}} {
		a := m.Predict(seq)
		b := loaded.Predict(seq)
		if len(a) != len(b) {
			t.Fatalf("loaded model differs on %v: %d vs %d pages", seq, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("loaded model differs on %v", seq)
			}
		}
		// Scores match exactly, not just thresholded predictions.
		sa, sb := m.Scores(seq), loaded.Scores(seq)
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatalf("loaded scores differ at %d: %v vs %v", i, sa[i], sb[i])
			}
		}
	}
	if loaded.ParamCount() != m.ParamCount() {
		t.Fatal("parameter counts differ after load")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("garbage did not error")
	}
}

func TestLoadedModelTrainsIncrementally(t *testing.T) {
	labels, samples := trainingFixture()
	cfg := smallCfg()
	cfg.Epochs = 40
	m := New(12, labels, cfg)
	m.Train(samples[:4])

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Incremental training on the rest of the data must run (and not panic
	// on the reset optimizer state) and keep predictions sane.
	loss := loaded.TrainIncremental(samples, 60)
	if loss < 0 {
		t.Fatalf("negative loss %f", loss)
	}
	got := loaded.Predict([]int{2, 5, 3})
	if len(got) == 0 {
		t.Fatal("incrementally trained model predicts nothing")
	}
}

func TestTrainIncrementalDefaultEpochs(t *testing.T) {
	labels, samples := trainingFixture()
	m := New(12, labels, smallCfg())
	m.Train(samples)
	// epochs <= 0 falls back to a quarter of the configured budget.
	m.TrainIncremental(samples[:2], 0)
	if m.cfg.Epochs != smallCfg().Epochs {
		t.Fatal("TrainIncremental leaked its temporary epoch override")
	}
}

// TestLoadRejectsCorruptConfig: a gob-valid persisted model whose config or
// vocabulary size was corrupted must come back from Load as an error —
// never a panic in a constructor, never an allocation sized by the
// corrupted field.
func TestLoadRejectsCorruptConfig(t *testing.T) {
	labels, _ := trainingFixture()
	var buf bytes.Buffer
	if err := New(12, labels, smallCfg()).Save(&buf); err != nil {
		t.Fatal(err)
	}
	var good persistedModel
	if err := gob.NewDecoder(&buf).Decode(&good); err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(*persistedModel){
		"dim-not-divisible": func(s *persistedModel) { s.Cfg.Dim, s.Cfg.Heads = 33, 4 },
		"negative-vocab":    func(s *persistedModel) { s.VocabSize = -1 },
		"huge-dim":          func(s *persistedModel) { s.Cfg.Dim = 1 << 40 },
		"huge-vocab":        func(s *persistedModel) { s.VocabSize = 1 << 40 },
		"negative-layers":   func(s *persistedModel) { s.Cfg.Layers = -3 },
		"huge-threads":      func(s *persistedModel) { s.Cfg.Threads = 1 << 30 },
		// Valid on its own, but the stored weights do not fill it.
		"wider-decoder": func(s *persistedModel) { s.Cfg.DecoderHidden *= 2 },
		"extra-labels":  func(s *persistedModel) { s.Labels = append(s.Labels, pg(2, 0)) },
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			state := good
			state.Labels = append([]storage.PageID(nil), good.Labels...)
			corrupt(&state)
			var enc bytes.Buffer
			if err := gob.NewEncoder(&enc).Encode(&state); err != nil {
				t.Fatal(err)
			}
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Load panicked: %v", r)
				}
			}()
			if m, err := Load(&enc); err == nil {
				t.Fatalf("Load accepted the corrupted model (%d params)", m.ParamCount())
			}
		})
	}
}

// TestConfigValidate: the checks Load relies on, case by case — zero
// fields take their defaults, anything New would panic on or could be
// made to over-allocate by is an error.
func TestConfigValidate(t *testing.T) {
	for _, c := range []Config{{}, DefaultConfig(), PaperConfig(), smallCfg(), {Dim: 24, Heads: 3, FFHidden: 40}} {
		if err := c.Validate(); err != nil {
			t.Errorf("%+v: unexpected error %v", c, err)
		}
	}
	for name, c := range map[string]Config{
		"dim-not-divisible": {Dim: 33, Heads: 4},
		"default-heads":     {Dim: 30},
		"negative-dim":      {Dim: -32},
		"negative-ffhidden": {FFHidden: -1},
		"huge-dim":          {Dim: 1 << 40, Heads: 1},
		"huge-layers":       {Layers: 1 << 20},
		"huge-ffhidden":     {FFHidden: 1 << 30},
		"huge-decoder":      {DecoderHidden: 1 << 30},
		"huge-threads":      {Threads: 1 << 30},
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("%s: %+v validated", name, c)
		}
	}
}

// TestParamCountArithmetic: the size check Load runs before building a
// model must agree with the architecture New actually builds.
func TestParamCountArithmetic(t *testing.T) {
	for _, c := range []struct {
		cfg           Config
		vocab, labels int
	}{
		{smallCfg(), 12, 20},
		{DefaultConfig(), 300, 1000},
		{Config{Dim: 24, Heads: 3, Layers: 3, FFHidden: 40, DecoderHidden: 16}, 7, 5},
		{PaperConfig(), 50, 64},
	} {
		labels := make([]storage.PageID, c.labels)
		for i := range labels {
			labels[i] = pg(1, uint32(i))
		}
		if err := c.cfg.Validate(); err != nil {
			t.Fatalf("%+v: %v", c.cfg, err)
		}
		if got, want := paramCount(c.cfg, c.vocab, c.labels), New(c.vocab, labels, c.cfg).ParamCount(); got != want {
			t.Fatalf("%+v: paramCount %d, built model has %d", c.cfg, got, want)
		}
	}
}
