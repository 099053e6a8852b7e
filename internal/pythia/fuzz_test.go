package pythia

import (
	"bytes"
	"errors"
	"testing"

	"github.com/pythia-db/pythia/internal/dsb"
)

// FuzzLoadSystem drives arbitrary bytes through the snapshot loaders that a
// reload (POST /v1/admin/reload, SIGHUP) reaches: LoadSystem, ReadSnapshot
// and the per-workload LoadWorkload. Every input must load or fail with an
// error wrapping ErrSnapshotCorrupt or ErrSnapshotVersion, and never panic.
// Each input is tried as a whole file and again sealed as a frame payload,
// so mutations also reach the gob and model decoders behind the checksum.
func FuzzLoadSystem(f *testing.F) {
	// A real snapshot, kept small (8 models, ≈38 KB) so mutations and
	// minimization stay fast.
	g := dsb.NewGenerator(dsb.Config{ScaleFactor: 1, Seed: 7})
	cfg := testConfig()
	cfg.Predictor.Model.Dim = 4
	cfg.Predictor.Model.Heads = 1
	cfg.Predictor.Model.DecoderHidden = 4
	cfg.Predictor.Model.Epochs = 1
	s := New(g.DB(), cfg)
	s.Train("t91", g.Workload("t91", 4, 1).Instances)
	if len(s.Workloads()) == 0 || len(s.Workloads()[0].Pred.Models()) == 0 {
		f.Fatal("seed system trained no models")
	}
	var snap, wl bytes.Buffer
	if err := s.Save(&snap); err != nil {
		f.Fatal(err)
	}
	if err := s.SaveWorkload("t91", &wl); err != nil {
		f.Fatal(err)
	}
	for _, frame := range [][]byte{snap.Bytes(), wl.Bytes()} {
		f.Add(frame)
		payload, err := openEnvelope(bytes.NewReader(frame))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Add([]byte{})
	f.Add(snapMagic[:])

	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(what string, err error) {
			t.Helper()
			if err != nil && !errors.Is(err, ErrSnapshotCorrupt) && !errors.Is(err, ErrSnapshotVersion) {
				t.Fatalf("%s: untyped error %v", what, err)
			}
		}
		_, err := LoadSystem(s.DB, cfg, bytes.NewReader(data))
		check("LoadSystem", err)
		frame, err := ReadSnapshot(bytes.NewReader(data))
		check("ReadSnapshot", err)
		if err == nil && !bytes.Equal(frame, data) {
			t.Fatalf("ReadSnapshot accepted %d bytes but returned %d", len(data), len(frame))
		}
		var sealed bytes.Buffer
		if err := sealEnvelope(&sealed, data); err != nil {
			t.Fatal(err)
		}
		_, err = LoadSystem(s.DB, cfg, bytes.NewReader(sealed.Bytes()))
		check("LoadSystem(sealed)", err)
		_, err = New(s.DB, cfg).LoadWorkload(bytes.NewReader(sealed.Bytes()))
		check("LoadWorkload(sealed)", err)
	})
}
