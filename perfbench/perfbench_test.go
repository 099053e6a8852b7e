package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/pythia-db/pythia/internal/serve"
)

func TestHighestSupported(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n          int
		wantP      float64
		wantValue  float64
		wantBeyond int
	}{
		{1000, 0.99, 990, 10}, // exactly ten samples above p99
		{999, 0.98, 980, 19},  // p99 has nine above it: fall back one rung
		{100, 0.90, 90, 10},
		{25, 0.50, 13, 12},
		{12, 0.50, 6, 6}, // too thin for any rung: the median, flagged by Beyond
	} {
		q := highestSupported(seq(tc.n), 0.99)
		if q.P != tc.wantP || q.Value != tc.wantValue || q.Beyond != tc.wantBeyond || q.N != tc.n {
			t.Errorf("n=%d: got %+v, want p%g value %g beyond %d", tc.n, q, tc.wantP*100, tc.wantValue, tc.wantBeyond)
		}
	}
	if q := highestSupported(seq(1000), 0.95); q.P != 0.95 {
		t.Errorf("want caps the ladder: got p%g", q.P*100)
	}
	if q := highestSupported(nil, 0.99); q.N != 0 || q.Value != 0 {
		t.Errorf("empty sample: got %+v", q)
	}
}

func TestTailPercentile(t *testing.T) {
	steady := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i%100 + 1) // 1..100 in every chunk
		}
		return xs
	}
	if q := tailPercentile(steady(1500), 0.99); q.Chunks != 1 || q.P != 0.99 || q.Value != 99 || q.N != 1500 {
		t.Errorf("one chunk: got %+v, want the whole sample's p99", q)
	}
	// A burst confined to one of three chunks does not move the figure; a
	// tail present in every chunk does.
	burst := steady(3000)
	for i := 0; i < 1000; i++ {
		burst[i] *= 10
	}
	if q := tailPercentile(burst, 0.99); q.Chunks != 3 || q.Value != 99 || q.Beyond != 10 {
		t.Errorf("burst in one chunk: got %+v, want p99 99 over 3 chunks", q)
	}
	everywhere := steady(3000)
	for i := 49; i < len(everywhere); i += 50 { // 2% of every chunk
		everywhere[i] = 1000
	}
	if q := tailPercentile(everywhere, 0.99); q.Value != 1000 {
		t.Errorf("tail in every chunk: got %+v, want 1000", q)
	}
	// p90 needs only 100 samples per chunk for ten to lie above it.
	if q := tailPercentile(steady(3000), 0.90); q.Chunks != 30 || q.P != 0.90 || q.Value != 90 || q.Beyond != 10 {
		t.Errorf("p90: got %+v, want 90 over 30 chunks of 100", q)
	}
}

func TestSelfTimes(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "request", Start: at(0), End: at(100), Ops: 1},
		{ID: 2, Parent: 1, Name: "a", Start: at(10), End: at(30), Ops: 1},
		{ID: 3, Parent: 1, Name: "b", Start: at(20), End: at(50), Ops: 1},  // overlaps a
		{ID: 4, Parent: 2, Name: "c", Start: at(12), End: at(15), Ops: 1},  // under a
		{ID: 5, Parent: 1, Name: "d", Start: at(90), End: at(120), Ops: 1}, // runs past its parent
		{ID: 6, Name: "loop", Start: at(0), End: at(10), Ops: 1000},
	}
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	want := map[int]time.Duration{
		1: ms(100 - 40 - 10), // children cover 10–50 and 90–100
		2: ms(20 - 3),
		3: ms(30),
		4: ms(3),
		5: ms(30),
		6: ms(10),
	}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self time %v, want %v", id, got[id], w)
		}
	}
	if per := layerTimes(spans)["loop"][0]; per != 10*time.Microsecond {
		t.Errorf("loop span: per-call self time %v, want 10µs", per)
	}
}

// tinyFixture sizes a workload to run in a second or two.
func tinyFixture(template string) fixtureSpec {
	return fixtureSpec{template: template, sf: 1, train: 6, eval: 8, epochs: 2, setups: 2}
}

var (
	tinyRound = roundSpec{size: 4, gap: 2 * time.Millisecond}
	tinyMiss  = predictWorkload{fixtureSpec: tinyFixture("t18"), replicas: 1, perSecond: 50,
		sample: 4, sampleSpan: 8, layerSample: 2, round: tinyRound}
	tinyHot = predictWorkload{fixtureSpec: tinyFixture("t91"), replicas: 2, hot: true, corpus: 40,
		feedback: 0.5, layerSample: 2, round: tinyRound}
	tinyReplay = replayWorkload{fixtureSpec: tinyFixture("t91"), round: tinyRound, layerSample: 2}
)

func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("trains small models")
	}
	runs := map[string]func(params) (*outcome, error){
		"predict-miss":         func(p params) (*outcome, error) { return runPredict(tinyMiss, p) },
		"predict-hot-feedback": func(p params) (*outcome, error) { return runPredict(tinyHot, p) },
		"replay-concurrent":    func(p params) (*outcome, error) { return runReplay(tinyReplay, p) },
	}
	for name, run := range runs {
		for _, traced := range []bool{false, true} {
			p := params{seed: 3, measure: 300 * time.Millisecond}
			defs := endToEnd
			if traced {
				p.tr = &tracer{}
				defs = perLayer
			}
			o, err := run(p)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if o.attempted == 0 || o.failed != 0 || len(o.problems) != 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d, problems %q", name, traced, o.attempted, o.failed, o.problems)
			}
			var buf bytes.Buffer
			if err := report(&buf, name, p, 0, defs, o); err != nil {
				t.Errorf("%s traced=%v: %v", name, traced, err)
				continue
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s traced=%v: last line is not the result: %v", name, traced, err)
			}
			if !res.Correct || len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: correct=%v with %d metrics, want %d", name, traced, res.Correct, len(res.Metrics), len(defs))
			}
		}
	}
}

// tamper drops the last page of every /v1/predict answer, or adds one to
// an empty answer.
func tamper(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if r.URL.Path == "/v1/predict" && rec.Code == http.StatusOK {
			var ans map[string]any
			if err := json.Unmarshal(body, &ans); err == nil {
				pages, _ := ans["pages"].([]any)
				if len(pages) > 0 {
					pages = pages[:len(pages)-1]
				} else {
					pages = []any{map[string]any{"object": "store_sales", "page": 0}}
				}
				ans["pages"] = pages
				body, _ = json.Marshal(ans)
			}
		}
		w.WriteHeader(rec.Code)
		_, _ = w.Write(body)
	})
}

func TestOracleRejectsTamperedAnswers(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a small model")
	}
	fx, err := buildFixture(tinyFixture("t91"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tampered := range []bool{false, true} {
		srv, err := serve.New(fx.gen.DB(), fx.sys, nil, serve.Options{})
		if err != nil {
			t.Fatal(err)
		}
		h := srv.Handler()
		if tampered {
			h = tamper(h)
		}
		st, err := newStack(srv, h)
		if err != nil {
			t.Fatal(err)
		}
		o := newOutcome()
		err = evaluate(&predictState{fx: fx, s: &stream{w: tinyHot}, st: st}, o)
		st.close()
		if err != nil {
			t.Fatal(err)
		}
		want := int64(0)
		if tampered {
			want = int64(len(fx.eval))
		}
		if o.attempted != int64(len(fx.eval)) || o.failed != want {
			t.Errorf("tampered=%v: %d of %d answers failed the oracle, want %d", tampered, o.failed, o.attempted, want)
		}
	}
}

func TestUsageErrorPrintsNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no-such", "--seconds", "1"},
		{"--workload", "predict-miss", "--trace", "2"},
		{"--workload", "predict-miss", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%q: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

// TestBenchmarkJSON keeps the repository's BENCHMARK.json and the metrics
// this program prints in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name  string   `json:"name"`
		Unit  string   `json:"unit"`
		Bound *float64 `json:"bound"`
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}
