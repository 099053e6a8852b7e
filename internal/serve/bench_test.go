package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pythia-db/pythia/internal/dsb"
	"github.com/pythia-db/pythia/internal/model"
	"github.com/pythia-db/pythia/internal/obs"
	"github.com/pythia-db/pythia/internal/predictor"
	corepythia "github.com/pythia-db/pythia/internal/pythia"
	"github.com/pythia-db/pythia/internal/spec"
	"github.com/pythia-db/pythia/internal/workload"
)

// benchFixture trains one medium-sized model for the serve benchmark — big
// enough that a forward pass is in the millisecond range, so the benchmark
// measures inference against the fast path rather than HTTP plumbing.
var (
	benchOnce sync.Once
	benchSys  *corepythia.System
	benchDB   = func() *dsb.Generator { return dsb.NewGenerator(dsb.Config{ScaleFactor: 16, Seed: 11}) }()
	benchW    *workload.Workload
)

func benchSystem(b *testing.B) (*corepythia.System, *workload.Workload) {
	b.Helper()
	benchOnce.Do(func() {
		benchW = benchDB.Workload("t91", 16, 1)
		mcfg := model.DefaultConfig()
		mcfg.Dim = 48
		mcfg.Heads = 8
		mcfg.Layers = 2
		mcfg.DecoderHidden = 256
		mcfg.Epochs = 2
		cfg := corepythia.DefaultConfig()
		cfg.Predictor = predictor.Options{Model: mcfg, ObservedOnly: true}
		cfg.Replay.BufferPages = 4096
		benchSys = corepythia.New(benchDB.DB(), cfg)
		benchSys.Train("t91", benchW.Instances)
	})
	return benchSys, benchW
}

// serveBenchResult is one mode's row in BENCH_serve.json.
type serveBenchResult struct {
	Mode          string  `json:"mode"`
	Requests      int     `json:"requests"`
	Concurrency   int     `json:"concurrency"`
	Seconds       float64 `json:"seconds"`
	ThroughputRPS float64 `json:"throughput_rps"`
	P50MS         float64 `json:"p50_ms"`
	P99MS         float64 `json:"p99_ms"`
	CacheHits     uint64  `json:"cache_hits"`
	CacheMisses   uint64  `json:"cache_misses"`
	Inferences    uint64  `json:"inferences"`
}

// serveBenchReport is the whole BENCH_serve.json document.
type serveBenchReport struct {
	Benchmark string             `json:"benchmark"`
	Workload  string             `json:"workload"`
	Plans     int                `json:"distinct_plans"`
	Results   []serveBenchResult `json:"results"`
	Speedup   struct {
		Throughput float64 `json:"throughput"`
		P50        float64 `json:"p50"`
	} `json:"speedup_cached_vs_uncached"`
}

var serveBenchResults []serveBenchResult

// BenchmarkServePredict drives a real HTTP server (httptest.NewServer, so
// the full mux, instrumentation, and JSON round trip are on the clock) at
// fixed concurrency with a repeated-plan workload — the DSB steady state the
// prediction cache exists for. Two modes: uncached (every request runs
// inference) and the default, with the prediction cache. After both run, the comparison is written to
// BENCH_serve.json (override the path with BENCH_SERVE_OUT).
func BenchmarkServePredict(b *testing.B) {
	sys, w := benchSystem(b)
	const concurrency = 8
	const distinctPlans = 4
	modes := []struct {
		name string
		opts Options
	}{
		{"uncached", Options{CacheEntries: -1}},
		{"cached", Options{}},
	}
	serveBenchResults = serveBenchResults[:0]
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			srv := mustServer(b, benchDB.DB(), sys, NewMetrics(nil), mode.opts)
			defer srv.Close()
			insts := distinctInstances(b, srv, w, distinctPlans)
			bodies := make([][]byte, len(insts))
			for k, i := range insts {
				bodies[k] = specBody(b, spec.FromQuery(w.Instances[i].Query)).Bytes()
			}
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			client := ts.Client()
			url := ts.URL + "/v1/predict"

			var next atomic.Int64
			lats := make([][]time.Duration, concurrency)
			var wg sync.WaitGroup
			b.ResetTimer()
			start := time.Now()
			for g := 0; g < concurrency; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for {
						idx := next.Add(1) - 1
						if idx >= int64(b.N) {
							return
						}
						body := bodies[idx%int64(len(bodies))]
						t0 := time.Now()
						resp, err := client.Post(url, "application/json", bytes.NewReader(body))
						if err != nil {
							b.Error(err)
							return
						}
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
						if resp.StatusCode != http.StatusOK {
							b.Errorf("status %d", resp.StatusCode)
							return
						}
						lats[g] = append(lats[g], time.Since(t0))
					}
				}(g)
			}
			wg.Wait()
			elapsed := time.Since(start)
			b.StopTimer()
			if b.Failed() {
				return
			}

			var all []time.Duration
			for _, l := range lats {
				all = append(all, l...)
			}
			sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
			pct := func(p float64) float64 {
				if len(all) == 0 {
					return 0
				}
				return float64(all[int(p*float64(len(all)-1))].Microseconds()) / 1000
			}
			snap := srv.metrics.Events().Snapshot()
			res := serveBenchResult{
				Mode:          mode.name,
				Requests:      b.N,
				Concurrency:   concurrency,
				Seconds:       elapsed.Seconds(),
				ThroughputRPS: float64(b.N) / elapsed.Seconds(),
				P50MS:         pct(0.50),
				P99MS:         pct(0.99),
				CacheHits:     snap.Get(obs.PredCacheHit),
				CacheMisses:   snap.Get(obs.PredCacheMiss),
				Inferences:    snap.Get(obs.InferenceRun),
			}
			b.ReportMetric(res.ThroughputRPS, "req/s")
			b.ReportMetric(res.P50MS, "p50-ms")
			serveBenchResults = append(serveBenchResults, res)
		})
	}
	writeServeBench(b, w, distinctPlans)
}

// writeServeBench emits BENCH_serve.json once both modes have final numbers
// (the harness reruns sub-benchmarks with growing b.N; the last, largest run
// of each mode is what lands in serveBenchResults when the parent finishes).
func writeServeBench(b *testing.B, w *workload.Workload, plans int) {
	var uncached, cached *serveBenchResult
	for i := range serveBenchResults {
		switch serveBenchResults[i].Mode {
		case "uncached":
			uncached = &serveBenchResults[i]
		case "cached":
			cached = &serveBenchResults[i]
		}
	}
	if uncached == nil || cached == nil {
		return
	}
	report := serveBenchReport{
		Benchmark: "BenchmarkServePredict",
		Workload:  w.Name,
		Plans:     plans,
		Results:   []serveBenchResult{*uncached, *cached},
	}
	if cached.Seconds > 0 && uncached.ThroughputRPS > 0 {
		report.Speedup.Throughput = cached.ThroughputRPS / uncached.ThroughputRPS
	}
	if cached.P50MS > 0 {
		report.Speedup.P50 = uncached.P50MS / cached.P50MS
	}
	out := os.Getenv("BENCH_SERVE_OUT")
	if out == "" {
		out = "BENCH_serve.json"
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
	fmt.Printf("BENCH_serve.json: throughput speedup %.1fx, p50 speedup %.1fx (%s)\n",
		report.Speedup.Throughput, report.Speedup.P50, out)
}
