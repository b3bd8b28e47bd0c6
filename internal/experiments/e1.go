// Package experiments implements the TROD evaluation harness: one function
// per paper table/figure/prototype claim (E1–E10) plus the ablations
// (A1–A3). Both the root bench suite (bench_test.go) and the
// cmd/trod-bench binary drive these.
package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/db"
	"repro/internal/runtime"
	"repro/internal/trace"
	"repro/internal/wal"
	"repro/internal/workload"
)

// Engine selects the storage regime for E1.
type Engine string

// Engines under test, mirroring the paper's VoltDB (in-memory) and Postgres
// (on-disk) configurations.
const (
	EngineMemory Engine = "memory"
	EngineDisk   Engine = "disk"
)

// E1Config parameterises the tracing-overhead experiment.
type E1Config struct {
	Engine   Engine
	Tracing  bool
	Requests int
	Users    int
	Seed     int64
	// Dir holds the WAL for disk mode; empty uses a temp dir.
	Dir string
	// SyncWAL fsyncs per commit in disk mode (the realistic OLTP setting).
	SyncWAL bool
}

// E1Result reports per-request latency for one configuration.
type E1Result struct {
	Config      E1Config
	AvgUs       float64
	P50Us       float64
	P99Us       float64
	TotalMs     float64
	TraceEvents uint64
}

// RunE1 measures per-request latency of the microservice workload with or
// without TROD tracing attached (paper §3.7: "<100µs per request, <15%
// relative overhead on an in-memory DBMS, negligible on an on-disk DBMS").
func RunE1(cfg E1Config) (*E1Result, error) {
	var prod *db.DB
	var err error
	switch cfg.Engine {
	case EngineMemory:
		prod = db.MustOpenMemory()
	case EngineDisk:
		dir := cfg.Dir
		if dir == "" {
			dir, err = os.MkdirTemp("", "trod-e1")
			if err != nil {
				return nil, err
			}
			defer os.RemoveAll(dir)
		}
		sync := wal.SyncNever
		if cfg.SyncWAL {
			sync = wal.SyncEachCommit
		}
		prod, err = db.Open(db.Options{Mode: db.Disk, Path: filepath.Join(dir, "e1.wal"), Sync: sync})
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("experiments: unknown engine %q", cfg.Engine)
	}
	defer prod.Close()

	if err := workload.SetupMicroservice(prod, cfg.Users, cfg.Seed); err != nil {
		return nil, err
	}
	app := runtime.New(prod)
	workload.RegisterMicroservice(app)

	var tr *trace.Tracer
	if cfg.Tracing {
		prov := db.MustOpenMemory()
		defer prov.Close()
		tr, err = trace.Attach(app, prov, trace.Config{Tables: workload.MicroserviceTables})
		if err != nil {
			return nil, err
		}
		defer tr.Close()
	}

	handlers, args := workload.RequestMix(cfg.Requests, cfg.Users, cfg.Seed+1)
	lat := make([]float64, cfg.Requests)
	start := time.Now()
	for i := 0; i < cfg.Requests; i++ {
		t0 := time.Now()
		if _, err := app.Invoke(handlers[i], args[i]); err != nil {
			return nil, fmt.Errorf("request %d (%s): %w", i, handlers[i], err)
		}
		lat[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	total := time.Since(start)
	if tr != nil {
		if err := tr.Flush(); err != nil {
			return nil, err
		}
	}

	sort.Float64s(lat)
	res := &E1Result{
		Config:  cfg,
		AvgUs:   mean(lat),
		P50Us:   percentile(lat, 0.50),
		P99Us:   percentile(lat, 0.99),
		TotalMs: float64(total.Nanoseconds()) / 1e6,
	}
	if tr != nil {
		res.TraceEvents, _ = tr.Stats()
	}
	return res, nil
}

// E1Pair runs a tracing-off/tracing-on pair and computes relative overhead.
type E1Pair struct {
	Off, On     *E1Result
	OverheadPct float64
	PerReqUs    float64 // absolute tracing cost per request
}

// RunE1Pair runs the overhead comparison for one engine. Runs are
// interleaved ABBA (off, on, on, off) and combined on medians, so drift in
// file-system or allocator state cannot masquerade as tracing overhead.
func RunE1Pair(engine Engine, requests, users int, syncWAL bool) (*E1Pair, error) {
	base := E1Config{Engine: engine, Requests: requests, Users: users, Seed: 1, SyncWAL: syncWAL}
	offCfg := base
	offCfg.Tracing = false
	onCfg := base
	onCfg.Tracing = true

	// Warm both paths once to stabilise allocator and file-cache state.
	warmOff := offCfg
	warmOff.Requests = requests / 10
	warmOn := onCfg
	warmOn.Requests = requests / 10
	if warmOff.Requests > 0 {
		if _, err := RunE1(warmOff); err != nil {
			return nil, err
		}
		if _, err := RunE1(warmOn); err != nil {
			return nil, err
		}
	}

	off1, err := RunE1(offCfg)
	if err != nil {
		return nil, err
	}
	on1, err := RunE1(onCfg)
	if err != nil {
		return nil, err
	}
	on2, err := RunE1(onCfg)
	if err != nil {
		return nil, err
	}
	off2, err := RunE1(offCfg)
	if err != nil {
		return nil, err
	}
	off := combineE1(off1, off2)
	on := combineE1(on1, on2)
	pair := &E1Pair{Off: off, On: on}
	// Relative overhead is computed on total workload time (a throughput
	// ratio, like the paper's): per-request medians would hide the disk
	// regime, where only write requests pay the fsync. The absolute
	// per-request tracing cost is the median difference, which is robust
	// against GC/fsync tails.
	if off.TotalMs > 0 {
		pair.OverheadPct = (on.TotalMs - off.TotalMs) / off.TotalMs * 100
	}
	pair.PerReqUs = on.P50Us - off.P50Us
	return pair, nil
}

// combineE1 averages two runs of the same configuration.
func combineE1(a, b *E1Result) *E1Result {
	return &E1Result{
		Config:      a.Config,
		AvgUs:       (a.AvgUs + b.AvgUs) / 2,
		P50Us:       (a.P50Us + b.P50Us) / 2,
		P99Us:       (a.P99Us + b.P99Us) / 2,
		TotalMs:     (a.TotalMs + b.TotalMs) / 2,
		TraceEvents: a.TraceEvents + b.TraceEvents,
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}
