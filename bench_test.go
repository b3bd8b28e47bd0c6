// Benchmark harness: one testing.B target per paper table/figure/prototype
// claim. Custom metrics carry the quantities the paper reports (overhead %,
// query ms, schedule counts). cmd/trod-bench runs the same experiments with
// paper-formatted output and larger scales.
package trod_test

import (
	"fmt"
	"testing"

	"repro/internal/experiments"
)

// BenchmarkE1TracingOverheadMemory regenerates the §3.7 claim on the
// in-memory engine (paper: <15% relative overhead, <100µs absolute).
func BenchmarkE1TracingOverheadMemory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pair, err := experiments.RunE1Pair(experiments.EngineMemory, 2000, 50, false)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pair.Off.AvgUs, "base-us/req")
		b.ReportMetric(pair.On.AvgUs, "traced-us/req")
		b.ReportMetric(pair.OverheadPct, "overhead-%")
		b.ReportMetric(pair.PerReqUs, "trace-cost-us/req")
	}
}

// BenchmarkE1TracingOverheadDisk regenerates the §3.7 claim on the
// disk-backed engine (paper: negligible overhead on Postgres).
func BenchmarkE1TracingOverheadDisk(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pair, err := experiments.RunE1Pair(experiments.EngineDisk, 500, 50, true)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pair.Off.AvgUs, "base-us/req")
		b.ReportMetric(pair.On.AvgUs, "traced-us/req")
		b.ReportMetric(pair.OverheadPct, "overhead-%")
	}
}

// BenchmarkE2QueryLatency regenerates the §3.7 declarative-query claim
// (paper: interactive latency over very large event logs); the series over
// event-count scales is printed by cmd/trod-bench -exp e2.
func BenchmarkE2QueryLatency(b *testing.B) {
	for _, scale := range []int{10_000, 50_000, 200_000} {
		b.Run(fmt.Sprintf("events=%d", scale), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pts, err := experiments.RunE2([]int{scale})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(pts[0].QueryMs, "query-ms")
				b.ReportMetric(pts[0].AggMs, "agg-ms")
				b.ReportMetric(pts[0].LoadMs, "load-ms")
			}
		})
	}
}

// BenchmarkE3Table1 regenerates the paper's Table 1 from a live scenario.
func BenchmarkE3Table1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc, err := experiments.NewScenario()
		if err != nil {
			b.Fatal(err)
		}
		rows, err := experiments.RunE3Table1(sc)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(rows.Rows)), "rows")
		sc.Close()
	}
}

// BenchmarkE4Table2 regenerates the paper's Table 2 (data operations log).
func BenchmarkE4Table2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc, err := experiments.NewScenario()
		if err != nil {
			b.Fatal(err)
		}
		rows, err := experiments.RunE4Table2(sc)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(rows.Rows)), "rows")
		sc.Close()
	}
}

// BenchmarkE5DebugQuery regenerates the §3.3 debugging query result
// ((TS3, R2, subscribeUser), (TS4, R1, subscribeUser) in the paper).
func BenchmarkE5DebugQuery(b *testing.B) {
	sc, err := experiments.NewScenario()
	if err != nil {
		b.Fatal(err)
	}
	defer sc.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE5DebugQuery(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6Replay regenerates Figure 3 (top): faithful replay with
// foreign-write injection.
func BenchmarkE6Replay(b *testing.B) {
	sc, err := experiments.NewScenario()
	if err != nil {
		b.Fatal(err)
	}
	defer sc.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report, err := experiments.RunE6Replay(sc)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(report.Steps)), "steps")
	}
}

// BenchmarkE7Retro regenerates Figure 3 (bottom): retroactive testing of
// the fix over both request orders.
func BenchmarkE7Retro(b *testing.B) {
	sc, err := experiments.NewScenario()
	if err != nil {
		b.Fatal(err)
	}
	defer sc.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report, err := experiments.RunE7Retro(sc)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(report.Schedules)), "schedules")
	}
}

// BenchmarkE8AccessControl regenerates the §4.2 User Profiles detection.
func BenchmarkE8AccessControl(b *testing.B) {
	sc, err := experiments.NewSecurityScenario()
	if err != nil {
		b.Fatal(err)
	}
	defer sc.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE8AccessControl(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9Exfiltration regenerates the §4.2 workflow forensics.
func BenchmarkE9Exfiltration(b *testing.B) {
	sc, err := experiments.NewSecurityScenario()
	if err != nil {
		b.Fatal(err)
	}
	defer sc.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE9Exfiltration(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10CaseStudies runs the three §4.1 case studies end to end
// (reproduce → locate → replay → retro-validate the fix).
func BenchmarkE10CaseStudies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := experiments.RunE10CaseStudies()
		if err != nil {
			b.Fatal(err)
		}
		ok := 0
		for _, r := range results {
			if r.Located && r.Replayed && r.FixValidated {
				ok++
			}
		}
		b.ReportMetric(float64(ok), "cases-pass")
	}
}

// BenchmarkA1FlushPolicy is the async-vs-sync tracing ablation.
func BenchmarkA1FlushPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunA1FlushPolicy(1000, 50)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.AsyncAvgUs, "async-us/req")
		b.ReportMetric(res.SyncAvgUs, "sync-us/req")
		b.ReportMetric(res.Slowdown, "sync-slowdown-x")
	}
}

// BenchmarkA2SelectiveRestore is the full-vs-selective replay restore
// ablation.
func BenchmarkA2SelectiveRestore(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunA2SelectiveRestore(50_000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.FullMs, "full-ms")
		b.ReportMetric(res.SelectiveMs, "selective-ms")
		b.ReportMetric(res.Speedup, "speedup-x")
	}
}

// BenchmarkA3Interleavings is the conflict-pruning ablation for the
// retroactive scheduler.
func BenchmarkA3Interleavings(b *testing.B) {
	for _, extras := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("extras=%d", extras), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunA3Interleavings(extras, 512)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.PrunedCount), "pruned-schedules")
				b.ReportMetric(float64(res.NaiveCount), "naive-schedules")
			}
		})
	}
}
