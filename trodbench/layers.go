package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"
)

// perLayerMetrics is every metric the layer-timed run reports, in the order
// BENCHMARK.json lists them. A workload that does not exercise a layer
// reports 0 for that layer's metrics.
var perLayerMetrics = []struct{ name, unit string }{
	// app_traced
	{"runtime.invoke_p50_us.createPost", "us"},
	{"runtime.invoke_p50_us.readPost", "us"},
	{"runtime.invoke_p50_us.readTimeline", "us"},
	{"runtime.invoke_p50_us.follow", "us"},
	{"trace.cost_us_per_req", "us"},
	{"trace.overhead_pct", "%"},
	{"trace.events_per_req", "count"},
	{"trace.events_per_flush", "count"},
	{"trace.final_flush_ms", "ms"},
	{"trace.drops", "count"},
	{"provenance.apply_busy_pct", "%"},
	{"provenance.apply_ns_per_event", "ns"},
	{"provenance.rows_per_req", "count"},
	{"provenance.read_rows_per_req", "count"},
	{"provenance.heap_bytes_per_req", "bytes"},
	{"db.plan_cache_hit_pct", "%"},
	{"db.conflict_pct", "%"},
	// server_rw
	{"client.op_p50_us.point_read", "us"},
	{"client.op_p50_us.range_scan", "us"},
	{"client.op_p50_us.rmw_txn", "us"},
	{"client.op_p99_us.rmw_txn", "us"},
	{"db.query_p50_us.point_read", "us"},
	{"db.query_p50_us.range_scan", "us"},
	{"protocol.rtt_overhead_us", "us"},
	{"db.commit_p50_us", "us"},
	{"db.commit_p99_us", "us"},
	{"wal.fsync_commit_p50_us", "us"},
	{"wal.fsync_commit_p99_us", "us"},
	{"wal.syncs_per_commit", "count"},
	{"wal.bytes_per_commit", "bytes"},
	{"txn.conflict_pct", "%"},
	{"storage.resident_versions", "count"},
	{"server.busy_rejections", "count"},
	{"value.codec_ns_per_row", "ns"},
	{"value.allocs_per_row", "count"},
	{"protocol.codec_ns_per_msg", "ns"},
	{"protocol.allocs_per_msg", "count"},
	{"wal.encode_ns_per_commit", "ns"},
	{"wal.encode_allocs_per_commit", "count"},
	// debug_session
	{"sqlexec.query_p50_us.sec33_join", "us"},
	{"sqlexec.query_p50_us.req_lookup", "us"},
	{"replay.restore_p50_ms", "ms"},
	{"replay.reexec_p50_ms", "ms"},
	{"replay.injected_writes_per_replay", "count"},
	{"replay.diverged", "count"},
	{"provenance.ingest_events_per_s", "1/s"},
	// all workloads
	{"op.lat_p99_us", "us"},
	{"go.gc_cpu_pct", "%"},
	{"go.gc_cycles", "count"},
	{"bench.timer_overhead_pct", "%"},
	{"bench.unattributed_pct", "%"},
	{"bench.drift_pct", "%"},
	{"self_pct.runtime", "%"},
	{"self_pct.trace", "%"},
	{"self_pct.db", "%"},
	{"self_pct.client", "%"},
	{"self_pct.sqlexec", "%"},
	{"self_pct.replay", "%"},
}

// spanLayers are the layers self time is attributed to (a span's layer is
// its name up to the first dot). Spans named "op.<kind>" are the
// benchmark's own per-operation roots, not a layer.
var spanLayers = []string{"runtime", "trace", "db", "client", "sqlexec", "replay"}

// span is one timed call from the benchmark into a layer's public API.
type span struct {
	name       string
	start, end int64 // ns since the recorder's t0
	parent     int32 // index of the enclosing span, -1 for none
	op         int32 // operation the span belongs to, -1 for none
}

// spanRec records the spans of one goroutine. Spans stay in memory until
// the run ends. A nil *spanRec records nothing, so the plain (untimed)
// passes run the same code with no timers.
type spanRec struct {
	t0    time.Time
	spans []span
	open  []int32
	op    int32
	// wallNs is the goroutine's measured-phase wall time, set by the caller.
	wallNs int64
}

func newSpanRec() *spanRec { return &spanRec{t0: time.Now(), op: -1} }

// begin opens a span nested in the innermost open one.
func (r *spanRec) begin(name string) int32 {
	if r == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	idx := int32(len(r.spans))
	r.spans = append(r.spans, span{name: name, start: int64(time.Since(r.t0)), parent: parent, op: r.op})
	r.open = append(r.open, idx)
	return idx
}

// end closes span idx, which must be the innermost open one.
func (r *spanRec) end(idx int32) {
	if r == nil {
		return
	}
	r.spans[idx].end = int64(time.Since(r.t0))
	r.open = r.open[:len(r.open)-1]
}

// beginOp opens the root span of operation op.
func (r *spanRec) beginOp(op int, kind string) int32 {
	if r == nil {
		return -1
	}
	r.op = int32(op)
	return r.begin("op." + kind)
}

func (r *spanRec) endOp(idx int32) {
	if r == nil {
		return
	}
	r.end(idx)
	r.op = -1
}

// durationsUs lists the durations of the spans called name, in µs.
func durationsUs(recs []*spanRec, name string) []float64 {
	var out []float64
	for _, r := range recs {
		for i := range r.spans {
			if s := &r.spans[i]; s.name == name {
				out = append(out, float64(s.end-s.start)/1e3)
			}
		}
	}
	return out
}

// attribute fills self_pct.<layer> and bench.unattributed_pct. A span's
// self time is its duration minus its direct children's; the self times of
// layer spans add up to the time some layer span covers, and the rest of
// the goroutines' measured wall time is unattributed (the benchmark's own
// loop and checks).
func attribute(recs []*spanRec, layers map[string]float64) {
	var wall, covered float64
	self := map[string]float64{}
	for _, r := range recs {
		wall += float64(r.wallNs)
		childNs := make([]int64, len(r.spans))
		for i := range r.spans {
			if p := r.spans[i].parent; p >= 0 {
				childNs[p] += r.spans[i].end - r.spans[i].start
			}
		}
		for i := range r.spans {
			s := &r.spans[i]
			layer, _, _ := strings.Cut(s.name, ".")
			if layer == "op" {
				continue
			}
			ns := float64(s.end - s.start - childNs[i])
			self[layer] += ns
			covered += ns
		}
	}
	for _, l := range spanLayers {
		layers["self_pct."+l] = pct(self[l], wall)
	}
	layers["bench.unattributed_pct"] = pct(wall-covered, wall)
}

// writeSpans dumps one round's spans as tab-separated text.
func writeSpans(workload string, seed int64, recs []*spanRec) (string, error) {
	dir := filepath.Join(buildDir(), "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.tsv", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "goroutine\tspan\tparent\top\tname\tstart_ns\tend_ns")
	for g, r := range recs {
		for i, s := range r.spans {
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%s\t%d\t%d\n", g, i, s.parent, s.op, s.name, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// gcProbe samples the Go runtime's GC counters over a measured phase.
type gcProbe struct{ gcCPU, allCPU, idleCPU, cycles float64 }

var gcSampleNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readGC() gcProbe {
	s := make([]metrics.Sample, len(gcSampleNames))
	for i, n := range gcSampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return float64(s[i].Value.Uint64())
		}
		return s[i].Value.Float64()
	}
	return gcProbe{v(0), v(1), v(2), v(3)}
}

// report fills go.gc_cpu_pct (GC's share of the CPU the process used
// between probes p and q) and go.gc_cycles.
func (p gcProbe) report(q gcProbe, layers map[string]float64) {
	layers["go.gc_cpu_pct"] = pct(q.gcCPU-p.gcCPU, (q.allCPU-p.allCPU)-(q.idleCPU-p.idleCPU))
	layers["go.gc_cycles"] = q.cycles - p.cycles
}

// cpuSeconds is the process's user plus system CPU time. Unlike wall time
// it does not grow when the host takes the CPU away (steal).
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// liveHeapMB forces a collection and reports the heap still in use.
func liveHeapMB() float64 {
	goruntime.GC()
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
