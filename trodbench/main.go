// Command trodbench is the repository's repeatable benchmark. One process
// drives one of three workloads through the layers' public Go APIs and
// prints a JSON result as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set, measured with no
// timers in the program's path. With --trace 1 the same workload runs again
// as a layer-timed run: the benchmark records spans around its own calls
// into each layer and reads the counters the layers export, and the metrics
// are the per-layer set. README.md documents the workloads and metrics.
//
// Build and run it from the repository root with run.sh:
//
//	bash trodbench/run.sh --workload app_traced --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Rounds. Each round sets the workload up from scratch and runs a fixed
// number of operations on inputs fixed by the seed, so every round leaves
// the same data behind; after one unreported warm-up round, rounds repeat
// until --seconds have passed.
const (
	minRounds = 3
	maxRounds = 200
)

// round is the outcome of one set-up-and-measure cycle.
type round struct {
	setupSec  float64
	wallSec   float64   // measured phase, including any final flush
	cpuSec    float64   // process CPU time (user+sys) over the measured phase
	lat       []float64 // completed-op latency in µs, in op order
	heapMB    float64   // live heap after a forced GC, state still reachable
	attempted int
	failed    int
	layers    map[string]float64 // layer-timed run only
	spans     []*spanRec         // layer-timed run only
}

// benchWorkload is one named input set. round runs one plain round; with timed
// set it also runs the layer-timed pass and fills round.layers.
type benchWorkload interface {
	round(timed bool) (*round, error)
	// record describes the workload's fixed configuration for the run record.
	record() map[string]any
}

var workloads = map[string]func(seed int64) benchWorkload{
	"app_traced":    newAppTraced,
	"server_rw":     newServerRW,
	"debug_session": newDebugSession,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: app_traced, server_rw or debug_session")
	seed := flag.Int64("seed", 1, "input generator seed")
	seconds := flag.Float64("seconds", 10, "measure for this long (whole rounds)")
	traceFlag := flag.Int("trace", 0, "1 runs the layer-timed run and reports per-layer metrics")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *traceFlag < 0 || *traceFlag > 1 {
		fmt.Fprintf(os.Stderr, "trodbench: unknown workload %q or bad --trace\n", *name)
		os.Exit(2)
	}
	if err := os.MkdirAll(buildDir(), 0o755); err != nil {
		fatal(err)
	}
	timed := *traceFlag == 1
	w := mk(*seed)

	// A warm-up round grows the heap and fills caches; it is not reported.
	if _, err := w.round(timed); err != nil {
		fatal(err)
	}
	start := time.Now()
	var rounds []*round
	for len(rounds) < minRounds || (time.Since(start).Seconds() < *seconds && len(rounds) < maxRounds) {
		r, err := w.round(timed)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "round %d: setup %.3fs, %d ops in %.3fs, failed %d\n",
			len(rounds), r.setupSec, len(r.lat), r.wallSec, r.failed)
		rounds = append(rounds, r)
	}

	res := result{Metrics: map[string]metric{}}
	samples := len(rounds[0].lat)
	for _, r := range rounds {
		res.Attempted += r.attempted
		res.Failed += r.failed
		samples = min(samples, len(r.lat))
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if timed {
		// Every workload's round keeps the plain pass's latencies in lat.
		for _, r := range rounds {
			r.layers["op.lat_p99_us"] = percentile(sortedCopy(r.lat), 0.99)
			r.layers["bench.drift_pct"] = driftPct(r.lat)
		}
		for _, m := range perLayerMetrics {
			vals := make([]float64, len(rounds))
			for i, r := range rounds {
				vals[i] = r.layers[m.name]
			}
			res.Metrics[m.name] = metric{median(vals), m.unit}
		}
		spanFile, err := writeSpans(*name, *seed, rounds[len(rounds)-1].spans)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "spans of the last round: %s\n", spanFile)
	} else {
		pick := func(f func(r *round) float64) float64 {
			vals := make([]float64, len(rounds))
			for i, r := range rounds {
				vals[i] = f(r)
			}
			return median(vals)
		}
		res.Metrics["setup_s"] = metric{pick(func(r *round) float64 { return r.setupSec }), "s"}
		res.Metrics["ops_per_s"] = metric{pick(func(r *round) float64 { return float64(len(r.lat)) / r.wallSec }), "ops/s"}
		res.Metrics["cpu_us_per_op"] = metric{pick(func(r *round) float64 { return r.cpuSec * 1e6 / float64(r.attempted) }), "us"}
		// Latency percentiles are taken per round and reported as the
		// median over rounds, so one round hit by a burst of host noise
		// does not set the tail. p99 is a layer-timed metric
		// (op.lat_p99_us): on a shared 2-vCPU host it follows the
		// hypervisor's CPU steal more than the program (README.md).
		for _, p := range []struct {
			name string
			q    float64
		}{{"lat_p50_us", 0.50}, {"lat_p90_us", 0.90}} {
			res.Metrics[p.name] = metric{pick(func(r *round) float64 { return percentile(sortedCopy(r.lat), p.q) }), "us"}
		}
		res.Metrics["live_heap_mb"] = metric{pick(func(r *round) float64 { return r.heapMB }), "MB"}
	}

	rec := runRecord(*name, *seed, *seconds, timed, len(rounds), samples, w.record())
	line, err := json.Marshal(map[string]any{"run_record": rec})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	line, err = json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// buildDir holds the benchmark's scratch files (WAL directories, span
// dumps); run.sh points it at the checkout's build directory.
func buildDir() string {
	if d := os.Getenv("TRODBENCH_DIR"); d != "" {
		return d
	}
	return filepath.Join(".bench_build", "trodbench")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "trodbench:", err)
	os.Exit(1)
}

// median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// percentile of an ascending slice by nearest rank (0 for none).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(p*float64(len(sorted)-1)+0.5)]
}

// sortedCopy returns xs in ascending order without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// driftPct is the mean cost of the second half of the ops against the
// first half, in percent: positive means the run slowed down as it went.
func driftPct(lat []float64) float64 {
	h := len(lat) / 2
	if h == 0 {
		return 0
	}
	return (mean(lat[h:])/mean(lat[:h]) - 1) * 100
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole * 100
}

func usSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e3 }
