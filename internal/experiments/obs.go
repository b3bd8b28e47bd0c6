package experiments

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/db"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/runtime"
	"repro/internal/server"
	"repro/internal/span"
	"repro/internal/trace"
	"repro/internal/wal"
	"repro/internal/workload"
)

// ObsResult is the observability experiment's outcome: three adversarial
// workloads driven against fully instrumented servers, with the Prometheus
// endpoint scraped mid-run (not after the dust settles), the slow-query
// log's provenance links resolved against the trace database, and span
// capture read back to locate where a thrashing workload's time went.
type ObsResult struct {
	HotKey    *ObsHotKeyResult
	OpenLoop  *ObsOpenLoopResult
	PlanCache *ObsPlanCacheResult
}

// ObsHotKeyResult records the hot-key conflict storm: read-modify-write
// transactions over a tiny key space, no client-side retries, so OCC aborts
// surface as typed conflicts and drive the conflict counters that healthy
// workloads never move.
type ObsHotKeyResult struct {
	Workers      int
	OpsPerWorker int
	Keys         int
	Committed    int
	Conflicts    int     // typed conflict errors surfaced to clients
	ConflictPct  float64 // conflicts / attempts
	DurationMs   float64

	ServerConflicts uint64 // server's typed-conflict counter after drain
	DBConflicts     uint64 // engine-level OCC aborts (includes autocommit retries)

	ScrapeSeries     int     // distinct series on /metrics mid-run
	MidRunConflicts  float64 // trod_db_conflicts_total as scraped mid-storm
	MidRunHealthzOK  bool    // /healthz answered 200 while serving
	SlowQueryLines   int     // statements past the slow threshold
	SlowIDsChecked   int     // slow-query request IDs resolved against provenance
	SlowIDsResolved  int     // ... of which were found (must equal checked)
	TracerEvents     uint64
	TracerDrops      uint64
	ScrapeConsistent bool // mid-run scrape parsed and covered all four layers
}

// ObsOpenLoopResult records the bursty open-loop arrival experiment:
// connection volleys land on a deliberately small server regardless of how
// far behind it is, filling the admission queue and forcing typed busy
// rejections — the backpressure path, observed through the queue-wait
// histogram rather than inferred.
type ObsOpenLoopResult struct {
	Arrivals     int
	Bursts       int
	PerBurst     int
	MaxConns     int
	QueueDepth   int
	Served       int
	RejectedBusy int
	DurationMs   float64

	QueueWaitObs   uint64  // queue-wait histogram count (admitted + timed out)
	QueueWaitAvgMs float64 // histogram sum/count
	MidRunWaiters  float64 // trod_server_queued_conns as scraped mid-burst
	ScrapeSeries   int
}

// ObsPlanCacheResult records the multi-tenant plan-cache pressure run:
// hundreds-to-thousands of per-tenant query texts round-robined against a
// deliberately small query-text-keyed plan cache. The cache collapses —
// near-zero hit ratio, repeated wholesale resets — and span capture is the
// instrument that proves where the time went: plan_compile dominating
// execute across the sampled traces.
type ObsPlanCacheResult struct {
	Workers      int
	OpsPerWorker int
	Tenants      int
	CacheCap     int
	Queries      int // tenant queries issued
	DurationMs   float64

	CacheHits   uint64
	CacheMisses uint64
	CacheResets uint64
	HitPct      float64 // hits / (hits + misses)

	TracesKept      int     // sampled traces retained by the collector
	PlanCompileMs   float64 // summed plan_compile time across kept traces
	ExecuteMs       float64 // summed execute time across kept traces
	CompileShare    float64 // plan-compile share of compile+execute, percent
	ScrapeCompileN  float64 // trod_span_stage_seconds_count{stage="plan_compile"}
	ScrapeHasSeries bool    // the stage histogram series appeared on /metrics
}

// scrapeMetrics GETs a /metrics endpoint and parses the exposition text into
// series-name → value (labels kept in the name).
func scrapeMetrics(url string) (map[string]float64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: HTTP %d", url, resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// lockedBuffer collects the slow-query log concurrently with the sessions
// writing it.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

const (
	obsHotKeys        = 4
	obsLedgerRows     = 20_000
	obsFsyncDelay     = 200 * time.Microsecond
	obsSlowThreshold  = 250 * time.Microsecond
	obsSlowIDsToCheck = 50
)

// RunObsHotKey drives the hot-key conflict storm against a fully
// instrumented server (disk WAL with modelled fsync, runtime + tracer for
// provenance, slow-query log, metrics endpoint) and audits the
// observability surfaces themselves: the mid-run scrape must show all four
// layers, and every sampled slow-query request ID must resolve in the
// provenance database.
func RunObsHotKey(workers, opsPerWorker int) (*ObsHotKeyResult, error) {
	if workers <= 0 || opsPerWorker <= 0 {
		return nil, fmt.Errorf("experiments: obs hotkey needs positive workers/ops, got %d/%d", workers, opsPerWorker)
	}
	dir, err := os.MkdirTemp("", "trod-obs")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	prod, err := db.Open(db.Options{Mode: db.Disk, Path: filepath.Join(dir, "obs.wal"), Sync: wal.SyncEachCommit})
	if err != nil {
		return nil, err
	}
	defer prod.Close()
	prod.Log().SetSyncDelay(obsFsyncDelay)
	prov := db.MustOpenMemory()
	defer prov.Close()
	app := runtime.New(prod)
	tr, err := trace.Attach(app, prov, trace.Config{})
	if err != nil {
		return nil, err
	}
	defer tr.Close()

	if err := prod.ExecScript(workload.HotKeySchema); err != nil {
		return nil, err
	}
	for k := 0; k < obsHotKeys; k++ {
		if _, err := prod.Exec(`INSERT INTO counters VALUES (?, 0)`, k); err != nil {
			return nil, err
		}
	}
	// An unindexed ledger big enough that its periodic full-scan aggregate is
	// reliably slower than the slow-query threshold on any host: those
	// statements land in the slow-query log deterministically and carry a
	// full-scan plan shape an operator would recognise.
	if err := prod.ExecScript(`CREATE TABLE ledger (id INTEGER PRIMARY KEY, k INTEGER, amt INTEGER);`); err != nil {
		return nil, err
	}
	for base := 0; base < obsLedgerRows; base += 1000 {
		tx := prod.Begin()
		for i := base; i < base+1000 && i < obsLedgerRows; i++ {
			if _, err := tx.Exec(`INSERT INTO ledger VALUES (?, ?, ?)`, i, i%obsHotKeys, i%97); err != nil {
				tx.Rollback()
				return nil, err
			}
		}
		if err := tx.Commit(); err != nil {
			return nil, err
		}
	}

	var slow lockedBuffer
	srv, err := server.New(server.Config{
		DB:                 prod,
		App:                app,
		MaxConns:           workers + 4,
		TxnTimeout:         30 * time.Second,
		Tracer:             tr,
		SlowQueryThreshold: obsSlowThreshold,
		SlowQueryOutput:    &slow,
	})
	if err != nil {
		return nil, err
	}
	reg := metrics.NewRegistry()
	prod.RegisterMetrics(reg)
	srv.RegisterMetrics(reg)
	tr.RegisterMetrics(reg)
	ms, err := metrics.ServeHTTP("127.0.0.1:0", reg, func() error {
		if srv.Draining() {
			return fmt.Errorf("draining")
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer ms.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	addr := ln.Addr().String()

	plan := workload.HotKeyPlan(workers, opsPerWorker, obsHotKeys, 42)
	type workerOut struct {
		committed, conflicts int
		err                  error
	}
	outs := make([]workerOut, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := &outs[w]
			cl, err := client.Dial(addr, client.Options{PoolSize: 1})
			if err != nil {
				out.err = err
				return
			}
			defer cl.Close()
			for n, k := range plan[w] {
				if n%5 == 4 {
					// Periodic unindexed aggregate: reliably slow, so the
					// slow-query log always has material.
					if _, err := cl.Query(`SELECT SUM(amt) FROM ledger WHERE k = ?`, k); err != nil {
						out.err = err
						return
					}
				}
				// Read-modify-write with NO retry: a conflicted commit is the
				// data point, not a nuisance.
				tx, err := cl.Begin()
				if err != nil {
					out.err = err
					return
				}
				res, err := tx.Query(`SELECT n FROM counters WHERE k = ?`, k)
				if err == nil && len(res.Rows) == 1 {
					_, err = tx.Exec(`UPDATE counters SET n = ? WHERE k = ?`, res.Rows[0][0].AsInt()+1, k)
				}
				if err != nil {
					tx.Rollback()
					out.err = err
					return
				}
				if _, err := tx.Commit(); err != nil {
					if protocol.IsConflict(err) {
						out.conflicts++
						continue
					}
					out.err = err
					return
				}
				out.committed++
			}
		}(w)
	}

	// Scrape mid-storm: observability has to work while the system is busy,
	// not only at rest.
	time.Sleep(30 * time.Millisecond)
	series, scrapeErr := scrapeMetrics("http://" + ms.Addr() + "/metrics")
	healthOK := false
	if hr, err := http.Get("http://" + ms.Addr() + "/healthz"); err == nil {
		healthOK = hr.StatusCode == http.StatusOK
		io.Copy(io.Discard, hr.Body)
		hr.Body.Close()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if scrapeErr != nil {
		return nil, fmt.Errorf("experiments: mid-run scrape: %w", scrapeErr)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return nil, fmt.Errorf("experiments: obs shutdown: %w", err)
	}
	if err := <-serveDone; err != nil {
		return nil, fmt.Errorf("experiments: obs serve: %w", err)
	}
	if err := tr.Flush(); err != nil {
		return nil, err
	}

	res := &ObsHotKeyResult{
		Workers:         workers,
		OpsPerWorker:    opsPerWorker,
		Keys:            obsHotKeys,
		DurationMs:      float64(elapsed.Nanoseconds()) / 1e6,
		MidRunHealthzOK: healthOK,
		ScrapeSeries:    len(series),
		MidRunConflicts: series["trod_db_conflicts_total"],
	}
	for i := range outs {
		if outs[i].err != nil {
			return nil, fmt.Errorf("experiments: obs worker %d: %w", i, outs[i].err)
		}
		res.Committed += outs[i].committed
		res.Conflicts += outs[i].conflicts
	}
	if n := res.Committed + res.Conflicts; n > 0 {
		res.ConflictPct = 100 * float64(res.Conflicts) / float64(n)
	}
	st := srv.Stats()
	res.ServerConflicts = st.Conflicts
	res.DBConflicts = st.DBConflicts
	res.TracerEvents, res.TracerDrops, _ = tr.Counters()

	// The scrape must cover all four instrumented layers.
	res.ScrapeConsistent = true
	for _, probe := range []string{
		"trod_server_requests_total", // server
		"trod_db_commits_total",      // db/storage facade
		"trod_wal_syncs_total",       // storage/WAL
		"trod_tracer_events_total",   // tracer
	} {
		if _, ok := series[probe]; !ok {
			res.ScrapeConsistent = false
		}
	}

	// Resolve a sample of slow-query request IDs against provenance: this is
	// the runbook link (slow line → trod_requests → BeginAt/replay).
	raw := strings.TrimSpace(slow.String())
	if raw != "" {
		for _, line := range strings.Split(raw, "\n") {
			res.SlowQueryLines++
			if res.SlowIDsChecked >= obsSlowIDsToCheck {
				continue
			}
			var entry struct {
				ReqID string `json:"req_id"`
			}
			if err := json.Unmarshal([]byte(line), &entry); err != nil {
				return nil, fmt.Errorf("experiments: malformed slow-query line %q: %w", line, err)
			}
			rows, err := prov.Query(`SELECT ReqId FROM trod_requests WHERE ReqId = ?`, entry.ReqID)
			if err != nil {
				return nil, err
			}
			res.SlowIDsChecked++
			if len(rows.Rows) == 1 {
				res.SlowIDsResolved++
			}
		}
	}
	return res, nil
}

// Err returns a non-nil error when the hot-key run failed the observability
// claims it exists to check.
func (r *ObsHotKeyResult) Err() error {
	switch {
	case r.Conflicts == 0:
		return fmt.Errorf("obs hotkey: conflict storm produced zero conflicts")
	case !r.ScrapeConsistent:
		return fmt.Errorf("obs hotkey: mid-run scrape missing a layer's series")
	case !r.MidRunHealthzOK:
		return fmt.Errorf("obs hotkey: /healthz not OK while serving")
	case r.SlowQueryLines == 0:
		return fmt.Errorf("obs hotkey: no slow-query lines at a %v threshold under fsync delay", obsSlowThreshold)
	case r.SlowIDsResolved != r.SlowIDsChecked:
		return fmt.Errorf("obs hotkey: %d/%d slow-query request IDs resolved in provenance",
			r.SlowIDsResolved, r.SlowIDsChecked)
	}
	return nil
}

// RunObsOpenLoop fires bursty open-loop connection volleys at a server sized
// to saturate (small MaxConns, small queue, short queue wait), then reads
// the admission story back out of the metrics: queue-wait histogram
// observations for every admitted or timed-out connection and typed busy
// rejections for the overflow.
func RunObsOpenLoop(bursts, perBurst int) (*ObsOpenLoopResult, error) {
	if bursts <= 0 || perBurst <= 0 {
		return nil, fmt.Errorf("experiments: obs openloop needs positive bursts/perburst, got %d/%d", bursts, perBurst)
	}
	d := db.MustOpenMemory()
	defer d.Close()
	if err := d.ExecScript(`CREATE TABLE pings (id INTEGER PRIMARY KEY, v INTEGER)`); err != nil {
		return nil, err
	}
	if _, err := d.Exec(`INSERT INTO pings VALUES (1, 0)`); err != nil {
		return nil, err
	}

	const maxConns, queueDepth = 4, 8
	srv, err := server.New(server.Config{
		DB:         d,
		MaxConns:   maxConns,
		QueueDepth: queueDepth,
		QueueWait:  100 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	reg := metrics.NewRegistry()
	d.RegisterMetrics(reg)
	srv.RegisterMetrics(reg)
	ms, err := metrics.ServeHTTP("127.0.0.1:0", reg, func() error { return nil })
	if err != nil {
		return nil, err
	}
	defer ms.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	addr := ln.Addr().String()

	offsets := workload.BurstArrivals(bursts, perBurst, 40*time.Millisecond)
	type arrivalOut struct {
		served bool
		busy   bool
		err    error
	}
	outs := make([]arrivalOut, len(offsets))
	var wg sync.WaitGroup
	start := time.Now()
	for i, at := range offsets {
		wg.Add(1)
		go func(i int, at time.Duration) {
			defer wg.Done()
			// Open loop: arrive on schedule no matter how backed up the
			// server is.
			time.Sleep(at - time.Since(start))
			out := &outs[i]
			cl, err := client.Dial(addr, client.Options{PoolSize: 1})
			if err != nil {
				if protocol.IsBusy(err) {
					out.busy = true
					return
				}
				out.err = err
				return
			}
			defer cl.Close()
			// Hold the slot briefly so the next volley actually queues.
			if _, err := cl.Query(`SELECT v FROM pings WHERE id = 1`); err != nil {
				out.err = err
				return
			}
			time.Sleep(5 * time.Millisecond)
			out.served = true
		}(i, at)
	}

	// Scrape mid-burst, while the queue is live.
	time.Sleep(time.Duration(bursts) * 40 * time.Millisecond / 2)
	series, scrapeErr := scrapeMetrics("http://" + ms.Addr() + "/metrics")
	wg.Wait()
	elapsed := time.Since(start)
	if scrapeErr != nil {
		return nil, fmt.Errorf("experiments: mid-run scrape: %w", scrapeErr)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return nil, fmt.Errorf("experiments: obs shutdown: %w", err)
	}
	if err := <-serveDone; err != nil {
		return nil, fmt.Errorf("experiments: obs serve: %w", err)
	}

	res := &ObsOpenLoopResult{
		Arrivals:      len(offsets),
		Bursts:        bursts,
		PerBurst:      perBurst,
		MaxConns:      maxConns,
		QueueDepth:    queueDepth,
		DurationMs:    float64(elapsed.Nanoseconds()) / 1e6,
		MidRunWaiters: series["trod_server_queued_conns"],
		ScrapeSeries:  len(series),
	}
	for i := range outs {
		if outs[i].err != nil {
			return nil, fmt.Errorf("experiments: obs arrival %d: %w", i, outs[i].err)
		}
		if outs[i].served {
			res.Served++
		}
		if outs[i].busy {
			res.RejectedBusy++
		}
	}
	// Read the queue story from the server's own final scrape.
	final, err := scrapeMetrics("http://" + ms.Addr() + "/metrics")
	if err != nil {
		return nil, err
	}
	res.QueueWaitObs = uint64(final["trod_server_queue_wait_seconds_count"])
	if res.QueueWaitObs > 0 {
		res.QueueWaitAvgMs = 1000 * final["trod_server_queue_wait_seconds_sum"] / float64(res.QueueWaitObs)
	}
	return res, nil
}

// Err returns a non-nil error when the open-loop run failed to demonstrate
// the admission machinery it exists to observe.
func (r *ObsOpenLoopResult) Err() error {
	switch {
	case r.Served == 0:
		return fmt.Errorf("obs openloop: no arrivals were served")
	case r.QueueWaitObs == 0:
		return fmt.Errorf("obs openloop: queue-wait histogram recorded nothing")
	case r.Served+r.RejectedBusy != r.Arrivals:
		return fmt.Errorf("obs openloop: %d served + %d rejected != %d arrivals",
			r.Served, r.RejectedBusy, r.Arrivals)
	}
	return nil
}

// obsPlanCacheCap is the deliberately undersized plan-cache capacity for the
// multi-tenant pressure run: far fewer slots than tenant query texts.
const obsPlanCacheCap = 64

// RunObsPlanCache drives the multi-tenant plan-cache pressure workload:
// `tenants` per-tenant tables (distinct query text per tenant) queried
// uniformly against a cache capped at obsPlanCacheCap entries. The cache
// collapses — near-zero hit ratio, repeated wholesale resets — and the run
// proves it with span capture: every request traced (sample rate 1), and the
// aggregated plan_compile time across kept traces dominating execute time.
func RunObsPlanCache(workers, opsPerWorker, tenants int) (*ObsPlanCacheResult, error) {
	if workers <= 0 || opsPerWorker <= 0 || tenants <= 0 {
		return nil, fmt.Errorf("experiments: obs plancache needs positive workers/ops/tenants, got %d/%d/%d",
			workers, opsPerWorker, tenants)
	}
	if tenants <= 4*obsPlanCacheCap {
		return nil, fmt.Errorf("experiments: obs plancache needs tenants >> cache cap, got %d vs %d",
			tenants, obsPlanCacheCap)
	}
	d, err := db.Open(db.Options{PlanCacheCap: obsPlanCacheCap})
	if err != nil {
		return nil, err
	}
	defer d.Close()
	var ddl strings.Builder
	for i := 0; i < tenants; i++ {
		ddl.WriteString(workload.TenantSchema(i))
		ddl.WriteByte('\n')
	}
	if err := d.ExecScript(ddl.String()); err != nil {
		return nil, err
	}
	for base := 0; base < tenants; base += 500 {
		tx := d.Begin()
		for i := base; i < base+500 && i < tenants; i++ {
			if _, err := tx.Exec(workload.TenantSeed(i)); err != nil {
				tx.Rollback()
				return nil, err
			}
		}
		if err := tx.Commit(); err != nil {
			return nil, err
		}
	}

	// Sample rate 1: this run's whole point is reading the thrash out of the
	// spans, so keep every trace and size the ring to hold them all.
	col := span.NewCollector(span.CollectorOptions{Sample: 1, Capacity: workers*opsPerWorker + 16})
	srv, err := server.New(server.Config{
		DB:       d,
		MaxConns: workers + 2,
		Spans:    col,
	})
	if err != nil {
		return nil, err
	}
	reg := metrics.NewRegistry()
	d.RegisterMetrics(reg)
	srv.RegisterMetrics(reg)
	ms, err := metrics.ServeHTTP("127.0.0.1:0", reg, func() error { return nil })
	if err != nil {
		return nil, err
	}
	defer ms.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	addr := ln.Addr().String()

	plan := workload.TenantPlan(workers, opsPerWorker, tenants, 7)
	type workerOut struct {
		queries int
		err     error
	}
	outs := make([]workerOut, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := &outs[w]
			cl, err := client.Dial(addr, client.Options{PoolSize: 1})
			if err != nil {
				out.err = err
				return
			}
			defer cl.Close()
			for _, t := range plan[w] {
				if _, err := cl.Query(workload.TenantQuery(t)); err != nil {
					out.err = err
					return
				}
				out.queries++
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Scrape before shutdown: the per-stage histogram must expose the
	// compile storm on /metrics, not only in the raw traces.
	series, scrapeErr := scrapeMetrics("http://" + ms.Addr() + "/metrics")

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return nil, fmt.Errorf("experiments: obs shutdown: %w", err)
	}
	if err := <-serveDone; err != nil {
		return nil, fmt.Errorf("experiments: obs serve: %w", err)
	}
	if scrapeErr != nil {
		return nil, fmt.Errorf("experiments: plan-cache scrape: %w", scrapeErr)
	}

	res := &ObsPlanCacheResult{
		Workers:      workers,
		OpsPerWorker: opsPerWorker,
		Tenants:      tenants,
		CacheCap:     obsPlanCacheCap,
		DurationMs:   float64(elapsed.Nanoseconds()) / 1e6,
	}
	for i := range outs {
		if outs[i].err != nil {
			return nil, fmt.Errorf("experiments: obs tenant worker %d: %w", i, outs[i].err)
		}
		res.Queries += outs[i].queries
	}
	st := d.PlanCacheStats()
	res.CacheHits, res.CacheMisses, res.CacheResets = st.Hits, st.Misses, st.Resets
	if n := st.Hits + st.Misses; n > 0 {
		res.HitPct = 100 * float64(st.Hits) / float64(n)
	}
	for _, t := range col.Traces() {
		res.TracesKept++
		bd := span.BreakdownMs(t.Spans)
		res.PlanCompileMs += bd["plan_compile"]
		res.ExecuteMs += bd["execute"]
	}
	if tot := res.PlanCompileMs + res.ExecuteMs; tot > 0 {
		res.CompileShare = 100 * res.PlanCompileMs / tot
	}
	key := `trod_span_stage_seconds_count{stage="plan_compile"}`
	res.ScrapeCompileN, res.ScrapeHasSeries = series[key], false
	if _, ok := series[key]; ok {
		res.ScrapeHasSeries = true
	}
	return res, nil
}

// Err returns a non-nil error when the plan-cache run failed to reproduce the
// collapse, or when span capture failed to locate the time in plan_compile.
func (r *ObsPlanCacheResult) Err() error {
	switch {
	case r.Queries == 0:
		return fmt.Errorf("obs plancache: no tenant queries issued")
	case r.CacheResets == 0:
		return fmt.Errorf("obs plancache: no wholesale cache resets at cap %d under %d tenants",
			r.CacheCap, r.Tenants)
	case r.CacheMisses <= r.CacheHits:
		return fmt.Errorf("obs plancache: hit ratio did not collapse (%d hits, %d misses)",
			r.CacheHits, r.CacheMisses)
	case r.TracesKept == 0:
		return fmt.Errorf("obs plancache: tail sampler at rate 1 kept no traces")
	case r.PlanCompileMs <= r.ExecuteMs:
		return fmt.Errorf("obs plancache: plan_compile (%.2fms) did not dominate execute (%.2fms) in spans",
			r.PlanCompileMs, r.ExecuteMs)
	case !r.ScrapeHasSeries || r.ScrapeCompileN == 0:
		return fmt.Errorf("obs plancache: plan_compile stage histogram missing or empty on /metrics")
	}
	return nil
}

// RunObs runs all three observability workloads at the given scale.
func RunObs(workers, opsPerWorker, bursts, perBurst, tenants int) (*ObsResult, error) {
	hk, err := RunObsHotKey(workers, opsPerWorker)
	if err != nil {
		return nil, err
	}
	if err := hk.Err(); err != nil {
		return nil, err
	}
	ol, err := RunObsOpenLoop(bursts, perBurst)
	if err != nil {
		return nil, err
	}
	if err := ol.Err(); err != nil {
		return nil, err
	}
	pc, err := RunObsPlanCache(workers, 3*opsPerWorker, tenants)
	if err != nil {
		return nil, err
	}
	if err := pc.Err(); err != nil {
		return nil, err
	}
	return &ObsResult{HotKey: hk, OpenLoop: ol, PlanCache: pc}, nil
}
