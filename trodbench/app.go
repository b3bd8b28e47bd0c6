package main

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/db"
	"repro/internal/metrics"
	"repro/internal/runtime"
	"repro/internal/trace"
	"repro/internal/workload"
)

// appTraced is the paper's E1 production setting: the microservice app on
// an in-memory database with the always-on tracer writing to a separate
// in-memory provenance database, driven by one caller goroutine.
//
// The user population is large so that posts per user stay small over a
// round: with few users, readTimeline's per-followee
// "ORDER BY postId DESC LIMIT 5" reads every post of the followee and the
// per-request cost grows with the run (README.md, "readTimeline growth").
type appTraced struct {
	seed int64
	reqs appInputs
}

const (
	appUsers    = 10000
	appRequests = 20000
)

func newAppTraced(seed int64) benchWorkload {
	return &appTraced{seed: seed, reqs: newAppInputs(appRequests, appUsers, seed)}
}

func (w *appTraced) record() map[string]any {
	return map[string]any{
		"users": appUsers, "requests_per_round": appRequests, "callers": 1,
		"mix":      "40% createPost, 30% readPost, 20% readTimeline, 10% follow (workload.RequestMix)",
		"database": "in-memory app DB + in-memory provenance DB, tracer default config",
		"wal_fs":   "none (in-memory)", "fsync": "none (in-memory)",
	}
}

func (w *appTraced) round(timed bool) (*round, error) {
	r, err := w.pass(true, nil)
	if err != nil || !timed {
		return r, err
	}
	// Layer-timed run: an untraced pass on the same requests prices the
	// tracer; a timed pass attributes time to layers.
	off, err := w.pass(false, nil)
	if err != nil {
		return nil, err
	}
	rec := newSpanRec()
	t, err := w.pass(true, rec)
	if err != nil {
		return nil, err
	}
	r.layers = t.layers
	r.spans = []*spanRec{rec}
	r.layers["trace.cost_us_per_req"] = percentile(sortedCopy(r.lat), 0.5) - percentile(sortedCopy(off.lat), 0.5)
	r.layers["trace.overhead_pct"] = (r.wallSec/off.wallSec - 1) * 100
	r.layers["provenance.heap_bytes_per_req"] = (r.heapMB - off.heapMB) * (1 << 20) / float64(appRequests)
	r.layers["bench.timer_overhead_pct"] = (t.wallSec/r.wallSec - 1) * 100
	r.attempted += off.attempted + t.attempted
	r.failed += off.failed + t.failed
	return r, nil
}

// pass sets up a fresh app (traced or not), serves every request once, and
// checks the outcome. A non-nil rec makes it the layer-timed pass.
func (w *appTraced) pass(traced bool, rec *spanRec) (*round, error) {
	t0 := time.Now()
	a, err := openApp(appUsers, w.seed, traced)
	if err != nil {
		return nil, err
	}
	defer a.close()
	setup := time.Since(t0).Seconds()
	if rec != nil {
		a.instrument(rec)
	}

	gc := readGC()
	cpu0 := cpuSeconds()
	start := time.Now()
	if rec != nil {
		rec.t0 = start
	}
	out := a.serve(w.reqs, rec)
	if a.tr != nil {
		sp := rec.begin("trace.flush")
		ft := time.Now()
		if err := a.tr.Flush(); err != nil {
			return nil, err
		}
		if rec != nil {
			rec.end(sp)
			out.layers["trace.final_flush_ms"] = float64(time.Since(ft).Nanoseconds()) / 1e6
		}
	}
	wall := time.Since(start)
	out.cpuSec = cpuSeconds() - cpu0
	gcEnd := readGC()
	if rec != nil {
		rec.wallNs = int64(wall)
	}
	out.setupSec = setup
	out.wallSec = wall.Seconds()
	out.heapMB = liveHeapMB()

	bad, err := a.check(w.reqs, out.results)
	if err != nil {
		return nil, err
	}
	for i := range bad {
		if bad[i] && out.errs[i] == nil {
			out.failed++
		}
	}
	out.failed += a.globalFailures
	out.failed = min(out.failed, out.attempted)
	if rec != nil {
		gc.report(gcEnd, out.layers)
		a.reportLayers(w.reqs, rec, out.layers)
	}
	return &out.round, nil
}

// appInputs is a generated request sequence plus what the generator knows
// the app must end up with.
type appInputs struct {
	handlers []string
	args     []runtime.Args
	// want is each request's expected result ("" = not checked).
	want []string
	// posts lists the created posts as "postId|userId|body", in postId order.
	posts []string
	// userPosts maps a user to their createPost requests, in request order.
	userPosts map[int64][]userPost
}

type userPost struct {
	reqID  string
	postID int64
}

func newAppInputs(n, users int, seed int64) appInputs {
	h, args := workload.RequestMix(n, users, seed)
	in := appInputs{handlers: h, args: args, want: make([]string, n), userPosts: map[int64][]userPost{}}
	var bodies []string
	for i := range h {
		a := args[i]
		switch h[i] {
		case "createPost":
			id, user := a.Int("postId"), a.Int("userId")
			bodies = append(bodies, a.String("body"))
			in.want[i] = runtime.ResultJSON(id)
			in.posts = append(in.posts, fmt.Sprintf("%d|%d|%s", id, user, a.String("body")))
			in.userPosts[user] = append(in.userPosts[user], userPost{reqID: reqID(i), postID: id})
		case "readPost":
			// RequestMix only references posts created earlier, except that
			// before the first post it reads post 1, which is then absent.
			if id := a.Int("postId"); int(id) <= len(bodies) {
				in.want[i] = runtime.ResultJSON(bodies[id-1])
			} else {
				in.want[i] = "null"
			}
		}
	}
	return in
}

// reqID is the ID runtime.App gives the i-th request of a fresh app.
func reqID(i int) string { return "R" + strconv.Itoa(i+1) }

// appDB is one set-up app: production DB, runtime, and optional tracer.
type appDB struct {
	prod, prov *db.DB
	app        *runtime.App
	tr         *trace.Tracer
	reg        *metrics.Registry
	// globalFailures counts check failures not tied to one request.
	globalFailures int
}

func openApp(users int, seed int64, traced bool) (*appDB, error) {
	a := &appDB{prod: db.MustOpenMemory()}
	if err := workload.SetupMicroservice(a.prod, users, seed); err != nil {
		a.close()
		return nil, err
	}
	a.app = runtime.New(a.prod)
	workload.RegisterMicroservice(a.app)
	if !traced {
		return a, nil
	}
	a.prov = db.MustOpenMemory()
	tr, err := trace.Attach(a.app, a.prov, trace.Config{Tables: workload.MicroserviceTables})
	if err != nil {
		a.close()
		return nil, err
	}
	a.tr = tr
	a.reg = metrics.NewRegistry()
	tr.RegisterMetrics(a.reg)
	return a, nil
}

func (a *appDB) close() {
	if a.tr != nil {
		a.tr.Close()
	}
	a.prod.Close()
	if a.prov != nil {
		a.prov.Close()
	}
}

// instrument puts the benchmark's span hooks on the app: the tracer's
// runtime-observer callbacks become trace.* spans and each transaction
// block becomes a db.txn span.
func (a *appDB) instrument(rec *spanRec) {
	if a.tr != nil {
		a.app.SetObserver(&timedObserver{inner: a.tr, rec: rec})
	}
	a.app.SetTxnInterceptor(&txnTimer{rec: rec})
}

type servedApp struct {
	round
	results []string
	errs    []error
}

// serve invokes every request in order on the caller goroutine.
func (a *appDB) serve(in appInputs, rec *spanRec) servedApp {
	n := len(in.handlers)
	out := servedApp{results: make([]string, n), errs: make([]error, n)}
	out.lat = make([]float64, 0, n)
	out.attempted = n
	if rec != nil {
		out.layers = map[string]float64{}
	}
	for i := 0; i < n; i++ {
		op := rec.beginOp(i, in.handlers[i])
		sp := rec.begin("runtime.invoke." + in.handlers[i])
		t := time.Now()
		res, err := a.app.Invoke(in.handlers[i], in.args[i])
		us := usSince(t)
		rec.end(sp)
		rec.endOp(op)
		if err != nil {
			out.errs[i] = err
			out.failed++
			continue
		}
		out.lat = append(out.lat, us)
		if in.want[i] != "" {
			out.results[i] = runtime.ResultJSON(res)
		}
	}
	return out
}

// check verifies results, posts and (when traced) provenance, returning the
// requests that failed a check.
func (a *appDB) check(in appInputs, results []string) ([]bool, error) {
	n := len(in.handlers)
	bad := make([]bool, n)
	for i := range results {
		if in.want[i] != "" && results[i] != in.want[i] {
			bad[i] = true
		}
	}
	// The provenance checks come first: the posts query below is itself a
	// traced transaction, with no request ID.
	if a.tr != nil {
		if err := a.checkProvenance(in, bad); err != nil {
			return nil, err
		}
	}
	rows, err := a.prod.Query(`SELECT postId, userId, body FROM posts ORDER BY postId`)
	if err != nil {
		return nil, err
	}
	if len(rows.Rows) != len(in.posts) {
		a.globalFailures += abs(len(rows.Rows) - len(in.posts))
	}
	for i, r := range rows.Rows {
		got := fmt.Sprintf("%d|%d|%s", r[0].AsInt(), r[1].AsInt(), r[2].AsText())
		if i < len(in.posts) && got != in.posts[i] {
			a.globalFailures++
		}
	}
	return bad, nil
}

// checkProvenance verifies that every request has its trod_requests row,
// every Executions.ReqId resolves to one, and the tracer dropped nothing.
func (a *appDB) checkProvenance(in appInputs, bad []bool) error {
	n := len(in.handlers)
	_, drops, _ := a.tr.Counters()
	a.globalFailures += int(drops)
	reqs, err := a.prov.Query(`SELECT ReqId, HandlerName, Status FROM trod_requests`)
	if err != nil {
		return err
	}
	seen := make(map[string]bool, n)
	for _, r := range reqs.Rows {
		id := r[0].AsText()
		i, err := strconv.Atoi(strings.TrimPrefix(id, "R"))
		if err != nil || i < 1 || i > n || r[1].AsText() != in.handlers[i-1] || r[2].AsText() != "ok" {
			a.globalFailures++
			continue
		}
		seen[id] = true
	}
	for i := 0; i < n; i++ {
		if !seen[reqID(i)] {
			bad[i] = true
		}
	}
	execs, err := a.prov.Query(`SELECT ReqId FROM Executions`)
	if err != nil {
		return err
	}
	for _, r := range execs.Rows {
		if !seen[r[0].AsText()] {
			a.globalFailures++
		}
	}
	return nil
}

// reportLayers fills the app_traced layer metrics from the timed pass.
func (a *appDB) reportLayers(in appInputs, rec *spanRec, layers map[string]float64) {
	n := float64(len(in.handlers))
	recs := []*spanRec{rec}
	for _, h := range []string{"createPost", "readPost", "readTimeline", "follow"} {
		layers["runtime.invoke_p50_us."+h] = percentile(sortedCopy(durationsUs(recs, "runtime.invoke."+h)), 0.5)
	}
	attribute(recs, layers)
	pc := a.prod.PlanCacheStats()
	layers["db.plan_cache_hit_pct"] = pct(float64(pc.Hits), float64(pc.Hits+pc.Misses))
	commits, conflicts := a.prod.CommitStats()
	layers["db.conflict_pct"] = pct(float64(conflicts), float64(commits+conflicts))
	if a.tr == nil {
		return
	}
	events, drops, flushes := a.tr.Counters()
	layers["trace.events_per_req"] = float64(events) / n
	layers["trace.events_per_flush"] = float64(events) / float64(max(flushes, 1))
	layers["trace.drops"] = float64(drops)
	sum, _ := histogram(a.reg, "trod_tracer_flush_seconds")
	layers["provenance.apply_busy_pct"] = pct(sum, float64(rec.wallNs)/1e9)
	layers["provenance.apply_ns_per_event"] = sum * 1e9 / float64(max(events, 1))
	var total, reads int
	for _, t := range a.prov.Store().Tables() {
		res, err := a.prov.Query("SELECT COUNT(*) FROM " + t)
		if err == nil {
			total += int(res.Rows[0][0].AsInt())
		}
	}
	for _, t := range workload.MicroserviceTables {
		res, err := a.prov.Query("SELECT COUNT(*) FROM " + t + " WHERE Type = 'Read'")
		if err == nil {
			reads += int(res.Rows[0][0].AsInt())
		}
	}
	layers["provenance.rows_per_req"] = float64(total) / n
	layers["provenance.read_rows_per_req"] = float64(reads) / n
}

// histogram reads a histogram's sum and count from reg's text exposition —
// the same numbers a /metrics scrape sees.
func histogram(reg *metrics.Registry, name string) (sum float64, count uint64) {
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		return 0, 0
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			continue
		}
		switch f[0] {
		case name + "_sum":
			sum, _ = strconv.ParseFloat(f[1], 64)
		case name + "_count":
			count, _ = strconv.ParseUint(f[1], 10, 64)
		}
	}
	return sum, count
}

// timedObserver wraps the tracer's runtime.Observer callbacks in spans.
type timedObserver struct {
	inner runtime.Observer
	rec   *spanRec
}

func (o *timedObserver) RequestStart(i runtime.RequestInfo) {
	sp := o.rec.begin("trace.request_start")
	o.inner.RequestStart(i)
	o.rec.end(sp)
}

func (o *timedObserver) RequestEnd(i runtime.RequestInfo) {
	sp := o.rec.begin("trace.request_end")
	o.inner.RequestEnd(i)
	o.rec.end(sp)
}

func (o *timedObserver) Invocation(i runtime.InvocationInfo) {
	sp := o.rec.begin("trace.invocation")
	o.inner.Invocation(i)
	o.rec.end(sp)
}

func (o *timedObserver) External(c runtime.ExternalCall) {
	sp := o.rec.begin("trace.external")
	o.inner.External(c)
	o.rec.end(sp)
}

// txnTimer turns each transaction block (runtime.Ctx.Txn around
// db.RunTx) into a db.txn span. The tracer's commit hooks run inside it.
type txnTimer struct {
	rec  *spanRec
	open int32
}

func (t *txnTimer) Before(*runtime.Ctx, string) error {
	t.open = t.rec.begin("db.txn")
	return nil
}

func (t *txnTimer) After(*runtime.Ctx, string, error) { t.rec.end(t.open) }

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
