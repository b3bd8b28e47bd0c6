package main

import (
	"math/rand"
	"sort"
	"time"

	"repro/internal/replay"
	"repro/internal/runtime"
	"repro/internal/workload"
)

// debugSession is the paper's debugging half. Set-up serves traced
// microservice traffic, leaving a production database with real history
// and a real provenance database. One op is one debugging session on one
// goroutine: the §3.3 provenance join for a sampled user's posts, a lookup
// of one returned request, and a faithful replay of that request with full
// restore, which must not diverge.
type debugSession struct {
	seed     int64
	traffic  appInputs
	sessions []session
}

const (
	dbgUsers    = 2000
	dbgRequests = 6000
	dbgSessions = 100
)

const sec33Join = `SELECT E.ReqId, P.postId FROM Executions as E, PostEvents as P
	WHERE E.TxnId = P.TxnId AND P.userId = ? AND P.Type = 'Insert' ORDER BY E.Timestamp`

const reqLookup = `SELECT HandlerName, Status FROM trod_requests WHERE ReqId = ?`

// session is one planned debugging session: whose posts to find and which
// of the returned requests to replay.
type session struct {
	user int64
	pick int
}

func newDebugSession(seed int64) benchWorkload {
	// Set-up traffic uses a seed of its own, distinct from app_traced's.
	w := &debugSession{seed: seed, traffic: newAppInputs(dbgRequests, dbgUsers, seed+7919)}
	var users []int64
	for u := range w.traffic.userPosts {
		users = append(users, u)
	}
	sort.Slice(users, func(i, j int) bool { return users[i] < users[j] })
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < dbgSessions; i++ {
		u := users[rng.Intn(len(users))]
		w.sessions = append(w.sessions, session{user: u, pick: rng.Intn(len(w.traffic.userPosts[u]))})
	}
	return w
}

func (w *debugSession) record() map[string]any {
	return map[string]any{
		"users": dbgUsers, "setup_requests": dbgRequests, "sessions_per_round": dbgSessions, "callers": 1,
		"session":  "sec 3.3 provenance join, request lookup, replay with full restore",
		"database": "in-memory production DB + in-memory provenance DB",
		"wal_fs":   "none (in-memory)", "fsync": "none (in-memory)",
	}
}

func (w *debugSession) round(timed bool) (*round, error) {
	r, err := w.pass(nil)
	if err != nil || !timed {
		return r, err
	}
	rec := newSpanRec()
	t, err := w.pass(rec)
	if err != nil {
		return nil, err
	}
	t.layers["bench.timer_overhead_pct"] = (t.wallSec/r.wallSec - 1) * 100
	r.layers, r.spans = t.layers, []*spanRec{rec}
	r.attempted += t.attempted
	r.failed += t.failed
	return r, nil
}

func (w *debugSession) pass(rec *spanRec) (*round, error) {
	t0 := time.Now()
	a, err := openApp(dbgUsers, w.seed, true)
	if err != nil {
		return nil, err
	}
	defer a.close()
	ts := time.Now()
	served := a.serve(w.traffic, nil)
	if err := a.tr.Flush(); err != nil {
		return nil, err
	}
	ingest := time.Since(ts).Seconds()
	bad, err := a.check(w.traffic, served.results)
	if err != nil {
		return nil, err
	}
	// A set-up request that fails its check makes the run incorrect.
	setupFailed := served.failed + a.globalFailures
	for _, b := range bad {
		if b {
			setupFailed++
		}
	}
	replayer := replay.New(a.prod, a.tr.Writer())
	r := &round{setupSec: time.Since(t0).Seconds(), attempted: len(w.sessions), failed: setupFailed}

	var joinUs, lookupUs, restoreMs, reexecMs []float64
	injected, diverged := 0, 0
	register := workload.RegisterMicroservice
	if rec != nil {
		register = func(app *runtime.App) {
			workload.RegisterMicroservice(app)
			app.SetObserver(&invokeTimer{rec: rec})
		}
	}
	gc := readGC()
	cpu0 := cpuSeconds()
	start := time.Now()
	if rec != nil {
		rec.t0 = start
	}
	for i, s := range w.sessions {
		op := rec.beginOp(i, "session")
		t := time.Now()
		ok := true

		sp := rec.begin("sqlexec.sec33_join")
		tq := time.Now()
		rows, err := a.prov.Query(sec33Join, s.user)
		joinUs = append(joinUs, usSince(tq))
		rec.end(sp)
		want := w.traffic.userPosts[s.user]
		if err != nil || len(rows.Rows) != len(want) {
			ok = false
		} else {
			for j, row := range rows.Rows {
				if row[0].AsText() != want[j].reqID || row[1].AsInt() != want[j].postID {
					ok = false
				}
			}
		}
		req := want[s.pick].reqID
		if ok {
			req = rows.Rows[s.pick][0].AsText()
		}

		sp = rec.begin("sqlexec.req_lookup")
		tq = time.Now()
		rows, err = a.prov.Query(reqLookup, req)
		lookupUs = append(lookupUs, usSince(tq))
		rec.end(sp)
		if err != nil || len(rows.Rows) != 1 || rows.Rows[0][0].AsText() != "createPost" || rows.Rows[0][1].AsText() != "ok" {
			ok = false
		}

		sp = rec.begin("replay.replay")
		tr := time.Now()
		var firstBreak time.Time
		rep, err := replayer.Replay(req, register, replay.Options{OnBreakpoint: func(b replay.Breakpoint) {
			if firstBreak.IsZero() {
				firstBreak = time.Now()
			}
		}})
		end := time.Now()
		rec.end(sp)
		if err != nil || rep.Err != nil || rep.Diverged {
			ok = false
			diverged++
		} else {
			for _, st := range rep.Steps {
				injected += len(st.Injected)
			}
			restoreMs = append(restoreMs, float64(firstBreak.Sub(tr).Nanoseconds())/1e6)
			reexecMs = append(reexecMs, float64(end.Sub(firstBreak).Nanoseconds())/1e6)
		}
		rec.endOp(op)
		if !ok {
			r.failed++
			continue
		}
		r.lat = append(r.lat, usSince(t))
	}
	wall := time.Since(start)
	r.wallSec, r.cpuSec = wall.Seconds(), cpuSeconds()-cpu0
	gcEnd := readGC()
	r.heapMB = liveHeapMB()
	r.failed = min(r.failed, r.attempted)
	if rec == nil {
		return r, nil
	}
	rec.wallNs = int64(wall)
	r.layers = map[string]float64{}
	gc.report(gcEnd, r.layers)
	attribute([]*spanRec{rec}, r.layers)
	events, _, _ := a.tr.Counters()
	r.layers["provenance.ingest_events_per_s"] = float64(events) / ingest
	r.layers["sqlexec.query_p50_us.sec33_join"] = percentile(sortedCopy(joinUs), 0.5)
	r.layers["sqlexec.query_p50_us.req_lookup"] = percentile(sortedCopy(lookupUs), 0.5)
	r.layers["replay.restore_p50_ms"] = percentile(sortedCopy(restoreMs), 0.5)
	r.layers["replay.reexec_p50_ms"] = percentile(sortedCopy(reexecMs), 0.5)
	r.layers["replay.injected_writes_per_replay"] = float64(injected) / float64(len(w.sessions))
	r.layers["replay.diverged"] = float64(diverged)
	pc := a.prov.PlanCacheStats()
	r.layers["db.plan_cache_hit_pct"] = pct(float64(pc.Hits), float64(pc.Hits+pc.Misses))
	return r, nil
}

// invokeTimer is the observer of a replay's development runtime: the
// re-executed request becomes a runtime.invoke span inside replay.replay.
type invokeTimer struct {
	rec  *spanRec
	open int32
}

func (o *invokeTimer) RequestStart(i runtime.RequestInfo) {
	o.open = o.rec.begin("runtime.invoke." + i.Handler)
}
func (o *invokeTimer) RequestEnd(runtime.RequestInfo)    { o.rec.end(o.open) }
func (o *invokeTimer) Invocation(runtime.InvocationInfo) {}
func (o *invokeTimer) External(runtime.ExternalCall)     {}
