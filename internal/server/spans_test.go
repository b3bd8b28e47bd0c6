package server

import (
	"path/filepath"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/db"
	"repro/internal/protocol"
	"repro/internal/runtime"
	"repro/internal/span"
	"repro/internal/trace"
	"repro/internal/wal"
)

// tracedServer boots a server over an in-memory database with an always-on
// tracer attached (cfg.App and cfg.Tracer), the way trod-server -prov runs.
// wait blocks until every request's post-response work (kept-trace push
// included) is done.
func tracedServer(t *testing.T, cfg Config) (addr string, wait func(), tr *trace.Tracer) {
	t.Helper()
	d := db.MustOpenMemory()
	prov := db.MustOpenMemory()
	app := runtime.New(d)
	tr, err := trace.Attach(app, prov, trace.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Registered before the server's cleanup, so it runs after shutdown.
	t.Cleanup(func() { tr.Close(); prov.Close(); d.Close() })
	cfg.App, cfg.Tracer = app, tr
	_, addr, wait = settledServer(t, d, cfg)
	return addr, wait, tr
}

// findTrace polls the collector for the newest kept trace of a request kind.
func findTrace(t *testing.T, col *span.Collector, kind string) *span.Trace {
	t.Helper()
	var got *span.Trace
	waitFor(t, "a kept "+kind+" trace", func() bool {
		for _, tr := range col.Traces() {
			if tr.Kind == kind {
				got = tr
			}
		}
		return got != nil
	})
	return got
}

func stages(tr *span.Trace) map[string]int {
	out := map[string]int{}
	for _, s := range tr.Spans {
		out[s.Stage.String()]++
	}
	return out
}

// TestSpansEndToEnd drives traced requests through a live server and follows
// the whole observability path: collector capture, the tracer writing kept
// traces to the provenance trod_spans table, and one over-the-wire SQL
// statement joining a trace's spans to its Executions row and commit seq.
func TestSpansEndToEnd(t *testing.T) {
	col := span.NewCollector(span.CollectorOptions{Sample: 1})
	addr, settled, _ := tracedServer(t, Config{Spans: col})
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Exec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`INSERT INTO t VALUES (1, 'a')`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(`SELECT v FROM t WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	settled()

	ins := findTrace(t, col, "exec")
	if ins.Status != "ok" || ins.ReqID == "" || ins.Seq == 0 {
		t.Fatalf("insert trace malformed: %+v", ins)
	}
	st := stages(ins)
	for _, want := range []string{"request", "frame_read", "parse_plan", "execute", "occ_validate"} {
		if st[want] == 0 {
			t.Fatalf("insert trace missing %s stage (have %v)", want, st)
		}
	}
	q := findTrace(t, col, "query")
	if stages(q)["execute"] == 0 || stages(q)["parse_plan"] == 0 {
		t.Fatalf("query trace missing stages: %v", stages(q))
	}

	res, err := c.ProvQuery(`SELECT S.stage, E.CommitSeq FROM trod_spans AS S
		JOIN Executions AS E ON S.req_id = E.ReqId WHERE S.req_id = ?`, ins.ReqID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(ins.Spans) {
		t.Fatalf("spans ⋈ Executions has %d rows for %s, collector trace has %d spans", len(res.Rows), ins.ReqID, len(ins.Spans))
	}
	for _, r := range res.Rows {
		if seq := uint64(r[1].AsInt()); seq != ins.Seq {
			t.Fatalf("span %s joins CommitSeq %d, trace seq is %d", r[0].AsText(), seq, ins.Seq)
		}
	}
}

// TestSpansSQLMentionStaysInAppDB: on a span-traced server, an application
// statement whose text mentions trod_spans runs against the application
// database like any other.
func TestSpansSQLMentionStaysInAppDB(t *testing.T) {
	_, addr := memServer(t, Config{Spans: span.NewCollector(span.CollectorOptions{Sample: 1})})
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec(`CREATE TABLE notes (id INTEGER PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`INSERT INTO notes VALUES (1, 'see trod_spans')`); err != nil {
		t.Fatalf("insert mentioning trod_spans: %v", err)
	}
	res, err := c.Query(`SELECT id FROM notes WHERE v = 'see trod_spans'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 1 {
		t.Fatalf("notes rows = %v, want the inserted row", res.Rows)
	}
}

// TestProvQueryReadOnly: the provenance surface is read-only — writes and
// DDL fail typed — and a server without a tracer refuses it typed.
func TestProvQueryReadOnly(t *testing.T) {
	addr, _, _ := tracedServer(t, Config{})
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, stmt := range []string{
		`INSERT INTO trod_spans (id, req_id) VALUES (1, 'forged')`,
		`CREATE TABLE forged (id INTEGER PRIMARY KEY)`,
	} {
		if _, err := c.ProvQuery(stmt); !protocol.IsReadOnlyTxn(err) {
			t.Errorf("ProvQuery(%q): err = %v, want read-only-txn", stmt, err)
		}
	}
	if _, err := c.ProvQuery(`SELECT COUNT(*) FROM Executions`); err != nil {
		t.Fatalf("read over the provenance surface: %v", err)
	}

	_, plain := memServer(t, Config{})
	pc, err := client.Dial(plain, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	if _, err := pc.ProvQuery(`SELECT COUNT(*) FROM Executions`); !protocol.IsCode(err, protocol.CodeBadRequest) {
		t.Fatalf("ProvQuery without a tracer: err = %v, want bad-request", err)
	}
}

// TestSpansTailSamplingKeepsErrors: with the probabilistic sampler
// effectively off, error traces are still always kept.
func TestSpansTailSamplingKeepsErrors(t *testing.T) {
	col := span.NewCollector(span.CollectorOptions{KeepOver: time.Hour})
	_, addr := memServer(t, Config{Spans: col})
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Query(`SELECT broken syntax here`); err == nil {
		t.Fatal("broken SQL succeeded")
	}
	tr := findTrace(t, col, "query")
	if tr.Status != "error" {
		t.Fatalf("kept trace status = %q, want error", tr.Status)
	}
	if _, err := c.Query(`SELECT 1 WHERE 1 = 1`); err != nil {
		// fine either way; the point is below
		_ = err
	}
	st := col.Stats()
	if st.Kept == 0 || st.Kept > 1 {
		t.Fatalf("tail sampler kept %d traces, want exactly the error trace", st.Kept)
	}
}

// TestSpanStageCoverage pins the acceptance bar: for a slow (fsync-bound)
// write, the recorded stage spans must account for at least 90% of the
// request's wall time — the trace is an explanation, not a sample of one.
func TestSpanStageCoverage(t *testing.T) {
	dir := t.TempDir()
	d, err := db.Open(db.Options{Mode: db.Disk, Path: filepath.Join(dir, "w.wal"), Sync: wal.SyncEachCommit})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	d.Log().SetSyncDelay(2 * time.Millisecond)

	col := span.NewCollector(span.CollectorOptions{Sample: 1})
	_, addr, settled := settledServer(t, d, Config{Spans: col})
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Exec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`INSERT INTO t VALUES (1, 0)`); err != nil {
		t.Fatal(err)
	}
	// The trace is offered after the ack; wait for it rather than racing.
	settled()

	var ins *span.Trace
	for _, tr := range col.Traces() {
		if tr.Kind == "exec" && tr.Seq != 0 {
			ins = tr
		}
	}
	if ins == nil {
		t.Fatal("no committed exec trace kept")
	}
	sum, wall := span.StageSumNs(ins.Spans), int64(ins.Wall)
	if wall <= 0 {
		t.Fatalf("trace wall = %d", wall)
	}
	if cov := float64(sum) / float64(wall); cov < 0.9 {
		t.Fatalf("stage spans cover %.1f%% of a %.2fms request, want >= 90%% (spans: %v)",
			100*cov, float64(wall)/1e6, span.BreakdownMs(ins.Spans))
	}
	st := stages(ins)
	if st["wal_fsync"] == 0 && st["group_commit_wait"] == 0 {
		t.Fatalf("fsync-bound commit shows neither wal_fsync nor group_commit_wait: %v", st)
	}
}

// TestClientTracePropagation: a client-originated trace context rides the
// wire, so the server-side trace carries the client's trace ID and the
// client records its own pool/rtt spans under the same trace.
func TestClientTracePropagation(t *testing.T) {
	scol := span.NewCollector(span.CollectorOptions{Sample: 1})
	_, addr := memServer(t, Config{Spans: scol})
	ccol := span.NewCollector(span.CollectorOptions{Sample: 1})
	ccol.SeedTraceIDs(1 << 40) // disjoint from the server's allocator
	c, err := client.Dial(addr, client.Options{Collector: ccol})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Exec(`CREATE TABLE t (id INTEGER PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}

	ctr := findTrace(t, ccol, "exec")
	if ctr.TraceID <= 1<<40 {
		t.Fatalf("client trace ID %d not from the seeded range", ctr.TraceID)
	}
	cst := stages(ctr)
	if cst["rtt"] == 0 || cst["pool_checkout"] == 0 {
		t.Fatalf("client trace missing rtt/pool_checkout: %v", cst)
	}
	str := findTrace(t, scol, "exec")
	if str.TraceID != ctr.TraceID {
		t.Fatalf("server trace ID %d != client trace ID %d: context did not propagate", str.TraceID, ctr.TraceID)
	}
	// The server's root span parents under the client's root, so a merged
	// tree renders the server stages inside the client's rtt window.
	if root := str.Spans[0]; root.Parent != span.RootID {
		t.Fatalf("server root parent = %d, want the client's root span ID %d", root.Parent, span.RootID)
	}
}

// TestSpansDisabledNoStore: with a tracer but no span collector, requests
// leave provenance rows but no trod_spans rows, and the application database
// has no trod_spans table.
func TestSpansDisabledNoStore(t *testing.T) {
	addr, settled, tr := tracedServer(t, Config{})
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec(`CREATE TABLE t (id INTEGER PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`INSERT INTO t VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(`SELECT * FROM trod_spans`); err == nil {
		t.Fatal("trod_spans resolved in the application database")
	}
	settled()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	for table, want := range map[string]func(int64) bool{
		"Executions": func(n int64) bool { return n > 0 },
		"trod_spans": func(n int64) bool { return n == 0 },
	} {
		res, err := tr.Prov().Query(`SELECT COUNT(*) FROM ` + table)
		if err != nil {
			t.Fatal(err)
		}
		if n := res.Rows[0][0].AsInt(); !want(n) {
			t.Fatalf("%s has %d rows with span tracing disabled", table, n)
		}
	}
}
