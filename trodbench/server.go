package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/db"
	"repro/internal/protocol"
	"repro/internal/server"
	"repro/internal/wal"
)

// serverRW is the serving path: an in-process server on loopback over a
// disk-mode database, driven by two client connections, one goroutine
// each, with the tracer off. It is the only workload that crosses client,
// protocol, server and the WAL.
//
// The served database appends every commit to its WAL without fsync
// (wal.SyncNever). Real per-commit fsync on a shared virtual disk swung
// this workload's throughput by more than half between identical runs
// (README.md, "Why server_rw does not fsync"), so the layer-timed run
// prices fsync separately, on a twin database that fsyncs every commit.
type serverRW struct {
	seed  int64
	ops   [][]srvOp // per client goroutine
	codec map[string]float64
}

const (
	srvAccounts   = 10000
	srvOwners     = 1000 // srvAccounts/srvOwners rows per owner
	srvBalance    = 1000
	srvClients    = 2
	srvOpsPerConn = 4000
	srvTwins      = 600 // in-process twins per statement in the layer-timed run
	fsyncCommits  = 150 // per committer on the fsync twin
)

const (
	pointSQL  = `SELECT balance FROM accounts WHERE id = ?`
	rangeSQL  = `SELECT id, balance FROM accounts WHERE owner = ? LIMIT 10`
	updateSQL = `UPDATE accounts SET balance = ? WHERE id = ?`
)

type srvKind uint8

const (
	pointRead srvKind = iota
	rangeScan
	rmwTxn
)

var srvKindNames = [...]string{"point_read", "range_scan", "rmw_txn"}

type srvOp struct {
	kind srvKind
	id   int64
	// owner is the range scan's owner index.
	owner int64
}

func owner(i int64) string { return fmt.Sprintf("U%d", i) }

// serverProcs is server_rw's GOMAXPROCS. With two Ps every round trip
// wakes a goroutine on the other vCPU, and on a shared 2-vCPU VM that
// wake-up latency swung throughput by a quarter between identical runs. On
// one P the clients and the server hand off in-process, so the workload
// measures the serving path's own CPU cost (README.md).
const serverProcs = 1

func newServerRW(seed int64) benchWorkload {
	goruntime.GOMAXPROCS(serverProcs)
	rng := rand.New(rand.NewSource(seed))
	w := &serverRW{seed: seed, ops: make([][]srvOp, srvClients)}
	for g := range w.ops {
		w.ops[g] = make([]srvOp, srvOpsPerConn)
		for i := range w.ops[g] {
			op := srvOp{id: rng.Int63n(srvAccounts), owner: rng.Int63n(srvOwners)}
			switch p := rng.Intn(4); {
			case p < 2:
				op.kind = pointRead
			case p < 3:
				op.kind = rangeScan
			default:
				op.kind = rmwTxn
			}
			w.ops[g][i] = op
		}
	}
	return w
}

func (w *serverRW) record() map[string]any {
	return map[string]any{
		"accounts": srvAccounts, "owners": srvOwners, "clients": srvClients, "ops_per_client_per_round": srvOpsPerConn,
		"mix":      "50% PK point read, 25% secondary-index range LIMIT 10, 25% interactive read-modify-write",
		"database": "disk mode, server on 127.0.0.1, tracer off",
		"wal_fs":   fsType(buildDir()),
		"fsync": "served DB: wal.SyncNever (append, no fsync); layer-timed fsync twin: " +
			"wal.SyncEachCommit, real fsync, no SetSyncDelay, 2 committers",
	}
}

func (w *serverRW) round(timed bool) (*round, error) {
	r, err := w.pass(false)
	if err != nil || !timed {
		return r, err
	}
	t, err := w.pass(true)
	if err != nil {
		return nil, err
	}
	if w.codec == nil {
		w.codec = codecBench()
	}
	for k, v := range w.codec {
		t.layers[k] = v
	}
	t.layers["bench.timer_overhead_pct"] = (t.wallSec/r.wallSec - 1) * 100
	r.layers, r.spans = t.layers, t.spans
	r.attempted += t.attempted
	r.failed += t.failed
	return r, nil
}

// srvEnv is one set-up server: database, server, and connected clients.
type srvEnv struct {
	dir       string
	d         *db.DB
	srv       *server.Server
	serveDone chan error
	clients   []*client.Client
}

func (w *serverRW) open() (*srvEnv, error) {
	dir, err := os.MkdirTemp(buildDir(), "server_rw-")
	if err != nil {
		return nil, err
	}
	e := &srvEnv{dir: dir}
	e.d, err = db.Open(db.Options{Mode: db.Disk, Path: filepath.Join(dir, "accounts.wal"), Sync: wal.SyncNever})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if err := e.seed(); err != nil {
		e.close()
		return nil, err
	}
	e.srv, err = server.New(server.Config{DB: e.d, MaxConns: srvClients + 2})
	if err != nil {
		e.close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, err
	}
	e.serveDone = make(chan error, 1)
	go func() { e.serveDone <- e.srv.Serve(ln) }()
	for g := 0; g < srvClients; g++ {
		cl, err := client.Dial(ln.Addr().String(), client.Options{PoolSize: 1})
		if err != nil {
			e.close()
			return nil, err
		}
		e.clients = append(e.clients, cl)
	}
	return e, nil
}

func (e *srvEnv) seed() error {
	return seedAccounts(e.d, srvAccounts)
}

// seedAccounts creates the accounts table with n rows of srvBalance.
func seedAccounts(d *db.DB, n int64) error {
	if err := d.ExecScript(`
		CREATE TABLE accounts (id INTEGER PRIMARY KEY, owner TEXT, balance INTEGER);
		CREATE INDEX accounts_owner ON accounts (owner);`); err != nil {
		return err
	}
	for base := int64(0); base < n; base += 500 {
		tx := d.Begin()
		for i := base; i < base+500 && i < n; i++ {
			if _, err := tx.Exec(`INSERT INTO accounts VALUES (?, ?, ?)`, i, owner(i%srvOwners), srvBalance); err != nil {
				tx.Rollback()
				return err
			}
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	return nil
}

// close stops the clients, drains the server and removes the WAL directory.
func (e *srvEnv) close() {
	for _, cl := range e.clients {
		cl.Close()
	}
	if e.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		e.srv.Shutdown(ctx)
		cancel()
		if e.serveDone != nil {
			<-e.serveDone
		}
	}
	e.d.Close()
	os.RemoveAll(e.dir)
}

// connOut is one client goroutine's outcome.
type connOut struct {
	lat       []float64
	attempted int
	failed    int
	commits   int   // committed read-modify-write transactions
	conflicts int   // typed OCC aborts, retried inside the op
	err       error // first failed op's error, for the log
}

func (w *serverRW) pass(timed bool) (*round, error) {
	t0 := time.Now()
	e, err := w.open()
	if err != nil {
		return nil, err
	}
	defer e.close()
	setup := time.Since(t0).Seconds()

	recs := make([]*spanRec, srvClients)
	if timed {
		for g := range recs {
			recs[g] = newSpanRec()
		}
	}
	bytes0 := e.d.WALStats().BytesSinceCheckpoint
	gc := readGC()
	cpu0 := cpuSeconds()
	outs := make([]connOut, srvClients)
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < srvClients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			gs := time.Now()
			if recs[g] != nil {
				recs[g].t0 = gs
			}
			outs[g] = runConn(e.clients[g], w.ops[g], recs[g])
			if recs[g] != nil {
				recs[g].wallNs = int64(time.Since(gs))
			}
		}(g)
	}
	wg.Wait()
	wall := time.Since(start)

	r := &round{setupSec: setup, wallSec: wall.Seconds(), cpuSec: cpuSeconds() - cpu0}
	gcEnd := readGC()
	var commits, conflicts int
	for _, o := range outs {
		if o.err != nil {
			fmt.Fprintln(os.Stderr, o.err)
		}
		r.lat = append(r.lat, o.lat...)
		r.attempted += o.attempted
		r.failed += o.failed
		commits += o.commits
		conflicts += o.conflicts
	}
	r.heapMB = liveHeapMB()

	if timed {
		r.spans = recs
		r.layers = map[string]float64{}
		gc.report(gcEnd, r.layers)
		for _, k := range srvKindNames {
			r.layers["client.op_p50_us."+k] = percentile(sortedCopy(durationsUs(recs, "op."+k)), 0.5)
		}
		r.layers["client.op_p99_us.rmw_txn"] = percentile(sortedCopy(durationsUs(recs, "op.rmw_txn")), 0.99)
		attribute(recs, r.layers)
		r.layers["wal.bytes_per_commit"] = float64(e.d.WALStats().BytesSinceCheckpoint-bytes0) / float64(max(commits, 1))
		r.layers["txn.conflict_pct"] = pct(float64(conflicts), float64(commits+conflicts))
		st := e.srv.Stats()
		r.layers["server.busy_rejections"] = float64(st.RejectedBusy)
		r.layers["storage.resident_versions"] = float64(st.ResidentVersions)
		pc := e.d.PlanCacheStats()
		r.layers["db.plan_cache_hit_pct"] = pct(float64(pc.Hits), float64(pc.Hits+pc.Misses))
		dbCommits, dbConflicts := e.d.CommitStats()
		r.layers["db.conflict_pct"] = pct(float64(dbConflicts), float64(dbCommits+dbConflicts))
		twinCommits, err := w.twins(e.d, r.layers)
		if err != nil {
			return nil, err
		}
		commits += twinCommits
		if err := fsyncTwin(e.dir, r.layers); err != nil {
			return nil, err
		}
	}

	// Every committed read-modify-write added exactly 1 to one balance.
	res, err := e.d.Query(`SELECT SUM(balance) FROM accounts`)
	if err != nil {
		return nil, err
	}
	if got, want := res.Rows[0][0].AsInt(), int64(srvAccounts*srvBalance+commits); got != want {
		r.failed += max(abs(int(got-want)), 1)
		r.failed = min(r.failed, r.attempted)
	}
	return r, nil
}

// runConn runs one client goroutine's ops in order.
func runConn(cl *client.Client, ops []srvOp, rec *spanRec) connOut {
	out := connOut{lat: make([]float64, 0, len(ops))}
	for i, op := range ops {
		out.attempted++
		sp := rec.beginOp(i, srvKindNames[op.kind])
		t := time.Now()
		ok, err := runOp(cl, op, rec, &out)
		us := usSince(t)
		rec.endOp(sp)
		if err != nil && out.err == nil {
			out.err = fmt.Errorf("server_rw: %s: %w", srvKindNames[op.kind], err)
		}
		if err != nil || !ok {
			out.failed++
			continue
		}
		out.lat = append(out.lat, us)
	}
	return out
}

// runOp performs one op, retrying a conflicted transaction. ok is false when
// the op's result failed its check; err is a transport or server failure.
func runOp(cl *client.Client, op srvOp, rec *spanRec, out *connOut) (ok bool, err error) {
	call := func(name string, f func() (*client.Result, error)) (*client.Result, error) {
		sp := rec.begin(name)
		res, err := f()
		rec.end(sp)
		return res, err
	}
	switch op.kind {
	case pointRead:
		res, err := call("client.query", func() (*client.Result, error) { return cl.Query(pointSQL, op.id) })
		return err == nil && len(res.Rows) == 1, err
	case rangeScan:
		res, err := call("client.query", func() (*client.Result, error) { return cl.Query(rangeSQL, owner(op.owner)) })
		if err != nil {
			return false, err
		}
		for _, row := range res.Rows {
			if row[0].AsInt()%srvOwners != op.owner {
				return false, nil
			}
		}
		return len(res.Rows) == srvAccounts/srvOwners, nil
	}
	for {
		sp := rec.begin("client.begin")
		tx, err := cl.Begin()
		rec.end(sp)
		if err != nil {
			return false, err
		}
		res, err := call("client.query", func() (*client.Result, error) { return tx.Query(pointSQL, op.id) })
		if err == nil && len(res.Rows) != 1 {
			tx.Rollback()
			return false, nil
		}
		if err == nil {
			_, err = call("client.exec", func() (*client.Result, error) {
				return tx.Exec(updateSQL, res.Rows[0][0].AsInt()+1, op.id)
			})
		}
		if err != nil {
			tx.Rollback()
			return false, err
		}
		sp = rec.begin("client.commit")
		_, err = tx.Commit()
		rec.end(sp)
		switch {
		case err == nil:
			out.commits++
			return true, nil
		case protocol.IsConflict(err):
			out.conflicts++
		default:
			return false, err
		}
	}
}

// twins runs in-process copies of the served statements on the server's
// database, so client latency can be split into database time and the
// network round trip. It returns the read-modify-write commits it made.
func (w *serverRW) twins(d *db.DB, layers map[string]float64) (int, error) {
	rng := rand.New(rand.NewSource(w.seed))
	var point, rng10, commit []float64
	for i := 0; i < srvTwins; i++ {
		id := rng.Int63n(srvAccounts)
		t := time.Now()
		if _, err := d.Query(pointSQL, id); err != nil {
			return 0, err
		}
		point = append(point, usSince(t))
		t = time.Now()
		if _, err := d.Query(rangeSQL, owner(rng.Int63n(srvOwners))); err != nil {
			return 0, err
		}
		rng10 = append(rng10, usSince(t))
	}
	commits := 0
	for i := 0; i < srvTwins; i++ {
		id := rng.Int63n(srvAccounts)
		tx := d.Begin()
		res, err := tx.Query(pointSQL, id)
		if err == nil && len(res.Rows) != 1 {
			err = fmt.Errorf("server_rw: twin read of account %d returned %d rows", id, len(res.Rows))
		}
		if err == nil {
			_, err = tx.Exec(updateSQL, res.Rows[0][0].AsInt()+1, id)
		}
		if err != nil {
			tx.Rollback()
			return 0, err
		}
		t := time.Now()
		if err := tx.Commit(); err != nil {
			return 0, err
		}
		commit = append(commit, usSince(t))
		commits++
	}
	layers["db.query_p50_us.point_read"] = percentile(sortedCopy(point), 0.5)
	layers["db.query_p50_us.range_scan"] = percentile(sortedCopy(rng10), 0.5)
	layers["protocol.rtt_overhead_us"] = layers["client.op_p50_us.point_read"] - layers["db.query_p50_us.point_read"]
	sc := sortedCopy(commit)
	layers["db.commit_p50_us"] = percentile(sc, 0.5)
	layers["db.commit_p99_us"] = percentile(sc, 0.99)
	return commits, nil
}

// fsyncTwin prices real per-commit fsync: two goroutines run
// read-modify-write commits on disjoint rows of a small database in the
// same directory that fsyncs every commit (group commit may let one fsync
// cover both).
func fsyncTwin(dir string, layers map[string]float64) error {
	d, err := db.Open(db.Options{Mode: db.Disk, Path: filepath.Join(dir, "fsync.wal"), Sync: wal.SyncEachCommit})
	if err != nil {
		return err
	}
	defer d.Close()
	if err := seedAccounts(d, 2*fsyncCommits); err != nil {
		return err
	}
	syncs0 := d.WALStats().Syncs
	lat := make([][]float64, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for g := range lat {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < fsyncCommits; i++ {
				id := int64(g*fsyncCommits + i)
				tx := d.Begin()
				if _, err := tx.Exec(updateSQL, srvBalance+1, id); err != nil {
					tx.Rollback()
					errs[g] = err
					return
				}
				t := time.Now()
				if err := tx.Commit(); err != nil {
					errs[g] = err
					return
				}
				lat[g] = append(lat[g], usSince(t))
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	all := sortedCopy(append(lat[0], lat[1]...))
	layers["wal.fsync_commit_p50_us"] = percentile(all, 0.5)
	layers["wal.fsync_commit_p99_us"] = percentile(all, 0.99)
	layers["wal.syncs_per_commit"] = float64(d.WALStats().Syncs-syncs0) / float64(len(all))
	return nil
}
