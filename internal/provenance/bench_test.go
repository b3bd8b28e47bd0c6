package provenance_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/provenance"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/workload"
)

// mixBatch renders the microservice request mix into the events the tracer
// would emit for it, in the tracer's order (each transaction, then its CDC
// writes; the request row last), stopping at n events.
func mixBatch(n int) []provenance.Event {
	const users = 1000
	handlers, args := workload.RequestMix(n, users, 1)
	userRow := func(id int64) value.Row {
		return value.Row{value.Int(id), value.Text(fmt.Sprintf("user%d", id)), value.Int(3), value.Int(7)}
	}
	postRow := func(id, user int64) value.Row {
		return value.Row{value.Int(id), value.Int(user), value.Text(fmt.Sprintf("post %d by %d", id, user))}
	}
	var out []provenance.Event
	var logical, txnID uint64
	now := time.Unix(0, 0)
	txn := func(reqID, handler, fn string, stmts ...db.StmtTrace) {
		txnID++
		logical++
		out = append(out, provenance.Event{Kind: provenance.KindTxn, Logical: logical, Txn: db.TxnTrace{
			TxnID: txnID, CommitSeq: txnID, Snapshot: txnID - 1, Committed: true,
			Meta:  db.TxMeta{ReqID: reqID, Handler: handler, Func: fn, Workflow: reqID},
			Stmts: stmts, Start: now, End: now.Add(40 * time.Microsecond),
		}})
	}
	write := func(table string, op storage.Op, before, after value.Row) {
		logical++
		out = append(out, provenance.Event{Kind: provenance.KindWrite, Logical: logical, Seq: txnID, TxnID: txnID,
			Change: storage.Change{Table: table, Op: op, Before: before, After: after}})
	}
	read := func(query, table string, rows ...value.Row) db.StmtTrace {
		st := db.StmtTrace{Query: query}
		for _, r := range rows {
			st.Reads = append(st.Reads, db.ReadEvent{Table: table, Row: r})
		}
		return st
	}
	for i := 0; len(out) < n; i++ {
		reqID := fmt.Sprintf("R%d", i+1)
		h, a := handlers[i], args[i]
		switch h {
		case "createPost":
			post := postRow(a.Int("postId"), a.Int("userId"))
			txn(reqID, h, "insertPost")
			write("posts", storage.OpInsert, nil, post)
			user := userRow(a.Int("userId"))
			txn(reqID, h, "bumpCounter", read("SELECT posts FROM users WHERE userId = ?", "users", user))
			write("users", storage.OpUpdate, user, userRow(a.Int("userId")))
		case "readPost":
			txn(reqID, h, "selectPost", read("SELECT body FROM posts WHERE postId = ?", "posts", postRow(a.Int("postId"), 1)))
		case "readTimeline":
			follows := read("SELECT followee FROM follows WHERE follower = ?", "follows",
				value.Row{value.Int(a.Int("userId")), value.Int(2)}, value.Row{value.Int(a.Int("userId")), value.Int(3)})
			posts := read("SELECT postId FROM posts WHERE userId = ? ORDER BY postId DESC LIMIT 5", "posts",
				postRow(1, 2), postRow(2, 2), postRow(3, 3))
			txn(reqID, h, "timeline", follows, posts)
		case "follow":
			txn(reqID, h, "insertFollow", read("SELECT follower FROM follows WHERE follower = ? AND followee = ?", "follows"))
			write("follows", storage.OpInsert, nil, value.Row{value.Int(a.Int("userId")), value.Int(a.Int("followee"))})
			logical++
			out = append(out, provenance.Event{Kind: provenance.KindEdge, ReqID: reqID, Parent: reqID, Child: reqID + "/1", Handler: "bumpFollowers", Logical: logical})
			user := userRow(a.Int("followee"))
			txn(reqID, "bumpFollowers", "bumpFollowers", read("SELECT followers FROM users WHERE userId = ?", "users", user))
			write("users", storage.OpUpdate, user, userRow(a.Int("followee")))
		}
		logical++
		out = append(out, provenance.Event{Kind: provenance.KindRequest, ReqID: reqID, Handler: h,
			ArgsText: fmt.Sprint(a), ResultText: "ok", LatencyUs: 85, Status: "ok", Logical: logical})
	}
	return out[:n]
}

// BenchmarkApplyBatch measures provenance ingest: one ApplyBatch of a
// 1024-event batch from the microservice mix (transactions with read
// provenance, CDC writes, request rows), the batch size the tracer's
// flusher defaults to. Transaction and request IDs are renumbered between
// ops, outside the timer, so every batch inserts fresh keys.
func BenchmarkApplyBatch(b *testing.B) {
	app := db.MustOpenMemory()
	defer app.Close()
	if err := app.ExecScript(workload.MicroserviceSchema); err != nil {
		b.Fatal(err)
	}
	prov := db.MustOpenMemory()
	defer prov.Close()
	w, err := provenance.Setup(prov, app, workload.MicroserviceTables)
	if err != nil {
		b.Fatal(err)
	}
	tmpl := mixBatch(1024)
	batch := make([]provenance.Event, len(tmpl))
	var txnBase uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(batch, tmpl)
		for j := range batch {
			ev := &batch[j]
			ev.Txn.TxnID += txnBase
			if ev.ReqID != "" {
				ev.ReqID = fmt.Sprintf("%s.%d", ev.ReqID, i)
			}
		}
		txnBase += uint64(len(batch))
		b.StartTimer()
		if err := w.ApplyBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(batch)), "ns/event")
}
