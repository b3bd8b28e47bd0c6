package experiments

import (
	"fmt"
	"time"

	"repro/internal/db"
	"repro/internal/provenance"
	"repro/internal/storage"
	"repro/internal/value"
)

// E2Point is one scale point of the declarative-query latency sweep.
type E2Point struct {
	Events    int
	LoadMs    float64
	QueryMs   float64 // the §3.3 debugging query
	AggMs     float64 // a heavier aggregation over all events
	MatchRows int
}

// RunE2 measures declarative-debugging query latency as a function of
// provenance size (paper §3.7: "queries over billions of events in <5s").
//
// Scale substitution: the paper ran on a server
// fleet with billions of events; this laptop-scale sweep loads 10⁴–10⁶⁺
// synthetic forum provenance events through the normal provenance writer
// and reports the latency series so the shape (near-linear scan cost,
// interactive latencies) can be compared.
func RunE2(scales []int) ([]E2Point, error) {
	var out []E2Point
	for _, n := range scales {
		pt, err := runE2Point(n)
		if err != nil {
			return nil, err
		}
		out = append(out, *pt)
	}
	return out, nil
}

func runE2Point(events int) (*E2Point, error) {
	prov := db.MustOpenMemory()
	defer prov.Close()
	appDB := db.MustOpenMemory()
	defer appDB.Close()
	if err := appDB.ExecScript(`CREATE TABLE forum_sub (id INTEGER PRIMARY KEY, userId TEXT, forum TEXT, course TEXT)`); err != nil {
		return nil, err
	}
	w, err := provenance.Setup(prov, appDB, provenance.TableMap{"forum_sub": "ForumEvents"})
	if err != nil {
		return nil, err
	}

	// Load synthetic provenance: each "request" is one subscribeUser-like
	// transaction pair generating an execution row and ~2 forum events.
	// One duplicated pair (the needle) is planted mid-stream.
	t0 := time.Now()
	const batchSize = 2000
	var batch []provenance.Event
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		if err := w.ApplyBatch(batch); err != nil {
			return err
		}
		batch = batch[:0]
		return nil
	}
	needleAt := (events / 4) * 2 // even, so the 2-step event counter hits it
	evCount := 0
	txn := uint64(0)
	for evCount < events {
		txn++
		user := fmt.Sprintf("U%d", txn%1000)
		forum := fmt.Sprintf("F%d", txn%200)
		typ := "Read"
		if txn%2 == 0 {
			typ = "Insert"
		}
		if evCount == needleAt || evCount == needleAt+2 {
			user, forum, typ = "U1", "F2", "Insert" // the planted duplicate pair
		}
		batch = append(batch, provenance.Event{
			Kind: provenance.KindTxn,
			Txn: db.TxnTrace{
				TxnID:     txn,
				CommitSeq: txn,
				Meta:      db.TxMeta{ReqID: fmt.Sprintf("R%d", txn), Handler: "subscribeUser", Func: "DB.insert"},
				Committed: true,
			},
			Logical: txn,
		})
		if typ == "Insert" {
			batch = append(batch, provenance.Event{
				Kind:  provenance.KindWrite,
				Seq:   txn,
				TxnID: txn,
				Change: storage.Change{
					Table: "forum_sub",
					Op:    storage.OpInsert,
					After: value.Row{value.Int(int64(txn)), value.Text(user), value.Text(forum), value.Text("C1")},
				},
				Logical: txn,
			})
		} else {
			batch = append(batch, provenance.Event{
				Kind: provenance.KindTxn,
				Txn: db.TxnTrace{
					TxnID:     txn + 1_000_000_000, // distinct txn id space for reads
					CommitSeq: txn,
					Meta:      db.TxMeta{ReqID: fmt.Sprintf("R%d", txn), Handler: "subscribeUser", Func: "isSubscribed"},
					Stmts: []db.StmtTrace{{
						Query: "SELECT id FROM forum_sub WHERE userId = ? AND forum = ?",
						Reads: []db.ReadEvent{{Table: "forum_sub", Row: value.Row{value.Int(int64(txn)), value.Text(user), value.Text(forum), value.Text("C1")}}},
					}},
					Committed: true,
				},
				Logical: txn,
			})
		}
		evCount += 2
		if len(batch) >= batchSize {
			if err := flush(); err != nil {
				return nil, err
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	loadMs := float64(time.Since(t0).Nanoseconds()) / 1e6

	// The §3.3 debugging query over the full event table.
	t1 := time.Now()
	res, err := prov.Query(`SELECT Timestamp, ReqId, HandlerName
		FROM Executions as E, ForumEvents as F ON E.TxnId = F.TxnId
		WHERE F.UserId = 'U1' AND F.Forum = 'F2' AND F.Type = 'Insert'
		ORDER BY Timestamp ASC`)
	if err != nil {
		return nil, err
	}
	queryMs := float64(time.Since(t1).Nanoseconds()) / 1e6

	// A heavier aggregation: top handlers by event volume.
	t2 := time.Now()
	if _, err := prov.Query(`SELECT Type, COUNT(*) AS c FROM ForumEvents GROUP BY Type ORDER BY c DESC`); err != nil {
		return nil, err
	}
	aggMs := float64(time.Since(t2).Nanoseconds()) / 1e6

	return &E2Point{
		Events:    events,
		LoadMs:    loadMs,
		QueryMs:   queryMs,
		AggMs:     aggMs,
		MatchRows: len(res.Rows),
	}, nil
}
