package storage

import (
	"testing"

	"repro/internal/schema"
	"repro/internal/value"
)

// BenchmarkCommitInsert measures the provenance writer's storage path: an
// insert-only commit of a batch of fresh rows into an event table with one
// secondary index (mixed-case names, as the tracer's PostEvents table has).
// Each op builds and commits one 64-row batch; the CDC log is truncated
// every 1024 commits, as the writer truncates after each batch.
func BenchmarkCommitInsert(b *testing.B) {
	const batch = 64
	s, tbl := newEventStore(b)
	ev := int64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		changes := make([]Change, batch)
		for j := range changes {
			ev++
			changes[j] = eventChange(tbl, ev)
		}
		seq, err := s.Commit(CommitRequest{TxnID: s.NextTxnID(), Snapshot: s.CurrentSeq(), Changes: changes})
		if err != nil {
			b.Fatal(err)
		}
		if seq%1024 == 0 {
			s.TruncateLog(seq)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/row")
}

// BenchmarkCloneAt measures a replay's full restore: CloneAt copies a
// 10k-row event table with one secondary index into a fresh store.
func BenchmarkCloneAt(b *testing.B) {
	const rows = 10000
	s := loadedEventStore(b, rows)
	seq := s.CurrentSeq()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, err := s.CloneAt(seq)
		if err != nil {
			b.Fatal(err)
		}
		if dst.ApproxRows("PostEvents") != rows {
			b.Fatalf("clone holds %d rows, want %d", dst.ApproxRows("PostEvents"), rows)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
}

// BenchmarkIndexScanRows measures a secondary-index lookup that streams its
// rows: each op reads one transaction's 4 events through PostEvents_txn, as
// the provenance queries join events by TxnId, from a 10k-row table.
func BenchmarkIndexScanRows(b *testing.B) {
	const rows = 10000
	s := loadedEventStore(b, rows)
	seq := s.CurrentSeq()
	ix := s.Indexes("PostEvents")[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := ix.EncodeIndexPrefix(value.Row{value.Int(int64(i % (rows / 4)))})
		n := 0
		err := s.IndexScanRows("PostEvents", ix.Name, lo, lo+"\xff", seq, func(_, _ string, _ value.Row) bool {
			n++
			return true
		})
		if err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			b.Fatal("index lookup found no rows")
		}
	}
}

// newEventStore creates an empty store holding the PostEvents table and its
// PostEvents_txn index.
func newEventStore(b *testing.B) (*Store, *schema.Table) {
	b.Helper()
	tbl, err := schema.NewTable("PostEvents", []schema.Column{
		{Name: "EvId", Type: value.KindInt},
		{Name: "TxnId", Type: value.KindInt},
		{Name: "Seq", Type: value.KindInt},
		{Name: "Type", Type: value.KindText},
		{Name: "Query", Type: value.KindText},
		{Name: "postId", Type: value.KindInt},
		{Name: "body", Type: value.KindText},
	}, []string{"EvId"})
	if err != nil {
		b.Fatal(err)
	}
	s := NewStore()
	if err := s.CreateTable(tbl, false); err != nil {
		b.Fatal(err)
	}
	if err := s.CreateIndex(&schema.Index{Name: "PostEvents_txn", Table: "PostEvents", Columns: []int{1}}); err != nil {
		b.Fatal(err)
	}
	return s, tbl
}

// loadedEventStore returns an event store holding rows events, committed in
// batches of 64 with four events per transaction ID.
func loadedEventStore(b *testing.B, rows int) *Store {
	b.Helper()
	s, tbl := newEventStore(b)
	var changes []Change
	for ev := int64(1); ev <= int64(rows); ev++ {
		changes = append(changes, eventChange(tbl, ev))
		if len(changes) == 64 || ev == int64(rows) {
			if _, err := s.Commit(CommitRequest{TxnID: s.NextTxnID(), Snapshot: s.CurrentSeq(), Changes: changes}); err != nil {
				b.Fatal(err)
			}
			changes = nil
		}
	}
	return s
}

// eventChange builds the insert of event ev, which belongs to transaction
// ev/4.
func eventChange(tbl *schema.Table, ev int64) Change {
	row := value.Row{
		value.Int(ev), value.Int(ev / 4), value.Int(ev), value.Text("Insert"),
		value.Text(""), value.Int(ev), value.Text("post body"),
	}
	return Change{Table: tbl.Name, Key: tbl.EncodePrimaryKey(row), Op: OpInsert, After: row}
}
