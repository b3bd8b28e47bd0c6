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
	ev := int64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		changes := make([]Change, batch)
		for j := range changes {
			ev++
			row := value.Row{
				value.Int(ev), value.Int(ev / 4), value.Int(ev), value.Text("Insert"),
				value.Text(""), value.Int(ev), value.Text("post body"),
			}
			changes[j] = Change{Table: tbl.Name, Key: tbl.EncodePrimaryKey(row), Op: OpInsert, After: row}
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
