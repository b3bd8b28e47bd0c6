package main

import (
	"testing"
	"time"

	"repro/internal/protocol"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/wal"
)

// codecBench times the codecs a server_rw request crosses, fed with
// server_rw's own rows and statements: the value row codec, the protocol
// message codec (a point query, its one-row result, and a ten-row range
// result), and the WAL encoding of one read-modify-write commit. Allocation
// counts come from testing.AllocsPerRun and repeat exactly.
func codecBench() map[string]float64 {
	acct := func(id int64) value.Row {
		return value.Row{value.Int(id), value.Text(owner(id % srvOwners)), value.Int(srvBalance)}
	}
	rows := make([]value.Row, srvAccounts/srvOwners)
	ranged := make([]value.Row, len(rows)) // a range scan's (id, balance) result
	for i := range rows {
		rows[i] = acct(int64(i * srvOwners))
		ranged[i] = value.Row{rows[i][0], rows[i][2]}
	}
	msgs := []*protocol.Message{
		{Type: protocol.MsgQuery, SQL: pointSQL, Args: value.Row{value.Int(4242)}},
		{Type: protocol.MsgResult, Columns: []string{"balance"}, Rows: []value.Row{{value.Int(srvBalance)}}},
		{Type: protocol.MsgResult, Columns: []string{"id", "balance"}, Rows: ranged},
	}
	before, after := acct(4242), acct(4242)
	after[2] = value.Int(srvBalance + 1)
	commit := storage.CommitRecord{Seq: 12345, TxnID: 23456, Changes: []storage.Change{{
		Table: "accounts", Key: schema.EncodeKeyTuple(before[:1]), Op: storage.OpUpdate, Before: before, After: after,
	}}}

	buf := make([]byte, 0, 4096)
	rowCodec := func() {
		for _, r := range rows {
			buf = value.EncodeRow(buf[:0], r)
			if _, _, err := value.DecodeRow(buf); err != nil {
				panic(err)
			}
		}
	}
	msgCodec := func() {
		for _, m := range msgs {
			buf = protocol.EncodeMessage(buf[:0], m)
			if _, err := protocol.DecodeMessage(buf); err != nil {
				panic(err)
			}
		}
	}
	walEncode := func() { buf = wal.EncodeCommit(buf[:0], commit) }

	out := map[string]float64{}
	per := func(f func(), n int) (ns, allocs float64) {
		return nsPerCall(f) / float64(n), testing.AllocsPerRun(200, f) / float64(n)
	}
	out["value.codec_ns_per_row"], out["value.allocs_per_row"] = per(rowCodec, len(rows))
	out["protocol.codec_ns_per_msg"], out["protocol.allocs_per_msg"] = per(msgCodec, len(msgs))
	out["wal.encode_ns_per_commit"], out["wal.encode_allocs_per_commit"] = per(walEncode, 1)
	return out
}

// nsPerCall is the median over batches of f's time per call; a batch runs
// f for about 20ms.
func nsPerCall(f func()) float64 {
	n := 1
	for {
		t := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if d := time.Since(t); d > 20*time.Millisecond {
			break
		}
		n *= 2
	}
	batches := make([]float64, 7)
	for b := range batches {
		t := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		batches[b] = float64(time.Since(t).Nanoseconds()) / float64(n)
	}
	return median(batches)
}
