// trod-query is a SQL shell for TROD databases: open a WAL-backed database
// file (production or provenance) and run queries against it, pipe a script
// on stdin, or connect to a running trod-server with -remote.
//
// Usage:
//
//	trod-query -db path/to/db.wal "SELECT * FROM Executions LIMIT 10"
//	echo "SELECT COUNT(*) FROM forum_sub;" | trod-query -db db.wal
//	trod-query -db db.wal            # interactive: one statement per line
//	trod-query -remote 127.0.0.1:7654 "SELECT * FROM t"
//	trod-query -remote 127.0.0.1:7654 -stats        # server counters (text)
//	trod-query -remote 127.0.0.1:7654 -stats -json  # ... as JSON
//	trod-query -remote 127.0.0.1:7654 -prov \
//	  "SELECT S.stage, E.CommitSeq FROM trod_spans AS S JOIN Executions AS E ON S.req_id = E.ReqId WHERE S.req_id = 'R2'"
//	trod-query -remote 127.0.0.1:7654 -trace R2      # one kept trace's span tree
//
// With -prov, statements run read-only against the server's provenance
// database (trod-server -prov): Executions, trod_requests, the event tables
// and trod_spans, in one SQL surface.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	trod "repro"
	"repro/internal/client"
	"repro/internal/protocol"
	"repro/internal/span"
)

var (
	dbPath   = flag.String("db", "", "path to the database WAL file")
	remote   = flag.String("remote", "", "trod-server address to connect to instead of opening -db")
	timing   = flag.Bool("timing", false, "print per-query execution time")
	stats    = flag.Bool("stats", false, "print the server's Stats response and exit (requires -remote)")
	jsonOut  = flag.Bool("json", false, "with -stats: print the stats as JSON")
	promote  = flag.Bool("promote", false, "promote the -remote replica to primary at the next epoch and exit")
	traceReq = flag.String("trace", "", "render the span tree of a kept trace by request ID and exit (requires -remote and server-side -prov with -trace-sample/-trace-keep-ms)")
	provSQL  = flag.Bool("prov", false, "run statements read-only against the server's provenance database (requires -remote)")
)

// queryer runs one SQL statement; the local (embedded DB) and remote
// (trod-server client) modes both satisfy it.
type queryer interface {
	Query(sql string, args ...any) (*trod.Rows, error)
	Tables() []string
	Close() error
}

type localDB struct{ d *trod.DB }

func (l localDB) Query(sql string, args ...any) (*trod.Rows, error) { return l.d.Query(sql, args...) }
func (l localDB) Tables() []string                                  { return l.d.Store().Tables() }
func (l localDB) Close() error                                      { return l.d.Close() }

type remoteDB struct {
	c    *client.Client
	prov bool // statements go to the provenance database (-prov)
}

func (r remoteDB) Query(sql string, args ...any) (*trod.Rows, error) {
	query := r.c.Query
	if r.prov {
		query = r.c.ProvQuery
	}
	res, err := query(sql, args...)
	if err != nil {
		return nil, err
	}
	return &trod.Rows{Columns: res.Columns, Rows: res.Rows, RowsAffected: int(res.RowsAffected)}, nil
}
func (r remoteDB) Tables() []string { return nil }
func (r remoteDB) Close() error     { return r.c.Close() }

func main() {
	flag.Parse()
	// A misplaced flag after the first positional argument would otherwise
	// be executed as SQL and produce a baffling parse error; reject it.
	for _, a := range flag.Args() {
		if strings.HasPrefix(a, "-") {
			fmt.Fprintf(os.Stderr, "trod-query: unknown flag or misplaced argument %q (flags go before queries)\n", a)
			flag.Usage()
			os.Exit(2)
		}
	}
	var q queryer
	switch {
	case *remote != "" && *dbPath != "":
		fmt.Fprintln(os.Stderr, "trod-query: -db and -remote are mutually exclusive")
		flag.Usage()
		os.Exit(2)
	case *stats && *remote == "":
		fmt.Fprintln(os.Stderr, "trod-query: -stats requires -remote")
		flag.Usage()
		os.Exit(2)
	case *promote && *remote == "":
		fmt.Fprintln(os.Stderr, "trod-query: -promote requires -remote")
		flag.Usage()
		os.Exit(2)
	case *traceReq != "" && *remote == "":
		fmt.Fprintln(os.Stderr, "trod-query: -trace requires -remote")
		flag.Usage()
		os.Exit(2)
	case *provSQL && *remote == "":
		fmt.Fprintln(os.Stderr, "trod-query: -prov requires -remote (open a provenance WAL locally with -db)")
		flag.Usage()
		os.Exit(2)
	case *remote != "":
		c, err := client.Dial(*remote, client.Options{})
		if err != nil {
			log.Fatalf("connect %s: %v", *remote, err)
		}
		if *promote {
			epoch, seq, err := c.Promote()
			c.Close()
			if err != nil {
				log.Fatalf("promote: %v", err)
			}
			fmt.Printf("promoted: epoch %d, seq %d\n", epoch, seq)
			fmt.Printf("this node now accepts writes; point replicas and clients at %s\n", *remote)
			return
		}
		if *stats {
			st, err := c.Stats()
			c.Close()
			if err != nil {
				log.Fatalf("stats: %v", err)
			}
			printStats(st, *jsonOut)
			return
		}
		if *traceReq != "" {
			err := renderTrace(c, *traceReq)
			c.Close()
			if err != nil {
				log.Fatalf("trace: %v", err)
			}
			return
		}
		q = remoteDB{c: c, prov: *provSQL}
	case *dbPath != "":
		d, err := trod.OpenDiskDBNoSync(*dbPath)
		if err != nil {
			log.Fatalf("open %s: %v", *dbPath, err)
		}
		q = localDB{d}
	default:
		fmt.Fprintln(os.Stderr, "trod-query: one of -db or -remote is required")
		flag.Usage()
		os.Exit(2)
	}
	defer q.Close()

	if flag.NArg() > 0 {
		for _, stmt := range flag.Args() {
			if err := runOne(q, stmt); err != nil {
				log.Fatal(err)
			}
		}
		return
	}

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	interactive := isTerminalish()
	if interactive {
		fmt.Println("trod-query: one SQL statement per line; tables: .tables; quit: .exit")
		fmt.Print("trod> ")
	}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "" || strings.HasPrefix(line, "--"):
		case line == ".exit" || line == ".quit":
			return
		case line == ".tables":
			if *remote != "" {
				fmt.Fprintln(os.Stderr, "error: .tables is not available in remote mode")
				break
			}
			for _, t := range q.Tables() {
				fmt.Println(t)
			}
		default:
			if err := runOne(q, strings.TrimSuffix(line, ";")); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
			}
		}
		if interactive {
			fmt.Print("trod> ")
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
}

func runOne(q queryer, stmt string) error {
	t0 := time.Now()
	rows, err := q.Query(stmt)
	if err != nil {
		return err
	}
	if len(rows.Columns) > 0 {
		fmt.Print(trod.FormatRows(rows))
		fmt.Printf("(%d rows)\n", len(rows.Rows))
	} else {
		fmt.Printf("ok (%d rows affected)\n", rows.RowsAffected)
	}
	if *timing {
		fmt.Printf("time: %.2f ms\n", float64(time.Since(t0).Microseconds())/1000)
	}
	return nil
}

// renderTrace fetches a kept trace's spans from the provenance trod_spans
// table and prints the span tree with per-stage durations and the critical
// path. Multiple traces can share a request ID only across retries; the
// newest (highest trace ID) wins.
func renderTrace(c *client.Client, reqID string) error {
	res, err := c.ProvQuery(`SELECT trace_id, kind, status, span_id, parent_id, stage, start_us, dur_us, seq FROM trod_spans WHERE req_id = ?`, reqID)
	if err != nil {
		return err
	}
	if len(res.Rows) == 0 {
		return fmt.Errorf("no kept trace for request %q (server needs -prov plus -trace-sample or -trace-keep-ms, and the trace must have been kept)", reqID)
	}
	var newest int64
	for _, row := range res.Rows {
		if tid := row[0].AsInt(); tid > newest {
			newest = tid
		}
	}
	t := &span.Trace{TraceID: uint64(newest), ReqID: reqID}
	for _, row := range res.Rows {
		if row[0].AsInt() != newest {
			continue
		}
		stage, ok := span.ParseStage(row[5].AsText())
		if !ok {
			continue
		}
		sp := span.Span{
			ID:     uint32(row[3].AsInt()),
			Parent: uint32(row[4].AsInt()),
			Stage:  stage,
			Start:  row[6].AsInt() * 1000,
			Dur:    row[7].AsInt() * 1000,
			Seq:    uint64(row[8].AsInt()),
		}
		if sp.ID == span.RootID {
			t.Kind = row[1].AsText()
			t.Status = row[2].AsText()
			t.Wall = time.Duration(sp.Dur)
			t.Seq = sp.Seq
		}
		t.Spans = append(t.Spans, sp)
	}
	fmt.Print(span.Render(t))
	if t.Seq != 0 {
		fmt.Printf("commit seq %d — replay it at BeginAt(%d); its Executions row: trod-query -remote <addr> -prov \"SELECT * FROM Executions WHERE ReqId = '%s'\"\n", t.Seq, t.Seq, reqID)
	}
	return nil
}

// printStats renders a Stats response for operators: one counter per line
// (stable, grep-friendly), or one JSON object with -json. Replication
// fields appear only where they mean something — applied seq and lag on a
// replica, subscriber count on a primary.
func printStats(st protocol.Stats, asJSON bool) {
	if asJSON {
		out := map[string]any{
			"active_sessions":   st.ActiveSessions,
			"active_txns":       st.ActiveTxns,
			"queued_conns":      st.QueuedConns,
			"accepted":          st.Accepted,
			"rejected_busy":     st.RejectedBusy,
			"requests":          st.Requests,
			"commits":           st.Commits,
			"conflicts":         st.Conflicts,
			"expired_txns":      st.ExpiredTxns,
			"wal_syncs":         st.WALSyncs,
			"plan_cache_hits":   st.PlanCacheHits,
			"plan_cache_misses": st.PlanCacheMisses,
			"db_commits":        st.DBCommits,
			"db_conflicts":      st.DBConflicts,
			"checkpoints":       st.Checkpoints,
			"quorum_stalls":     st.QuorumStalls,
			"tracer_events":     st.TracerEvents,
			"tracer_drops":      st.TracerDrops,
			"tracer_flushes":    st.TracerFlushes,
			"subscribers":       st.Subscribers,
			"is_replica":        st.IsReplica == 1,
			"epoch":             st.Epoch,
			"fenced":            st.Fenced == 1,
			"vacuum_runs":       st.VacuumRuns,
			"vacuum_dropped":    st.VacuumDropped,
			"history_floor":     st.HistoryFloor,
			"resident_versions": st.ResidentVersions,
			"max_chain_length":  st.MaxChainLength,
		}
		if st.IsReplica == 1 {
			out["applied_seq"] = st.AppliedSeq
			out["primary_seq"] = st.PrimarySeq
			out["replication_lag"] = st.Lag()
			out["replication_connected"] = st.ReplConnected == 1
		}
		if len(st.SubscriberLags) > 0 {
			lags := make([]map[string]any, len(st.SubscriberLags))
			for i, l := range st.SubscriberLags {
				lags[i] = map[string]any{
					"acked_seq":       l.AckedSeq,
					"lag_seqs":        l.LagSeqs,
					"last_ack_age_ms": l.LastAckAgeMs,
				}
			}
			out["subscriber_lags"] = lags
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(string(data))
		return
	}
	fmt.Printf("active_sessions:    %d\n", st.ActiveSessions)
	fmt.Printf("active_txns:        %d\n", st.ActiveTxns)
	fmt.Printf("queued_conns:       %d\n", st.QueuedConns)
	fmt.Printf("accepted:           %d\n", st.Accepted)
	fmt.Printf("rejected_busy:      %d\n", st.RejectedBusy)
	fmt.Printf("requests:           %d\n", st.Requests)
	fmt.Printf("commits:            %d\n", st.Commits)
	fmt.Printf("conflicts:          %d\n", st.Conflicts)
	fmt.Printf("expired_txns:       %d\n", st.ExpiredTxns)
	fmt.Printf("wal_syncs:          %d\n", st.WALSyncs)
	fmt.Printf("plan_cache_hits:    %d\n", st.PlanCacheHits)
	fmt.Printf("plan_cache_misses:  %d\n", st.PlanCacheMisses)
	fmt.Printf("db_commits:         %d\n", st.DBCommits)
	fmt.Printf("db_conflicts:       %d\n", st.DBConflicts)
	fmt.Printf("checkpoints:        %d\n", st.Checkpoints)
	fmt.Printf("quorum_stalls:      %d\n", st.QuorumStalls)
	fmt.Printf("tracer_events:      %d\n", st.TracerEvents)
	fmt.Printf("tracer_drops:       %d\n", st.TracerDrops)
	fmt.Printf("tracer_flushes:     %d\n", st.TracerFlushes)
	fmt.Printf("subscribers:        %d\n", st.Subscribers)
	if st.IsReplica == 1 {
		fmt.Printf("role:               replica\n")
		fmt.Printf("applied_seq:        %d\n", st.AppliedSeq)
		fmt.Printf("primary_seq:        %d\n", st.PrimarySeq)
		fmt.Printf("replication_lag:    %d\n", st.Lag())
		fmt.Printf("replication_connected: %v\n", st.ReplConnected == 1)
	} else {
		fmt.Printf("role:               primary\n")
	}
	fmt.Printf("epoch:              %d\n", st.Epoch)
	fmt.Printf("fenced:             %v\n", st.Fenced == 1)
	fmt.Printf("vacuum_runs:        %d\n", st.VacuumRuns)
	fmt.Printf("vacuum_dropped:     %d\n", st.VacuumDropped)
	fmt.Printf("history_floor:      %d\n", st.HistoryFloor)
	fmt.Printf("resident_versions:  %d\n", st.ResidentVersions)
	fmt.Printf("max_chain_length:   %d\n", st.MaxChainLength)
	for i, l := range st.SubscriberLags {
		fmt.Printf("subscriber_%d:       acked_seq=%d lag_seqs=%d last_ack_age_ms=%d\n",
			i, l.AckedSeq, l.LagSeqs, l.LastAckAgeMs)
	}
}

// isTerminalish reports whether stdin looks interactive (best effort, no
// syscalls beyond Stat).
func isTerminalish() bool {
	fi, err := os.Stdin.Stat()
	if err != nil {
		return false
	}
	return fi.Mode()&os.ModeCharDevice != 0
}
