// trod-bench runs the TROD evaluation experiments and prints
// paper-formatted results.
//
// Usage:
//
//	trod-bench -exp all              # every experiment at default scale
//	trod-bench -exp e1 -requests 20000
//	trod-bench -exp e2 -maxevents 1000000
//	trod-bench -exp recovery         # cold-restart time, full replay vs checkpoint
//	trod-bench -exp server -clients 32 -ops 200   # multi-client network load
//	trod-bench -exp replication -replicas 3       # read scaling + replication lag
//	trod-bench -exp obs              # adversarial observability workloads
//	trod-bench -exp table1|table2|query|replay|retro|security|exfil|cases
//	trod-bench -exp a1|a2|a3
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"

	trod "repro"
	"repro/internal/experiments"
)

var (
	expFlag   = flag.String("exp", "all", "experiment: all,e1,e2,recovery,server,replication,failover,mvcc,obs,table1,table2,query,replay,retro,security,exfil,cases,a1,a2,a3")
	requests  = flag.Int("requests", 5000, "E1/A1 request count")
	users     = flag.Int("users", 100, "E1/A1 user count")
	maxEvents = flag.Int("maxevents", 500_000, "E2 largest event-count scale")
	bulkRows  = flag.Int("bulkrows", 100_000, "A2 bulk table size")
	clients   = flag.Int("clients", 32, "server experiment: concurrent client connections")
	ops       = flag.Int("ops", 200, "server experiment: operations per client")
	replicas  = flag.Int("replicas", 3, "replication experiment: replica count")
	readMs    = flag.Int("readms", 400, "replication experiment: read-throughput window per scale point (ms)")
	writers   = flag.Int("writers", 4, "mvcc experiment: concurrent RMW writer goroutines")
	readers   = flag.Int("readers", 4, "mvcc experiment: concurrent read-only scan goroutines")
	writeTxns = flag.Int("writetxns", 4000, "mvcc experiment: total committed transfer transactions")
)

func main() {
	flag.Parse()
	which := strings.ToLower(*expFlag)
	run := func(name string, fn func() error) {
		if which != "all" && which != name {
			return
		}
		fmt.Printf("\n========== %s ==========\n", strings.ToUpper(name))
		if err := fn(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
	}

	run("e1", runE1)
	run("e2", runE2)
	run("recovery", runRecovery)
	run("server", runServer)
	run("replication", runReplication)
	run("failover", runFailover)
	run("mvcc", runMVCC)
	run("obs", runObs)
	run("table1", runTable1)
	run("table2", runTable2)
	run("query", runQuery)
	run("replay", runReplay)
	run("retro", runRetro)
	run("security", runSecurity)
	run("exfil", runExfil)
	run("cases", runCases)
	run("a1", runA1)
	run("a2", runA2)
	run("a3", runA3)

	if which != "all" {
		switch which {
		case "e1", "e2", "recovery", "server", "replication", "failover", "mvcc", "obs", "table1", "table2", "query", "replay", "retro", "security", "exfil", "cases", "a1", "a2", "a3":
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *expFlag)
			flag.Usage()
			os.Exit(2)
		}
	}
}

func runE1() error {
	fmt.Println("E1: always-on tracing overhead (paper §3.7: '<100µs per request,")
	fmt.Println("    <15% relative on an in-memory DBMS, negligible on an on-disk DBMS')")
	fmt.Printf("workload: %d requests over %d users (microservice mix)\n\n", *requests, *users)

	mem, err := experiments.RunE1Pair(experiments.EngineMemory, *requests, *users, false)
	if err != nil {
		return err
	}
	diskReqs := *requests / 10
	if diskReqs < 200 {
		diskReqs = 200
	}
	disk, err := experiments.RunE1Pair(experiments.EngineDisk, diskReqs, *users, true)
	if err != nil {
		return err
	}
	fmt.Printf("%-22s %12s %12s %12s %14s\n", "engine", "base p50", "traced p50", "trace cost", "rel. overhead")
	fmt.Printf("%-22s %10.1fus %10.1fus %10.2fus %12.1f%%\n",
		"in-memory (VoltDB-like)", mem.Off.P50Us, mem.On.P50Us, mem.PerReqUs, mem.OverheadPct)
	fmt.Printf("%-22s %10.1fus %10.1fus %10.2fus %12.1f%%\n",
		"disk+fsync (PG-like)", disk.Off.P50Us, disk.On.P50Us, disk.PerReqUs, disk.OverheadPct)
	fmt.Printf("\ntrace events captured: %d (memory run)\n", mem.On.TraceEvents)
	if runtime.GOMAXPROCS(0) == 1 {
		fmt.Println("note: single-CPU machine — the async flusher shares the request core,")
		fmt.Println("      inflating relative overhead vs the paper's multi-core servers;")
		fmt.Println("      the absolute per-request cost (median delta) is the robust number.")
	}
	fmt.Printf("paper shape: absolute cost well under 100us -> %v; disk overhead near zero -> %v\n",
		mem.PerReqUs < 100, disk.OverheadPct < 10)
	return nil
}

func runE2() error {
	fmt.Println("E2: declarative debugging query latency vs provenance size")
	fmt.Println("    (paper §3.7: interactive latency over very large event logs;")
	fmt.Println("     scale substitution: 10^4..10^6 events)")
	scales := []int{10_000, 50_000, 100_000}
	for s := 250_000; s <= *maxEvents; s *= 2 {
		scales = append(scales, s)
	}
	points, err := experiments.RunE2(scales)
	if err != nil {
		return err
	}
	fmt.Printf("\n%12s %12s %14s %12s %8s\n", "events", "load ms", "§3.3 query ms", "agg ms", "matches")
	for _, p := range points {
		fmt.Printf("%12d %12.1f %14.2f %12.2f %8d\n", p.Events, p.LoadMs, p.QueryMs, p.AggMs, p.MatchRows)
	}
	last := points[len(points)-1]
	perMillion := last.QueryMs / float64(last.Events) * 1e6
	fmt.Printf("\nscaling: %.1f ms per million events for the debugging query\n", perMillion)
	fmt.Printf("extrapolated to 1e9 events: %.1f s (paper reports <5 s on a server fleet)\n", perMillion*1000/1000)
	return nil
}

func runRecovery() error {
	fmt.Println("Recovery: cold-restart time, full WAL replay vs checkpoint+tail")
	fmt.Println("    (checkpoints bound recovery to snapshot load + short tail replay)")
	// Default scale is the E2 headline 200k; an explicit -maxevents is
	// honoured as given (the flag's own default is E2's 500k sweep cap).
	events := 200_000
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "maxevents" {
			events = *maxEvents
		}
	})
	rp, err := experiments.RunRecoveryBench(events)
	if err != nil {
		return err
	}
	fmt.Printf("\nstate: %d events across %d WAL commits (+%d tail commits after checkpoint)\n",
		rp.Events, rp.Commits, rp.TailRecords)
	fmt.Printf("full replay:      %8.1f ms\n", rp.FullReplayMs)
	fmt.Printf("checkpoint+tail:  %8.1f ms\n", rp.CheckpointMs)
	fmt.Printf("checkpoint cost:  %8.1f ms (amortised, off the commit path)\n", rp.CheckpointRun)
	if rp.CheckpointMs > 0 {
		fmt.Printf("speedup: %.1fx\n", rp.FullReplayMs/rp.CheckpointMs)
	}
	return nil
}

func runServer() error {
	fmt.Println("Server load: concurrent clients over loopback against trod-server")
	fmt.Println("    (disk mode, fsync per commit; mixed point-read/range/update mix)")
	fmt.Printf("workload: %d clients x %d ops (50%% point read, 25%% index range, 25%% RMW txn)\n\n", *clients, *ops)
	res, err := experiments.RunServerLoad(*clients, *ops)
	if err != nil {
		return err
	}
	fmt.Printf("completed ops:   %d in %.1f ms (%d commit conflicts retried)\n", res.Ops, res.DurationMs, res.Conflicts)
	fmt.Printf("throughput:      %.0f ops/s\n", res.Throughput)
	fmt.Printf("latency:         p50 %.0f us, p99 %.0f us\n", res.P50Us, res.P99Us)
	fmt.Printf("durability:      %d commits acknowledged with %d WAL fsyncs (modelled fsync %dus)\n",
		res.Commits, res.WALSyncs, res.FsyncDelayUs)
	fmt.Printf("group commit effective (fsyncs < commits): %v\n", res.GroupCommitEffective())
	return nil
}

func runReplication() error {
	fmt.Println("Replication: read scaling and lag across streaming replicas")
	fmt.Println("    (primary under continuous write load; replicas tail the commit log,")
	fmt.Println("     serve reads at their applied sequence, and must equal the primary")
	fmt.Println("     after the load drains)")
	fmt.Printf("cluster: 1 primary + %d replicas, %d ms read window per scale point\n\n", *replicas, *readMs)
	res, err := experiments.RunReplication(*replicas, *readMs)
	if err != nil {
		return err
	}
	fmt.Printf("capacity model: %d read slots/node, >=%d us service time per read\n", res.SlotsPerNode, res.ReadServiceUs)
	fmt.Println("    (models per-machine read capacity so scaling is observable on")
	fmt.Println("     shared-CPU benchmark hosts; lag and StoreDiff are unmodelled)")
	fmt.Printf("%10s %16s %10s\n", "replicas", "reads/s", "reads")
	for _, p := range res.ReadScale {
		label := fmt.Sprintf("%d", p.Replicas)
		if p.Replicas == 0 {
			label = "0 (primary)"
		}
		fmt.Printf("%10s %16.0f %10d\n", label, p.Throughput, p.Reads)
	}
	fmt.Printf("\nwrite load:      %d primary commits during the run (final seq %d)\n", res.WriteOps, res.FinalSeq)
	fmt.Printf("replication lag: p50 %.2f ms, p99 %.2f ms over %d end-to-end samples\n",
		res.LagP50Ms, res.LagP99Ms, res.LagSamples)
	fmt.Printf("bounded staleness (p99 <= %.0f ms): %v\n", res.LagBoundMs, res.LagBounded)
	fmt.Printf("replica state == primary state after drain (StoreDiff): %v\n", res.DiffClean)
	if !res.LagBounded || !res.DiffClean {
		return fmt.Errorf("replication experiment failed its assertions (lagBounded=%v diffClean=%v)",
			res.LagBounded, res.DiffClean)
	}
	return nil
}

func runFailover() error {
	fmt.Println("Failover: kill the primary under open-loop write load, promote the")
	fmt.Println("    most-caught-up replica (epoch-fenced), and audit durability against")
	fmt.Println("    the clients' own record of acknowledged writes")
	for _, syncN := range []int{1, 0} {
		res, err := experiments.RunFailover(syncN)
		if err != nil {
			return err
		}
		fmt.Printf("\n--- %s mode (sync-replicas=%d) ---\n", res.Mode, res.SyncReplicas)
		fmt.Printf("writers:          %d open-loop, unique keys, no retries\n", res.Writers)
		fmt.Printf("acked:            %d before kill, %d on the new primary, %d unknown-fate\n",
			res.AckedBefore, res.AckedAfter, res.Unknown)
		fmt.Printf("failover time:    %.1f ms (kill -> first ack on the new primary)\n", res.FailoverMs)
		fmt.Printf("promotion:        epoch %d at seq %d\n", res.PromotedEpoch, res.PromotedSeq)
		fmt.Printf("survivors:        %d rows; acked lost: %d; phantoms: %d\n",
			res.Survivors, res.AckedLost, res.Phantoms)
		fmt.Printf("state == oracle (StoreDiff): %v\n", res.DiffClean)
		fmt.Printf("stale primary fenced on restart: %v\n", res.StaleFenced)
		if res.Mode == "quorum" {
			if res.AckedLost != 0 || !res.DiffClean || !res.StaleFenced {
				return fmt.Errorf("quorum failover violated its claims (ackedLost=%d diffClean=%v staleFenced=%v)",
					res.AckedLost, res.DiffClean, res.StaleFenced)
			}
			fmt.Println("-> zero acknowledged commits lost across the kill (the quorum guarantee)")
		} else {
			fmt.Printf("-> async mode's acked-loss window across this kill: %d commits\n", res.AckedLost)
		}
	}
	return nil
}

func runMVCC() error {
	fmt.Println("MVCC: long read-only analytic scans concurrent with RMW transfers,")
	fmt.Println("    version GC on (HistoryRetention window; vacuum fires at checkpoints).")
	fmt.Println("    Claims: zero reader aborts (structural — no read set to validate),")
	fmt.Println("    snapshot-consistent scans, resident version count plateaus.")
	fmt.Printf("workload: %d writers x transfers (total %d txns), %d scan readers\n\n", *writers, *writeTxns, *readers)
	res, err := experiments.RunMVCC(*writers, *readers, *writeTxns)
	if err != nil {
		return err
	}
	fmt.Printf("write txns:       %d committed in %.1f ms\n", res.WriteTxns, res.DurationMs)
	fmt.Printf("reader scans:     %d completed, %d aborted\n", res.ReaderScans, res.ReaderAborts)
	fmt.Printf("scan invariant:   every scan saw a constant total balance: %v\n", res.InvariantOK)
	fmt.Printf("vacuum:           %d runs, %d versions dropped, history floor seq %d\n",
		res.VacuumRuns, res.VacuumDropped, res.HistoryFloor)
	fmt.Printf("resident versions: peak %d, final %d (unbounded would be %d)\n",
		res.ResidentPeak, res.ResidentFinal, res.UnboundedVersions)
	fmt.Printf("plateaued (peak < unbounded/2): %v\n", res.Plateaued)
	if err := res.Err(); err != nil {
		return err
	}
	fmt.Println("-> read-only transactions never abort; GC bounds version residency")
	return nil
}

// Default obs-experiment scale: enough workers over few enough keys for a
// reliable conflict storm, and enough burst overdrive to fill a 4-slot
// server's 8-deep queue.
const (
	obsWorkers      = 12
	obsOpsPerWorker = 25
	obsBursts       = 5
	obsPerBurst     = 14
	obsTenants      = 600
)

func runObs() error {
	fmt.Println("OBS: adversarial observability workloads against the /metrics endpoint")
	fmt.Println("    (hot-key OCC conflict storm + open-loop bursty arrivals + multi-tenant")
	fmt.Println("     plan-cache thrash; the endpoint is scraped mid-run, the slow-query log")
	fmt.Println("     is resolved in provenance, and span capture locates the thrash)")
	fmt.Printf("workloads: %d workers x %d RMW ops over %d keys; %d bursts x %d arrivals; %d tenants\n\n",
		obsWorkers, obsOpsPerWorker, 4, obsBursts, obsPerBurst, obsTenants)
	res, err := experiments.RunObs(obsWorkers, obsOpsPerWorker, obsBursts, obsPerBurst, obsTenants)
	if err != nil {
		return err
	}
	hk, ol, pc := res.HotKey, res.OpenLoop, res.PlanCache
	fmt.Printf("--- hot-key conflict storm ---\n")
	fmt.Printf("committed:        %d; conflicts surfaced: %d (%.1f%% of attempts) in %.1f ms\n",
		hk.Committed, hk.Conflicts, hk.ConflictPct, hk.DurationMs)
	fmt.Printf("counters:         server typed conflicts %d, engine OCC aborts %d\n",
		hk.ServerConflicts, hk.DBConflicts)
	fmt.Printf("mid-run scrape:   %d series, all four layers present: %v, healthz ok: %v\n",
		hk.ScrapeSeries, hk.ScrapeConsistent, hk.MidRunHealthzOK)
	fmt.Printf("slow-query log:   %d lines; %d/%d sampled request IDs resolved in provenance\n",
		hk.SlowQueryLines, hk.SlowIDsResolved, hk.SlowIDsChecked)
	fmt.Printf("tracer:           %d events captured, %d dropped\n", hk.TracerEvents, hk.TracerDrops)
	fmt.Printf("\n--- open-loop bursty arrivals (max-conns %d, queue %d) ---\n", ol.MaxConns, ol.QueueDepth)
	fmt.Printf("arrivals:         %d in %d bursts; served %d, typed busy rejections %d\n",
		ol.Arrivals, ol.Bursts, ol.Served, ol.RejectedBusy)
	fmt.Printf("queue wait:       %d observations, avg %.2f ms (mid-run waiters gauge: %.0f)\n",
		ol.QueueWaitObs, ol.QueueWaitAvgMs, ol.MidRunWaiters)
	fmt.Printf("\n--- multi-tenant plan-cache pressure (%d tenants vs %d-entry cache) ---\n",
		pc.Tenants, pc.CacheCap)
	fmt.Printf("queries:          %d by %d workers in %.1f ms\n", pc.Queries, pc.Workers, pc.DurationMs)
	fmt.Printf("plan cache:       %.1f%% hit ratio (%d hits / %d misses), %d wholesale resets\n",
		pc.HitPct, pc.CacheHits, pc.CacheMisses, pc.CacheResets)
	fmt.Printf("span capture:     %d traces kept; plan_compile %.2f ms vs execute %.2f ms (%.1f%% of compile+execute)\n",
		pc.TracesKept, pc.PlanCompileMs, pc.ExecuteMs, pc.CompileShare)
	fmt.Println("\n-> the metrics surface stays coherent under saturation, every slow")
	fmt.Println("   statement links back to its provenance record for time-travel debugging,")
	fmt.Println("   and span capture pins the plan-cache thrash on plan_compile")
	return nil
}

func withScenario(fn func(*experiments.Scenario) error) error {
	sc, err := experiments.NewScenario()
	if err != nil {
		return err
	}
	defer sc.Close()
	return fn(sc)
}

func runTable1() error {
	return withScenario(func(sc *experiments.Scenario) error {
		fmt.Println("E3: regenerated Table 1 (transaction execution log)")
		rows, err := experiments.RunE3Table1(sc)
		if err != nil {
			return err
		}
		fmt.Print(trod.FormatRows(rows))
		return nil
	})
}

func runTable2() error {
	return withScenario(func(sc *experiments.Scenario) error {
		fmt.Println("E4: regenerated Table 2 (data operations log, ForumEvents)")
		rows, err := experiments.RunE4Table2(sc)
		if err != nil {
			return err
		}
		fmt.Print(trod.FormatRows(rows))
		return nil
	})
}

func runQuery() error {
	return withScenario(func(sc *experiments.Scenario) error {
		fmt.Println("E5: the §3.3 debugging query")
		rows, err := experiments.RunE5DebugQuery(sc)
		if err != nil {
			return err
		}
		fmt.Print(trod.FormatRows(rows))
		fmt.Println("-> two requests, same handler, adjacent timestamps (paper: (TS3,R2),(TS4,R1))")
		return nil
	})
}

func runReplay() error {
	return withScenario(func(sc *experiments.Scenario) error {
		fmt.Println("E6: bug replay (Figure 3 top)")
		report, err := experiments.RunE6Replay(sc)
		if err != nil {
			return err
		}
		for i, st := range report.Steps {
			fmt.Printf("step %d: %-14s injected foreign changes: %d\n", i, st.Func, len(st.Injected))
		}
		fmt.Printf("faithful: %v; foreign writers: %v\n", !report.Diverged, report.ForeignWriters)
		return nil
	})
}

func runRetro() error {
	return withScenario(func(sc *experiments.Scenario) error {
		fmt.Println("E7: retroactive programming of the fix (Figure 3 bottom)")
		report, err := experiments.RunE7Retro(sc)
		if err != nil {
			return err
		}
		for i, s := range report.Schedules {
			fmt.Printf("schedule %d: grant order %v, invariant ok: %v\n", i+1, s.Order, s.InvariantErr == nil)
		}
		fmt.Printf("all interleavings pass: %v\n", report.AllInvariantsHold())
		return nil
	})
}

func withSecurity(fn func(*experiments.SecurityScenario) error) error {
	sc, err := experiments.NewSecurityScenario()
	if err != nil {
		return err
	}
	defer sc.Close()
	return fn(sc)
}

func runSecurity() error {
	return withSecurity(func(sc *experiments.SecurityScenario) error {
		fmt.Println("E8: User Profiles access-control pattern (§4.2)")
		violations, err := experiments.RunE8AccessControl(sc)
		if err != nil {
			return err
		}
		for _, v := range violations {
			fmt.Printf("VIOLATION req=%s handler=%s: %s\n", v.ReqID, v.Handler, v.Details)
		}
		return nil
	})
}

func runExfil() error {
	return withSecurity(func(sc *experiments.SecurityScenario) error {
		fmt.Println("E9: workflow exfiltration tracing (§4.2)")
		findings, err := experiments.RunE9Exfiltration(sc)
		if err != nil {
			return err
		}
		for _, f := range findings {
			fmt.Printf("EXFILTRATION req=%s entry=%s read=%s write=%s path=%v\n",
				f.ReqID, f.EntryHandler, f.ReadHandler, f.WriteHandler, f.WorkflowPath)
		}
		return nil
	})
}

func runCases() error {
	fmt.Println("E10: §4.1 case studies (reproduce -> locate -> replay -> validate fix)")
	results, err := experiments.RunE10CaseStudies()
	if err != nil {
		return err
	}
	fmt.Printf("\n%-45s %-10s %-8s %-8s %-9s\n", "bug", "reproduced", "located", "replayed", "fix-valid")
	for _, r := range results {
		fmt.Printf("%-45s %-10v %-8v %-8v %-9v\n", r.Bug, r.Reproduced, r.Located, r.Replayed, r.FixValidated)
		if r.Notes != "" {
			fmt.Printf("    note: %s\n", r.Notes)
		}
	}
	return nil
}

func runA1() error {
	fmt.Println("A1 (ablation): async ring-buffer vs synchronous provenance writes")
	res, err := experiments.RunA1FlushPolicy(*requests/5, *users)
	if err != nil {
		return err
	}
	fmt.Printf("async buffer: %8.1f us/request\n", res.AsyncAvgUs)
	fmt.Printf("sync writes:  %8.1f us/request\n", res.SyncAvgUs)
	fmt.Printf("slowdown:     %8.1fx  (why the paper's always-on tracing buffers)\n", res.Slowdown)
	return nil
}

func runA2() error {
	fmt.Println("A2 (ablation): full vs selective snapshot restore for replay")
	res, err := experiments.RunA2SelectiveRestore(*bulkRows)
	if err != nil {
		return err
	}
	fmt.Printf("bulk rows in unrelated table: %d\n", res.BulkRows)
	fmt.Printf("full restore:      %8.1f ms\n", res.FullMs)
	fmt.Printf("selective restore: %8.1f ms\n", res.SelectiveMs)
	fmt.Printf("speedup: %.1fx; both faithful: %v\n", res.Speedup, res.BothFaithful)
	return nil
}

func runA3() error {
	fmt.Println("A3 (ablation): conflict-pruned vs naive interleaving enumeration")
	fmt.Printf("\n%10s %18s %18s\n", "extras", "pruned schedules", "naive schedules")
	for _, extras := range []int{1, 2, 3, 4} {
		res, err := experiments.RunA3Interleavings(extras, 4096)
		if err != nil {
			return err
		}
		fmt.Printf("%10d %18d %18d\n", extras, res.PrunedCount, res.NaiveCount)
	}
	fmt.Println("\n(2 conflicting two-txn requests + N commuting one-txn requests;")
	fmt.Println(" pruning keeps the schedule count flat while naive enumeration explodes)")
	return nil
}
