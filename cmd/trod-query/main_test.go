package main

import (
	"context"
	"encoding/json"
	"net"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/db"
	"repro/internal/runtime"
	"repro/internal/server"
	"repro/internal/span"
	"repro/internal/trace"
)

// TestMain lets the test binary run the real main when re-executed by the
// tests below, so flag handling is exercised exactly as shipped.
func TestMain(m *testing.M) {
	if os.Getenv("TROD_QUERY_RUN_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func runMain(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TROD_QUERY_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("running main with %v: %v", args, err)
	}
	return string(out), ee.ExitCode()
}

// The satellite fix: unknown flags and misplaced flag-like arguments must
// exit non-zero with a usage message instead of being executed as SQL (or
// silently ignored).
func TestUnknownFlagExitsWithUsage(t *testing.T) {
	out, code := runMain(t, "-bogus")
	if code == 0 {
		t.Fatalf("unknown flag exited 0; output:\n%s", out)
	}
	if !strings.Contains(out, "-bogus") || !strings.Contains(out, "Usage") {
		t.Fatalf("missing usage message for unknown flag:\n%s", out)
	}
}

func TestMisplacedFlagAfterQueryExitsWithUsage(t *testing.T) {
	out, code := runMain(t, "-db", "ignored.wal", "SELECT 1", "-timing")
	if code != 2 {
		t.Fatalf("misplaced flag exited %d, want 2; output:\n%s", code, out)
	}
	if !strings.Contains(out, "-timing") || !strings.Contains(out, "Usage") {
		t.Fatalf("missing usage message for misplaced flag:\n%s", out)
	}
}

func TestMissingDBAndRemoteExitsWithUsage(t *testing.T) {
	out, code := runMain(t)
	if code != 2 {
		t.Fatalf("no -db/-remote exited %d, want 2; output:\n%s", code, out)
	}
	if !strings.Contains(out, "-db or -remote") {
		t.Fatalf("missing requirement message:\n%s", out)
	}
}

func TestStatsRequiresRemote(t *testing.T) {
	out, code := runMain(t, "-stats")
	if code != 2 {
		t.Fatalf("-stats without -remote exited %d, want 2; output:\n%s", code, out)
	}
	if !strings.Contains(out, "-stats requires -remote") {
		t.Fatalf("missing -stats requirement message:\n%s", out)
	}
}

func TestProvRequiresRemote(t *testing.T) {
	out, code := runMain(t, "-prov", "SELECT 1")
	if code != 2 {
		t.Fatalf("-prov without -remote exited %d, want 2; output:\n%s", code, out)
	}
	if !strings.Contains(out, "-prov requires -remote") {
		t.Fatalf("missing -prov requirement message:\n%s", out)
	}
}

// serve runs srv on a loopback port until the test ends.
func serve(t *testing.T, srv *server.Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		<-done
	})
	return ln.Addr().String()
}

// TestProvAndTraceAgainstLiveServer: against a span-traced server with a
// provenance database, -prov answers SQL over trod_spans joined to
// Executions, and -trace renders the same spans as a tree.
func TestProvAndTraceAgainstLiveServer(t *testing.T) {
	d, prov := db.MustOpenMemory(), db.MustOpenMemory()
	app := runtime.New(d)
	tr, err := trace.Attach(app, prov, trace.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close(); prov.Close(); d.Close() })
	srv, err := server.New(server.Config{DB: d, App: app, Tracer: tr,
		Spans: span.NewCollector(span.CollectorOptions{Sample: 1})})
	if err != nil {
		t.Fatal(err)
	}
	addr := serve(t, srv)
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
	// The session serves its requests in order, and a request's kept trace
	// is pushed before the next frame is read: once the ping on the same
	// pooled connection answers, the INSERT's spans are in the tracer.
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	res, err := c.ProvQuery(`SELECT ReqId FROM Executions WHERE CommitSeq > 0`)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("committed executions = %v, %v; want the INSERT alone", res, err)
	}
	req := res.Rows[0][0].AsText()

	out, code := runMain(t, "-remote", addr, "-prov",
		"SELECT S.stage, E.CommitSeq FROM trod_spans AS S JOIN Executions AS E ON S.req_id = E.ReqId WHERE S.req_id = '"+req+"'")
	if code != 0 || !strings.Contains(out, "occ_validate") {
		t.Fatalf("-prov join exited %d:\n%s", code, out)
	}
	out, code = runMain(t, "-remote", addr, "-trace", req)
	if code != 0 || !strings.Contains(out, "req "+req) || !strings.Contains(out, "commit seq") {
		t.Fatalf("-trace %s exited %d:\n%s", req, code, out)
	}
}

// TestStatsAgainstLiveServer spins an in-process server and checks the
// operator-facing stats output (text and JSON shapes).
func TestStatsAgainstLiveServer(t *testing.T) {
	d := db.MustOpenMemory()
	if _, err := d.Exec(`CREATE TABLE t (id INTEGER PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{DB: d})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		<-done
	}()
	addr := ln.Addr().String()

	out, code := runMain(t, "-remote", addr, "-stats")
	if code != 0 {
		t.Fatalf("-stats exited %d; output:\n%s", code, out)
	}
	for _, want := range []string{"requests:", "plan_cache_hits:", "role:               primary"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text stats missing %q:\n%s", want, out)
		}
	}

	out, code = runMain(t, "-remote", addr, "-stats", "-json")
	if code != 0 {
		t.Fatalf("-stats -json exited %d; output:\n%s", code, out)
	}
	var parsed map[string]any
	if err := json.Unmarshal([]byte(out), &parsed); err != nil {
		t.Fatalf("stats JSON does not parse: %v\n%s", err, out)
	}
	if parsed["is_replica"] != false {
		t.Fatalf("json stats: is_replica = %v, want false", parsed["is_replica"])
	}
	if _, ok := parsed["requests"]; !ok {
		t.Fatalf("json stats missing requests:\n%s", out)
	}
}

func TestDBAndRemoteMutuallyExclusive(t *testing.T) {
	out, code := runMain(t, "-db", "x.wal", "-remote", "127.0.0.1:1")
	if code != 2 {
		t.Fatalf("-db with -remote exited %d, want 2; output:\n%s", code, out)
	}
	if !strings.Contains(out, "mutually exclusive") {
		t.Fatalf("missing exclusivity message:\n%s", out)
	}
}
