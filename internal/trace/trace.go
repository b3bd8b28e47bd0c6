// Package trace implements TROD's always-on interposition layer (paper
// §3.4): it hooks the application runtime (requests, handler invocations,
// external calls), the database facade (per-transaction read provenance and
// metadata), and the storage engine's change-data-capture feed (write
// provenance), buffers events in a fast in-memory ring, and flushes them in
// batches to the provenance database on a background goroutine.
//
// The fast path — what runs inside a handler's request — is a mutex-guarded
// slice append (sub-microsecond), which is how the paper's prototype keeps
// tracing overhead under 100µs per request. The Sync configuration flushes
// inline instead, which ablation A1 uses to show why the buffer matters.
package trace

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/db"
	"repro/internal/metrics"
	"repro/internal/provenance"
	"repro/internal/runtime"
	"repro/internal/span"
	"repro/internal/storage"
)

// Config tunes the tracer.
type Config struct {
	// Tables maps application tables to provenance event tables; only
	// listed tables get data provenance (all transactions are logged to
	// Executions regardless).
	Tables provenance.TableMap
	// FlushBatch is the buffered-event count that triggers a flush
	// (default 1024).
	FlushBatch int
	// FlushInterval is the maximum event age before a flush (default 5ms).
	FlushInterval time.Duration
	// Sync flushes every event inline on the request path (ablation A1).
	Sync bool
	// MaxReadsPerStmt caps read-provenance rows recorded per statement
	// (default 64; 0 keeps the default, -1 means unlimited). Scan-heavy
	// statements otherwise make tracing cost proportional to rows scanned —
	// the granularity/overhead balance §5 discusses.
	MaxReadsPerStmt int
	// MaxBuffered bounds the in-memory event ring (0 = unbounded, the
	// historical behavior). When the flusher cannot keep up and the buffer
	// is full, new events are dropped and counted (trod_tracer_drops_total)
	// instead of growing the heap without limit — under an adversarial
	// open-loop burst, losing provenance beats losing the server.
	MaxBuffered int
}

// Tracer is the interposition layer instance.
type Tracer struct {
	writer *provenance.Writer
	cfg    Config

	mu  sync.Mutex
	buf []provenance.Event
	// drainMu makes a drain one step: the buffer swap and its ApplyBatch
	// happen under it, so Flush returns only after every event pushed
	// before it (including a batch the flusher took first) is applied.
	drainMu sync.Mutex
	err     error // first flush error, surfaced on Flush/Close
	logical uint64

	// pool recycles drained event buffers so steady-state tracing allocates
	// no per-batch slices; buffers are cleared before pooling so they do not
	// pin row data between flushes.
	pool sync.Pool

	wake   chan struct{}
	done   chan struct{}
	closed bool

	// stats
	events  uint64
	flushes uint64
	drops   uint64

	// flushHist times writer.ApplyBatch per drain — scrape-visible as
	// trod_tracer_flush_seconds once RegisterMetrics wires it up.
	flushHist *metrics.Histogram
}

// Attach wires a tracer between an application (runtime + production DB)
// and a provenance database. It installs the runtime observer, the db
// hooks, and the CDC subscription; tracing is on from the moment Attach
// returns (always-on tracing).
func Attach(app *runtime.App, prov *db.DB, cfg Config) (*Tracer, error) {
	if cfg.FlushBatch <= 0 {
		cfg.FlushBatch = 1024
	}
	if cfg.FlushInterval <= 0 {
		cfg.FlushInterval = 5 * time.Millisecond
	}
	if cfg.MaxReadsPerStmt == 0 {
		cfg.MaxReadsPerStmt = 64
	}
	if app.DB() == prov {
		return nil, fmt.Errorf("trace: the provenance database must be separate from the application database")
	}
	writer, err := provenance.Setup(prov, app.DB(), cfg.Tables)
	if err != nil {
		return nil, err
	}
	if cfg.MaxReadsPerStmt > 0 {
		app.DB().SetReadTraceLimit(cfg.MaxReadsPerStmt)
	}
	t := &Tracer{
		writer: writer,
		cfg:    cfg,
		wake:   make(chan struct{}, 1),
		done:   make(chan struct{}),
		flushHist: metrics.NewHistogram("trod_tracer_flush_seconds",
			"Latency of flushing one buffered event batch to the provenance database.", nil),
	}

	app.DB().SetHooks(db.Hooks{
		OnCommit: func(tr db.TxnTrace) {
			t.push(provenance.Event{Kind: provenance.KindTxn, Txn: tr, Logical: t.nextLogical()})
		},
		OnAbort: func(tr db.TxnTrace) {
			// Aborted transactions are recorded too (Committed = false);
			// they carry read provenance that can matter for debugging.
			t.push(provenance.Event{Kind: provenance.KindTxn, Txn: tr, Logical: t.nextLogical()})
		},
	})
	app.DB().Store().SubscribeCDC(func(rec storage.CommitRecord) {
		// Runs under the store lock: append only, no I/O.
		logical := t.nextLogical()
		for _, ch := range rec.Changes {
			t.push(provenance.Event{
				Kind:    provenance.KindWrite,
				Seq:     rec.Seq,
				TxnID:   rec.TxnID,
				Change:  ch,
				Logical: logical,
			})
		}
	})
	app.SetObserver(t)

	if !cfg.Sync {
		go t.flushLoop()
	}
	return t, nil
}

// Writer returns the provenance writer (query helpers + Forget).
func (t *Tracer) Writer() *provenance.Writer { return t.writer }

// Prov returns the provenance database for declarative debugging queries.
func (t *Tracer) Prov() *db.DB { return t.writer.DB() }

func (t *Tracer) nextLogical() uint64 { return atomic.AddUint64(&t.logical, 1) }

// push appends an event to the ring buffer — the request-path fast path.
func (t *Tracer) push(ev provenance.Event) {
	if t.cfg.Sync {
		atomic.AddUint64(&t.events, 1)
		t.mu.Lock()
		err := t.writer.ApplyBatch([]provenance.Event{ev})
		if err != nil && t.err == nil {
			t.err = err
		}
		t.mu.Unlock()
		return
	}
	t.mu.Lock()
	if t.cfg.MaxBuffered > 0 && len(t.buf) >= t.cfg.MaxBuffered {
		// Ring full: the flusher is behind. Dropping here keeps the CDC
		// callback (which runs under the store lock) append-or-nothing.
		t.mu.Unlock()
		atomic.AddUint64(&t.drops, 1)
		select {
		case t.wake <- struct{}{}:
		default:
		}
		return
	}
	if t.buf == nil {
		t.buf = t.getBuf()
	}
	t.buf = append(t.buf, ev)
	n := len(t.buf)
	t.mu.Unlock()
	atomic.AddUint64(&t.events, 1)
	if n >= t.cfg.FlushBatch {
		select {
		case t.wake <- struct{}{}:
		default:
		}
	}
}

// flushLoop drains the buffer on batch-size wakeups and a periodic timer.
func (t *Tracer) flushLoop() {
	ticker := time.NewTicker(t.cfg.FlushInterval)
	defer ticker.Stop()
	for {
		select {
		case <-t.done:
			t.drain()
			return
		case <-t.wake:
			t.drain()
		case <-ticker.C:
			t.drain()
		}
	}
}

// drain writes out everything currently buffered, returning the drained
// buffer to the pool afterwards.
func (t *Tracer) drain() {
	t.drainMu.Lock()
	defer t.drainMu.Unlock()
	t.mu.Lock()
	batch := t.buf
	t.buf = nil
	t.mu.Unlock()
	if batch == nil {
		return
	}
	if len(batch) > 0 {
		atomic.AddUint64(&t.flushes, 1)
		start := time.Now()
		err := t.writer.ApplyBatch(batch)
		t.flushHist.ObserveSince(start)
		if err != nil {
			t.mu.Lock()
			if t.err == nil {
				t.err = err
			}
			t.mu.Unlock()
		}
	}
	t.putBuf(batch)
}

// getBuf returns a pooled (or fresh) event buffer.
func (t *Tracer) getBuf() []provenance.Event {
	if v := t.pool.Get(); v != nil {
		return *(v.(*[]provenance.Event))
	}
	return make([]provenance.Event, 0, t.cfg.FlushBatch)
}

// putBuf clears and recycles a drained buffer. Buffers inflated far past the
// flush batch size by a burst are dropped instead of pooled, so a one-time
// spike does not pin its worst-case capacity across future flushes.
func (t *Tracer) putBuf(buf []provenance.Event) {
	if cap(buf) > 4*t.cfg.FlushBatch {
		return
	}
	clear(buf)
	buf = buf[:0]
	t.pool.Put(&buf)
}

// Flush synchronously drains all buffered events and reports any flush
// error so far. Call before querying the provenance database.
func (t *Tracer) Flush() error {
	t.drain()
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Close stops the flusher after a final drain.
func (t *Tracer) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return t.err
	}
	t.closed = true
	t.mu.Unlock()
	if !t.cfg.Sync {
		close(t.done)
	}
	return t.Flush()
}

// Stats reports tracer counters (events captured, batch flushes).
func (t *Tracer) Stats() (events, flushes uint64) {
	return atomic.LoadUint64(&t.events), atomic.LoadUint64(&t.flushes)
}

// Counters reports the full counter set: events captured, events dropped at
// a full ring (Config.MaxBuffered), and batch flushes. This is the shape
// protocol.Stats and the metrics endpoint both consume, so the one-shot
// -stats path and the scrape path cannot disagree.
func (t *Tracer) Counters() (events, drops, flushes uint64) {
	return atomic.LoadUint64(&t.events), atomic.LoadUint64(&t.drops), atomic.LoadUint64(&t.flushes)
}

// RegisterMetrics exports the tracer's counters and flush-latency histogram
// on reg under the trod_tracer_* namespace.
func (t *Tracer) RegisterMetrics(reg *metrics.Registry) {
	reg.CounterFunc("trod_tracer_events_total",
		"Provenance events captured by the interposition layer.",
		func() uint64 { return atomic.LoadUint64(&t.events) })
	reg.CounterFunc("trod_tracer_drops_total",
		"Provenance events dropped because the ring buffer was full (MaxBuffered).",
		func() uint64 { return atomic.LoadUint64(&t.drops) })
	reg.CounterFunc("trod_tracer_flushes_total",
		"Batches flushed to the provenance database.",
		func() uint64 { return atomic.LoadUint64(&t.flushes) })
	reg.Register(t.flushHist)
}

// --- runtime.Observer ------------------------------------------------------

// RequestStart implements runtime.Observer. Request rows are written at end
// (with latency); start is a no-op kept for symmetry and future use.
func (t *Tracer) RequestStart(runtime.RequestInfo) {}

// RequestEnd records the finished request with end-to-end latency — the §5
// performance-debugging extension.
func (t *Tracer) RequestEnd(info runtime.RequestInfo) {
	status := "ok"
	if info.Err != nil {
		status = "error: " + info.Err.Error()
	}
	argsText, err := runtime.ArgsJSON(info.Args)
	if err != nil {
		argsText = "<unrepresentable>"
	}
	t.push(provenance.Event{
		Kind:       provenance.KindRequest,
		ReqID:      info.ReqID,
		Handler:    info.Handler,
		ArgsText:   argsText,
		ResultText: runtime.ResultJSON(info.Result),
		LatencyUs:  info.End.Sub(info.Start).Microseconds(),
		Status:     status,
		Logical:    t.nextLogical(),
	})
}

// Invocation records a handler invocation edge in the workflow graph.
func (t *Tracer) Invocation(info runtime.InvocationInfo) {
	t.push(provenance.Event{
		Kind:    provenance.KindEdge,
		ReqID:   info.ReqID,
		Parent:  info.Parent,
		Child:   info.InvocationID,
		Handler: info.Handler,
		Logical: t.nextLogical(),
	})
}

// Span records a kept request trace (span.Collector's sink): its spans
// become trod_spans rows in the next batch. It runs on the request path
// after the response is written; a full ring drops it like any event.
func (t *Tracer) Span(tr *span.Trace) {
	t.push(provenance.Event{Kind: provenance.KindSpan, Span: tr, Logical: t.nextLogical()})
}

// External records an external-service call.
func (t *Tracer) External(call runtime.ExternalCall) {
	t.push(provenance.Event{
		Kind:    provenance.KindExternal,
		ReqID:   call.ReqID,
		Service: call.Service,
		Payload: call.Payload,
		Logical: t.nextLogical(),
	})
}
