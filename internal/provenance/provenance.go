// Package provenance defines the TROD provenance database: the structured,
// SQL-queryable tables the interposition layer fills (paper §3.4) and the
// helpers debugging operations use to read them back.
//
// Schema (names match the paper where it names them):
//
//	Executions        — one row per transaction: TxnId, Timestamp,
//	                    HandlerName, ReqId, Func (the paper's Metadata
//	                    column), Workflow, CommitSeq, Snapshot, Committed,
//	                    LatencyUs. This is "Table 1" / the table the §3.3
//	                    debugging query calls Executions.
//	trod_requests     — one row per top-level request with end-to-end
//	                    latency and status (the §5 performance extension).
//	trod_rpc_edges    — the workflow graph: parent/child invocation edges
//	                    (used by §4.2 exfiltration tracing).
//	trod_externals    — external-service calls (assumed idempotent).
//	trod_spans        — one row per span of every kept request trace
//	                    (internal/span), joinable to Executions on
//	                    req_id = ReqId; seq is the commit sequence a
//	                    commit-pinned stage belongs to.
//	<T>Events         — one per traced application table (e.g. ForumEvents
//	                    for forum_sub): Read/Insert/Update/Delete events
//	                    with the observed row values ("Table 2").
package provenance

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/db"
	"repro/internal/schema"
	"repro/internal/span"
	"repro/internal/storage"
	"repro/internal/value"
)

// TableMap maps an application table name (case-insensitive) to its event
// table name in the provenance database, e.g. "forum_sub" -> "ForumEvents".
type TableMap map[string]string

// normalize returns a lower-keyed copy.
func (m TableMap) normalize() TableMap {
	out := make(TableMap, len(m))
	for k, v := range m {
		out[strings.ToLower(k)] = v
	}
	return out
}

// Event is one provenance record buffered by the tracer and applied by the
// Writer. Exactly one of the payload groups is set, per Kind.
type Event struct {
	Kind Kind

	// Txn events (KindTxn): the finished transaction with read provenance.
	Txn db.TxnTrace

	// Write events (KindWrite): one CDC change.
	Seq    uint64
	TxnID  uint64
	Change storage.Change

	// Request events (KindRequest).
	ReqID      string
	Handler    string
	ArgsText   string
	ResultText string
	LatencyUs  int64
	Status     string

	// RPC edge events (KindEdge).
	Parent string
	Child  string

	// External call events (KindExternal).
	Service string
	Payload string

	// Kept request traces (KindSpan): one trod_spans row per span.
	Span *span.Trace

	// Logical is the tracer-assigned total-order timestamp.
	Logical uint64
}

// Kind discriminates Event payloads.
type Kind uint8

// Event kinds.
const (
	KindTxn Kind = iota
	KindWrite
	KindRequest
	KindEdge
	KindExternal
	KindSpan
)

// Writer applies events to the provenance database.
//
// The write path bypasses the SQL layer: batches are turned directly into
// storage commits against the provenance store. The provenance schema is
// owned by the Writer (nothing else writes it), so this is safe, and it is
// what keeps background flushing cheap enough for always-on tracing on
// small machines.
type Writer struct {
	prov    *db.DB
	tables  TableMap
	appCols map[string][]schema.Column // app table (lower) -> columns
	// evTables caches resolved schema.Table handles per destination.
	evTables map[string]*schema.Table // lowercased app table -> event table schema
	// dests memoizes destination lookups per exact table-name spelling so the
	// per-event hot path (appendTxn/appendWrite) avoids strings.ToLower; a nil
	// entry marks an untraced table. Guarded by mu (ApplyBatch holds it).
	dests   map[string]*dest
	execTbl *schema.Table
	reqTbl  *schema.Table
	edgeTbl *schema.Table
	extTbl  *schema.Table
	spanTbl *schema.Table
	// mu serialises ApplyBatch: the tracer's background flusher and an
	// explicit Flush may drain concurrently, and the synthetic-ID counters
	// plus the single-writer commit assumption require exclusion.
	mu      sync.Mutex
	evSeq   uint64
	edgeSeq uint64
	extSeq  uint64
	spanSeq uint64
}

// Setup creates the provenance schema inside prov for the given application
// database and table map, returning a Writer. Event tables get the traced
// table's columns (nullable) plus the provenance header columns.
func Setup(prov *db.DB, appDB *db.DB, tables TableMap) (*Writer, error) {
	w := &Writer{
		prov:     prov,
		tables:   tables.normalize(),
		appCols:  make(map[string][]schema.Column),
		evTables: make(map[string]*schema.Table),
		dests:    make(map[string]*dest),
	}
	ddl := `
	CREATE TABLE IF NOT EXISTS Executions (
		TxnId INTEGER PRIMARY KEY, Timestamp INTEGER, HandlerName TEXT,
		ReqId TEXT, Func TEXT, Workflow TEXT, CommitSeq INTEGER,
		Snapshot INTEGER, Committed BOOL, LatencyUs INTEGER);
	CREATE TABLE IF NOT EXISTS trod_requests (
		ReqId TEXT PRIMARY KEY, HandlerName TEXT, Args TEXT, Result TEXT,
		Timestamp INTEGER, LatencyUs INTEGER, Status TEXT);
	CREATE TABLE IF NOT EXISTS trod_rpc_edges (
		EdgeId INTEGER PRIMARY KEY, ReqId TEXT, Parent TEXT, Child TEXT,
		HandlerName TEXT, Timestamp INTEGER);
	CREATE TABLE IF NOT EXISTS trod_externals (
		CallId INTEGER PRIMARY KEY, ReqId TEXT, Service TEXT, Payload TEXT,
		Timestamp INTEGER);
	CREATE TABLE IF NOT EXISTS trod_spans (
		id INTEGER PRIMARY KEY, trace_id INTEGER, req_id TEXT, kind TEXT,
		status TEXT, span_id INTEGER, parent_id INTEGER, stage TEXT,
		start_us INTEGER, dur_us INTEGER, seq INTEGER);`
	if err := prov.ExecScript(ddl); err != nil {
		return nil, fmt.Errorf("provenance: schema: %w", err)
	}
	// CREATE INDEX has no IF NOT EXISTS in our dialect; create each index
	// only when absent (the prov DB may be re-attached across runs).
	for _, ix := range []struct{ name, table, col string }{
		{"ex_req", "Executions", "ReqId"},
		{"spans_req", "trod_spans", "req_id"},
	} {
		hasIdx := false
		for _, have := range prov.Store().Indexes(ix.table) {
			if strings.EqualFold(have.Name, ix.name) {
				hasIdx = true
			}
		}
		if !hasIdx {
			if _, err := prov.Exec(fmt.Sprintf("CREATE INDEX %s ON %s (%s)", ix.name, ix.table, ix.col)); err != nil {
				return nil, err
			}
		}
	}

	for appTable, evTable := range w.tables {
		tbl := appDB.Store().Table(appTable)
		if tbl == nil {
			return nil, fmt.Errorf("provenance: traced table %q does not exist in the application database", appTable)
		}
		w.appCols[appTable] = tbl.Columns
		if prov.Store().Table(evTable) != nil {
			continue
		}
		var sb strings.Builder
		fmt.Fprintf(&sb, "CREATE TABLE %s (EvId INTEGER PRIMARY KEY, TxnId INTEGER, Seq INTEGER, Type TEXT, Query TEXT", evTable)
		for _, c := range tbl.Columns {
			fmt.Fprintf(&sb, ", %s %s", c.Name, sqlTypeName(c.Type))
		}
		sb.WriteString(")")
		if _, err := prov.Exec(sb.String()); err != nil {
			return nil, fmt.Errorf("provenance: event table %s: %w", evTable, err)
		}
		if _, err := prov.Exec(fmt.Sprintf("CREATE INDEX %s_txn ON %s (TxnId)", evTable, evTable)); err != nil {
			return nil, err
		}
	}
	for appTable, evTable := range w.tables {
		w.evTables[appTable] = prov.Store().Table(evTable)
	}
	w.execTbl = prov.Store().Table("Executions")
	w.reqTbl = prov.Store().Table("trod_requests")
	w.edgeTbl = prov.Store().Table("trod_rpc_edges")
	w.extTbl = prov.Store().Table("trod_externals")
	w.spanTbl = prov.Store().Table("trod_spans")
	// Resume the synthetic-ID counters past any recovered rows, so a
	// tracer re-attached to a durable provenance database keeps appending
	// (the restart arc in the root durability tests).
	maxOf := func(table, col string) (uint64, error) {
		res, err := prov.Query(fmt.Sprintf("SELECT COALESCE(MAX(%s), 0) FROM %s", col, table))
		if err != nil {
			return 0, err
		}
		return uint64(res.Rows[0][0].AsInt()), nil
	}
	for _, evTable := range w.tables {
		n, err := maxOf(evTable, "EvId")
		if err != nil {
			return nil, err
		}
		if n > w.evSeq {
			w.evSeq = n
		}
	}
	var err error
	if w.edgeSeq, err = maxOf("trod_rpc_edges", "EdgeId"); err != nil {
		return nil, err
	}
	if w.extSeq, err = maxOf("trod_externals", "CallId"); err != nil {
		return nil, err
	}
	if w.spanSeq, err = maxOf("trod_spans", "id"); err != nil {
		return nil, err
	}
	return w, nil
}

func sqlTypeName(k value.Kind) string {
	switch k {
	case value.KindInt:
		return "INTEGER"
	case value.KindFloat:
		return "FLOAT"
	case value.KindBool:
		return "BOOL"
	case value.KindBytes:
		return "BYTES"
	default:
		return "TEXT"
	}
}

// dest bundles the resolved destination for one traced application table.
type dest struct {
	evTbl   *schema.Table
	appCols []schema.Column
}

// dest resolves the provenance destination for an application table name,
// lowercasing at most once per distinct spelling. Returns nil for untraced
// tables. Callers must hold w.mu.
func (w *Writer) dest(table string) *dest {
	d, ok := w.dests[table]
	if !ok {
		key := strings.ToLower(table)
		if evTbl := w.evTables[key]; evTbl != nil {
			d = &dest{evTbl: evTbl, appCols: w.appCols[key]}
		}
		w.dests[table] = d
	}
	return d
}

// DB returns the provenance database for direct declarative debugging.
func (w *Writer) DB() *db.DB { return w.prov }

// EventTable returns the event-table name for an application table, or "".
func (w *Writer) EventTable(appTable string) string {
	return w.tables[strings.ToLower(appTable)]
}

// ApplyBatch writes a batch of events as one storage commit against the
// provenance store.
func (w *Writer) ApplyBatch(events []Event) error {
	if len(events) == 0 {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	changes := make([]storage.Change, 0, len(events)*2)
	var err error
	for i := range events {
		changes, err = w.appendChanges(changes, &events[i])
		if err != nil {
			return err
		}
	}
	if len(changes) == 0 {
		return nil
	}
	store := w.prov.Store()
	// Commit through the facade so a disk-backed provenance database gets
	// the full durability path: group-commit waiting and automatic
	// checkpoint triggers (batches bypass the SQL layer but not the WAL).
	seq, err := w.prov.ApplyCommit(storage.CommitRequest{TxnID: store.NextTxnID(), Snapshot: store.CurrentSeq(), Changes: changes})
	if err != nil {
		return err
	}
	// The provenance database needs no CDC history of its own (replay and
	// retro consume the PRODUCTION commit log); drop it eagerly so the
	// always-on tracer's memory footprint is just the provenance rows.
	store.TruncateLog(seq)
	return nil
}

// appendChanges renders one event into storage changes.
func (w *Writer) appendChanges(changes []storage.Change, ev *Event) ([]storage.Change, error) {
	switch ev.Kind {
	case KindTxn:
		return w.appendTxn(changes, ev)
	case KindWrite:
		return w.appendWrite(changes, ev)
	case KindRequest:
		row := value.Row{
			value.Text(ev.ReqID), value.Text(ev.Handler), value.Text(ev.ArgsText),
			value.Text(ev.ResultText), value.Int(int64(ev.Logical)), value.Int(ev.LatencyUs),
			value.Text(ev.Status),
		}
		return w.appendRow(changes, w.reqTbl, row)
	case KindEdge:
		w.edgeSeq++
		row := value.Row{
			value.Int(int64(w.edgeSeq)), value.Text(ev.ReqID), value.Text(ev.Parent),
			value.Text(ev.Child), value.Text(ev.Handler), value.Int(int64(ev.Logical)),
		}
		return w.appendRow(changes, w.edgeTbl, row)
	case KindExternal:
		w.extSeq++
		row := value.Row{
			value.Int(int64(w.extSeq)), value.Text(ev.ReqID), value.Text(ev.Service),
			value.Text(ev.Payload), value.Int(int64(ev.Logical)),
		}
		return w.appendRow(changes, w.extTbl, row)
	case KindSpan:
		return w.appendSpans(changes, ev.Span)
	default:
		return nil, fmt.Errorf("provenance: unknown event kind %d", ev.Kind)
	}
}

func (w *Writer) appendRow(changes []storage.Change, tbl *schema.Table, row value.Row) ([]storage.Change, error) {
	checked, err := tbl.CheckRow(row)
	if err != nil {
		return nil, fmt.Errorf("provenance: %s: %w", tbl.Name, err)
	}
	return append(changes, storage.Change{
		Table: tbl.Name,
		Key:   tbl.EncodePrimaryKey(checked),
		Op:    storage.OpInsert,
		After: checked,
	}), nil
}

// appendSpans renders a kept trace as one trod_spans row per span. Times
// are microseconds (start_us is unix-epoch).
func (w *Writer) appendSpans(changes []storage.Change, t *span.Trace) ([]storage.Change, error) {
	var err error
	for i := range t.Spans {
		sp := &t.Spans[i]
		w.spanSeq++
		row := value.Row{
			value.Int(int64(w.spanSeq)), value.Int(int64(t.TraceID)), value.Text(t.ReqID),
			value.Text(t.Kind), value.Text(t.Status), value.Int(int64(sp.ID)),
			value.Int(int64(sp.Parent)), value.Text(sp.Stage.String()),
			value.Int(sp.Start / 1e3), value.Int(sp.Dur / 1e3), value.Int(int64(sp.Seq)),
		}
		if changes, err = w.appendRow(changes, w.spanTbl, row); err != nil {
			return nil, err
		}
	}
	return changes, nil
}

func (w *Writer) appendTxn(changes []storage.Change, ev *Event) ([]storage.Change, error) {
	tr := &ev.Txn
	latency := tr.End.Sub(tr.Start).Microseconds()
	row := value.Row{
		value.Int(int64(tr.TxnID)), value.Int(int64(ev.Logical)), value.Text(tr.Meta.Handler),
		value.Text(tr.Meta.ReqID), value.Text(tr.Meta.Func), value.Text(tr.Meta.Workflow),
		value.Int(int64(tr.CommitSeq)), value.Int(int64(tr.Snapshot)),
		value.Bool(tr.Committed), value.Int(latency),
	}
	changes, err := w.appendRow(changes, w.execTbl, row)
	if err != nil {
		return nil, err
	}
	// Read provenance rows into the per-table event tables.
	for si := range tr.Stmts {
		st := &tr.Stmts[si]
		for ri := range st.Reads {
			rd := &st.Reads[ri]
			d := w.dest(rd.Table)
			if d == nil {
				continue
			}
			changes, err = w.appendEvent(changes, d, int64(tr.TxnID), int64(tr.Snapshot), "Read", st.Query, rd.Row)
			if err != nil {
				return nil, err
			}
		}
	}
	return changes, nil
}

func (w *Writer) appendWrite(changes []storage.Change, ev *Event) ([]storage.Change, error) {
	d := w.dest(ev.Change.Table)
	if d == nil {
		return changes, nil
	}
	row := ev.Change.After
	if ev.Change.Op == storage.OpDelete {
		row = ev.Change.Before
	}
	return w.appendEvent(changes, d, int64(ev.TxnID), int64(ev.Seq), ev.Change.Op.String(), "", row)
}

func (w *Writer) appendEvent(changes []storage.Change, d *dest, txnID, seq int64, typ, query string, row value.Row) ([]storage.Change, error) {
	cols := d.appCols
	w.evSeq++
	out := make(value.Row, 0, 5+len(cols))
	out = append(out, value.Int(int64(w.evSeq)), value.Int(txnID), value.Int(seq), value.Text(typ), value.Text(query))
	for i := range cols {
		if row == nil || i >= len(row) {
			out = append(out, value.Null)
		} else {
			out = append(out, row[i])
		}
	}
	return w.appendRow(changes, d.evTbl, out)
}

// --- query helpers -------------------------------------------------------------

// Execution is one row of the Executions table.
type Execution struct {
	TxnID     uint64
	Timestamp uint64
	Handler   string
	ReqID     string
	Func      string
	Workflow  string
	CommitSeq uint64
	Snapshot  uint64
	Committed bool
	LatencyUs int64
}

func executionFromRow(r value.Row) Execution {
	b := func(v value.Value) uint64 {
		if v.IsNull() {
			return 0
		}
		return uint64(v.AsInt())
	}
	s := func(v value.Value) string {
		if v.IsNull() {
			return ""
		}
		return v.AsText()
	}
	return Execution{
		TxnID: b(r[0]), Timestamp: b(r[1]), Handler: s(r[2]), ReqID: s(r[3]),
		Func: s(r[4]), Workflow: s(r[5]), CommitSeq: b(r[6]), Snapshot: b(r[7]),
		Committed: !r[8].IsNull() && r[8].AsBool(), LatencyUs: r[9].AsInt(),
	}
}

const executionCols = `TxnId, Timestamp, HandlerName, ReqId, Func, Workflow, CommitSeq, Snapshot, Committed, LatencyUs`

// ExecutionsForRequest returns a request's transactions in execution order.
func (w *Writer) ExecutionsForRequest(reqID string) ([]Execution, error) {
	res, err := w.prov.Query(`SELECT `+executionCols+` FROM Executions WHERE ReqId = ? ORDER BY Timestamp`, reqID)
	if err != nil {
		return nil, err
	}
	out := make([]Execution, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = executionFromRow(r)
	}
	return out, nil
}

// ExecutionByTxn returns the execution record for one transaction.
func (w *Writer) ExecutionByTxn(txnID uint64) (Execution, error) {
	res, err := w.prov.Query(`SELECT `+executionCols+` FROM Executions WHERE TxnId = ?`, int64(txnID))
	if err != nil {
		return Execution{}, err
	}
	if len(res.Rows) == 0 {
		return Execution{}, fmt.Errorf("provenance: no execution for txn %d", txnID)
	}
	return executionFromRow(res.Rows[0]), nil
}

// RequestsTouchingTable returns the distinct request IDs that read or wrote
// the given application table, in first-touch order. Retroactive programming
// uses this to find "other requests that may touch the same table" (§4.1).
func (w *Writer) RequestsTouchingTable(appTable string) ([]string, error) {
	evTable := w.EventTable(appTable)
	if evTable == "" {
		return nil, fmt.Errorf("provenance: table %q is not traced", appTable)
	}
	res, err := w.prov.Query(`SELECT E.ReqId, MIN(E.Timestamp) AS t
		FROM Executions AS E JOIN ` + evTable + ` AS F ON E.TxnId = F.TxnId
		GROUP BY E.ReqId ORDER BY t`)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		out = append(out, r[0].AsText())
	}
	return out, nil
}

// WorkflowEdges returns the RPC edges of one request in invocation order.
func (w *Writer) WorkflowEdges(reqID string) ([][2]string, error) {
	res, err := w.prov.Query(`SELECT Parent, Child FROM trod_rpc_edges WHERE ReqId = ? ORDER BY Timestamp`, reqID)
	if err != nil {
		return nil, err
	}
	out := make([][2]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = [2]string{r[0].AsText(), r[1].AsText()}
	}
	return out, nil
}

// Forget deletes every provenance record whose traced column equals the
// given value — the GDPR/CCPA deletion hook sketched in §5. It removes
// matching event rows from every traced table; execution and request rows
// are kept (they carry no row data).
func (w *Writer) Forget(column string, val any) (int, error) {
	total := 0
	for appTable, evTable := range w.tables {
		hasCol := false
		for _, c := range w.appCols[appTable] {
			if strings.EqualFold(c.Name, column) {
				hasCol = true
				break
			}
		}
		if !hasCol {
			continue
		}
		res, err := w.prov.Exec(fmt.Sprintf(`DELETE FROM %s WHERE %s = ?`, evTable, column), val)
		if err != nil {
			return total, err
		}
		total += res.RowsAffected
	}
	return total, nil
}

// Request is one row of trod_requests.
type Request struct {
	ReqID     string
	Handler   string
	ArgsJSON  string
	Result    string
	Timestamp uint64
	LatencyUs int64
	Status    string
}

// RequestByID returns the recorded request, or an error when unknown.
func (w *Writer) RequestByID(reqID string) (Request, error) {
	res, err := w.prov.Query(`SELECT ReqId, HandlerName, Args, Result, Timestamp, LatencyUs, Status FROM trod_requests WHERE ReqId = ?`, reqID)
	if err != nil {
		return Request{}, err
	}
	if len(res.Rows) == 0 {
		return Request{}, fmt.Errorf("provenance: no request %q", reqID)
	}
	r := res.Rows[0]
	s := func(v value.Value) string {
		if v.IsNull() {
			return ""
		}
		return v.AsText()
	}
	return Request{
		ReqID: s(r[0]), Handler: s(r[1]), ArgsJSON: s(r[2]), Result: s(r[3]),
		Timestamp: uint64(r[4].AsInt()), LatencyUs: r[5].AsInt(), Status: s(r[6]),
	}, nil
}

// Requests returns all recorded requests in timestamp order.
func (w *Writer) Requests() ([]Request, error) {
	res, err := w.prov.Query(`SELECT ReqId, HandlerName, Args, Result, Timestamp, LatencyUs, Status FROM trod_requests ORDER BY Timestamp`)
	if err != nil {
		return nil, err
	}
	out := make([]Request, 0, len(res.Rows))
	for _, r := range res.Rows {
		s := func(v value.Value) string {
			if v.IsNull() {
				return ""
			}
			return v.AsText()
		}
		out = append(out, Request{
			ReqID: s(r[0]), Handler: s(r[1]), ArgsJSON: s(r[2]), Result: s(r[3]),
			Timestamp: uint64(r[4].AsInt()), LatencyUs: r[5].AsInt(), Status: s(r[6]),
		})
	}
	return out, nil
}
