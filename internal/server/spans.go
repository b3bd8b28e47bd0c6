package server

import (
	"time"

	"repro/internal/protocol"
	"repro/internal/span"
)

// This file is the server half of request-scoped span tracing: per-request
// span buffers on the serve loop and the tail-sampling completion path. Kept
// traces leave through the collector's sink (the tracer, when one is
// attached), which writes them to the provenance trod_spans table.

// traceable reports whether a request type gets a span buffer. Ping, stats,
// promote, and subscribe frames are control traffic with no stage structure
// worth a trace.
func traceable(t protocol.MsgType) bool {
	switch t {
	case protocol.MsgQuery, protocol.MsgExec, protocol.MsgBegin,
		protocol.MsgCommit, protocol.MsgRollback:
		return true
	}
	return false
}

// startTrace begins a span buffer for one traced request. The trace ID comes
// from the request frame when the client propagated one (so client- and
// server-side spans share a trace), otherwise from the collector's allocator.
// start is the request's first-byte time: the frame read that just finished
// is recorded immediately, and the session's admission-queue wait — which
// happened once, before the first frame — is attributed to the first traced
// request.
func (ss *session) startTrace(req *protocol.Message, start time.Time) *span.Buf {
	col := ss.srv.cfg.Spans
	if !col.Enabled() || !traceable(req.Type) {
		return nil
	}
	tid := req.TraceID
	if tid == 0 {
		tid = col.NextTraceID()
	}
	buf := span.NewBuf(tid, uint32(req.ParentSpan))
	if qw := ss.queueWait; qw > 0 {
		ss.queueWait = 0
		buf.Record(span.StageQueueWait, span.RootID, start.Add(-qw), qw)
	}
	buf.Record(span.StageFrameRead, span.RootID, start, time.Since(start))
	return buf
}

// completeTrace finishes a traced request: stamps the root span, feeds every
// stage into the trod_span_stage_seconds histograms, and offers the trace to
// the collector's tail sampler. Runs on the request path after the response
// write — everything here is counters, one bounded copy, and short ring
// inserts (the collector's, then the tracer's when one is attached).
func (ss *session) completeTrace(buf *span.Buf, req *protocol.Message, start time.Time, lat time.Duration) {
	buf.Finish(start, lat)
	srv := ss.srv
	spans := buf.Spans()
	for i := range spans {
		if st := int(spans[i].Stage); st < len(srv.spanByStage) {
			srv.spanByStage[st].Observe(float64(spans[i].Dur) / 1e9)
		}
	}
	srv.cfg.Spans.Offer(&span.Trace{
		TraceID: buf.TraceID,
		ReqID:   ss.lastReqID,
		Kind:    msgTypeName(req.Type),
		Status:  ss.lastStatus,
		Wall:    lat,
		Start:   start,
		Seq:     buf.CommitSeq(),
		Spans:   spans,
	})
}
