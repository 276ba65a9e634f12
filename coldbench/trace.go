package main

import (
	"net/http"
	"sort"
	"sync"
	"time"
)

// span is one timed call recorded by the benchmark around a public entry
// point of a layer. Spans of one request share req, the request index; the
// request's serve span is the parent of its shardrpc spans.
type span struct {
	name       string
	req        int
	start, end time.Duration // offsets from the recorder's epoch
}

func (s span) dur() time.Duration { return s.end - s.start }

// selfTime is the parent's duration minus the part of its interval that its
// children cover. Children may overlap each other (parallel shard calls)
// and may stick out of the parent; only their union inside the parent is
// subtracted.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.start, parent.start), min(c.end, parent.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered time.Duration
	var curA, curB time.Duration
	open := false
	for _, x := range ivs {
		switch {
		case !open:
			curA, curB, open = x.a, x.b, true
		case x.a <= curB:
			curB = max(curB, x.b)
		default:
			covered += curB - curA
			curA, curB = x.a, x.b
		}
	}
	if open {
		covered += curB - curA
	}
	return parent.dur() - covered
}

// recorder keeps spans in memory for one traced run. It also maps each
// client connection to the request whose shard RPC currently holds it, so
// spans recorded on the far side of the shard wire land on the right
// request: an HTTP/1.1 connection carries one request at a time, and the
// client cannot reuse it before the handler has answered.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	rpcs  []rpcSpan
	conns map[string]int // client address → request index
}

// rpcSpan is a span around one shard host's match handler, with what
// crossed the wire.
type rpcSpan struct {
	span
	status            int
	inBytes, outBytes int64
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), conns: make(map[string]int)}
}

func (r *recorder) now() time.Duration { return time.Since(r.epoch) }

// add records a finished span and returns its index.
func (r *recorder) add(s span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
	return len(r.spans) - 1
}

// bindConn records that request req's RPC got the connection whose client
// end is addr.
func (r *recorder) bindConn(addr string, req int) {
	r.mu.Lock()
	r.conns[addr] = req
	r.mu.Unlock()
}

// wrapMatch wraps a shard host's match handler with an rpc span, attributed
// to the request that holds the client end of the connection.
func (r *recorder) wrapMatch(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		r.mu.Lock()
		idx, ok := r.conns[req.RemoteAddr]
		r.mu.Unlock()
		if !ok {
			idx = -1
		}
		cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
		start := r.now()
		h(cw, req)
		end := r.now()
		r.mu.Lock()
		r.rpcs = append(r.rpcs, rpcSpan{
			span:     span{name: "shardrpc", req: idx, start: start, end: end},
			status:   cw.status,
			inBytes:  max(req.ContentLength, 0),
			outBytes: cw.n,
		})
		r.mu.Unlock()
	}
}

// countingWriter records the status and body size a handler writes.
type countingWriter struct {
	http.ResponseWriter
	status int
	n      int64
}

func (w *countingWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}
