package server

import (
	"fmt"
	"io"
	"net"
	"net/http"

	"hybridstore"
	"hybridstore/internal/exec/pool"
)

// HTTP front end. Endpoints:
//
//	POST /v1/session  {"tenant":"t"}                          → {"session_id":"s1"}
//	POST /v1/prepare  {"session_id","op","table","col",
//	                   "key_col"}                             → {"stmt_id":0}
//	POST /v1/exec     {"session_id","stmt_id", ...args}       → op-specific payload
//	GET  /metrics                                             → full obs registry JSON
//	GET  /healthz                                             → {"ok":true}
//
// The exec handler moves request and response bytes through recycled
// pool buffers; session and prepare are cold-path and favour clarity.

// Handler returns the server's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/session", s.handleSession)
	mux.HandleFunc("/v1/prepare", s.handlePrepare)
	mux.HandleFunc("/v1/exec", s.handleExec)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := hybridstore.WriteMetricsJSON(w); err != nil {
			http.Error(w, err.Error(), 500)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"ok":true}`)
	})
	return mux
}

// Serve answers HTTP on l until l closes.
func (s *Server) Serve(l net.Listener) error {
	return (&http.Server{Handler: s.Handler()}).Serve(l)
}

// maxBodyBytes bounds a request body. The largest legitimate body is an
// insert's record, far below it; the bound exists so that no client can
// make the server allocate in proportion to a number it sends.
const (
	maxBodyBytes = 1 << 20
	bodyTooLarge = "request body exceeds 1 MiB"
)

// readBody drains r into a pooled buffer, sized by Content-Length when
// one is announced. A body announced or read beyond maxBodyBytes is
// answered 413 and a failed read 400; ok is false then and the request
// is finished. Otherwise callers must PutBytes the result.
func readBody(w http.ResponseWriter, r *http.Request) (body []byte, ok bool) {
	if r.ContentLength > maxBodyBytes {
		http.Error(w, bodyTooLarge, http.StatusRequestEntityTooLarge)
		return nil, false
	}
	n := int(r.ContentLength)
	if n < 0 {
		n = 512
	}
	buf := pool.GetBytesCap(n)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		m, err := r.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+m]
		switch {
		case len(buf) > maxBodyBytes:
			// The grown buffer is dropped, not pooled: the pool serves
			// every request and should not carry it.
			http.Error(w, bodyTooLarge, http.StatusRequestEntityTooLarge)
			return nil, false
		case err == io.EOF:
			return buf, true
		case err != nil:
			pool.PutBytes(buf)
			http.Error(w, err.Error(), 400)
			return nil, false
		}
	}
}

func (s *Server) handleExec(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	// Deferred so a panicking statement cannot leak the pooled buffers
	// (net/http recovers the panic per connection; the server keeps
	// serving and the pool keeps its pages).
	defer pool.PutBytes(body)
	out := pool.GetBytes()[:0]
	defer func() { pool.PutBytes(out) }()
	out, code := s.Exec(body, out)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(out)
}

func (s *Server) handleSession(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	defer pool.PutBytes(body)
	tenant := ""
	if len(body) > 0 {
		_, err := scanObject(body, func(key, val []byte) error {
			if string(key) == "tenant" {
				tenant = string(val)
			}
			return nil
		})
		if err != nil {
			http.Error(w, err.Error(), 400)
			return
		}
	}
	id, err := s.CreateSession(tenant)
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"session_id":%q}`, id)
}

func (s *Server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	defer pool.PutBytes(body)
	var sid, op, table string
	col, keyCol := -1, -1
	_, err := scanObject(body, func(key, val []byte) error {
		switch string(key) {
		case "session_id":
			sid = string(val)
		case "op":
			op = string(val)
		case "table":
			table = string(val)
		case "col", "val_col":
			n, err := parseI64(val)
			if err != nil {
				return fmt.Errorf("%w: col: %v", errProto, err)
			}
			col = int(n)
		case "key_col":
			n, err := parseI64(val)
			if err != nil {
				return fmt.Errorf("%w: key_col: %v", errProto, err)
			}
			keyCol = int(n)
		}
		return nil
	})
	if err != nil {
		http.Error(w, err.Error(), 400)
		return
	}
	id, err := s.Prepare(sid, op, table, col, keyCol)
	if err != nil {
		http.Error(w, err.Error(), 400)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"stmt_id":%d}`, id)
}
