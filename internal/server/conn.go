package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"runtime/pprof"
	"strconv"
	"time"
)

// Serve answers HTTP/1.1 on l until l closes, one goroutine per
// connection reading its requests in turn. The exec request — a POST
// /v1/exec that announces its length, one per operation a client sends —
// is parsed in place and answered by Exec from the connection's own
// buffers: no header maps, context, timer or background read per
// request, which is where net/http's server spends most of a small
// request's allocation and a goroutine hand-off. Every other request
// (the cold endpoints, a chunked body, Expect, Connection, a head beyond
// the read buffer) goes through net/http's request parser and Handler
// and is answered whole before the next one is read.
//
// Each connection goroutine carries the profiler label side=server
// (serverLabels), which the goroutines it starts inherit: a CPU profile
// of a process that also runs clients (cmd/loadgen -selfserve) splits by
// it.
func (s *Server) Serve(l net.Listener) error {
	h := s.Handler()
	for {
		c, err := l.Accept()
		if err != nil {
			return err
		}
		go pprof.Do(context.Background(), serverLabels, func(context.Context) { s.serveConn(c, h) })
	}
}

// serverLabels marks the server's goroutines in profiles.
var serverLabels = pprof.Labels("side", "server")

// Read-side bounds of one connection: the buffer an exec request's head
// must fit, the most any other head may read (net/http's default), the
// most of a body a handler left unread that is drained to keep the
// connection, and the largest buffer a connection keeps between requests.
const (
	connBufBytes  = 4 << 10
	maxHeadBytes  = 1 << 20
	maxDrainBytes = 256 << 10
	keptBufBytes  = 64 << 10
)

var (
	errHeadTooLarge = errors.New("server: request head too large")
	headEnd         = []byte("\r\n\r\n")
)

// limitedConn caps what a request head may read from the connection
// while net/http's parser reads it.
type limitedConn struct {
	net.Conn
	left int64
}

func (c *limitedConn) Read(p []byte) (int, error) {
	if c.left <= 0 {
		return 0, errHeadTooLarge
	}
	if int64(len(p)) > c.left {
		p = p[:c.left]
	}
	n, err := c.Conn.Read(p)
	c.left -= int64(n)
	return n, err
}

func (s *Server) serveConn(nc net.Conn, h http.Handler) {
	defer nc.Close()
	defer func() {
		// A panicking statement ends its connection, not the server.
		if r := recover(); r != nil {
			log.Printf("server: panic serving %v: %v", nc.RemoteAddr(), r)
		}
	}()
	lc := &limitedConn{Conn: nc, left: math.MaxInt64}
	br := bufio.NewReaderSize(lc, connBufBytes)
	var body, out, resp []byte
	for {
		head, err := peekHead(br)
		if err != nil {
			return
		}
		keep := true
		if n, ok := execLength(head); ok {
			br.Discard(len(head))
			if cap(body) < n {
				body = make([]byte, n)
			}
			if _, err := io.ReadFull(br, body[:n]); err != nil {
				return
			}
			var code int
			out, code = s.Exec(body[:n], out[:0])
			resp = appendHead(resp[:0], code, len(out))
			resp = append(resp, out...)
		} else {
			resp, keep = serveGeneral(nc, lc, br, h, resp[:0])
		}
		if _, err := nc.Write(resp); err != nil || !keep {
			return
		}
		body, out, resp = shrink(body), shrink(out), shrink(resp)
	}
}

// shrink drops a buffer one large request grew, so an idle connection
// holds no more than keptBufBytes each.
func shrink(b []byte) []byte {
	if cap(b) > keptBufBytes {
		return nil
	}
	return b
}

// peekHead returns the request head at br's front — request line through
// the blank line — without consuming it, or nil when it does not fit the
// buffer.
func peekHead(br *bufio.Reader) ([]byte, error) {
	for {
		b, _ := br.Peek(br.Buffered())
		if i := bytes.Index(b, headEnd); i >= 0 {
			return b[:i+len(headEnd)], nil
		}
		if len(b) == br.Size() {
			return nil, nil
		}
		// Wait for more bytes.
		if _, err := br.Peek(len(b) + 1); err != nil {
			return nil, err
		}
	}
}

// execLength reports whether head is an exec request the connection
// answers itself, and its body length: POST /v1/exec over HTTP/1.1 with
// one Content-Length within the body bound, and no header that asks more
// of the protocol (a transfer coding, Expect, Connection). A malformed
// header line is left to net/http's parser, which refuses it.
func execLength(head []byte) (int, bool) {
	line, rest, _ := bytes.Cut(head, headEnd[:2])
	if string(line) != "POST /v1/exec HTTP/1.1" {
		return 0, false
	}
	n := -1
	for {
		var field []byte
		field, rest, _ = bytes.Cut(rest, headEnd[:2])
		if len(field) == 0 {
			return n, n >= 0
		}
		name, val, ok := bytes.Cut(field, []byte(":"))
		if !ok || len(name) == 0 || bytes.ContainsAny(name, " \t") {
			return 0, false
		}
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			val = bytes.Trim(val, " \t")
			if n >= 0 || len(val) == 0 {
				return 0, false
			}
			n = 0
			for _, c := range val {
				if c < '0' || c > '9' || n > maxBodyBytes {
					return 0, false
				}
				n = n*10 + int(c-'0')
			}
			if n > maxBodyBytes {
				return 0, false
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")),
			bytes.EqualFold(name, []byte("Expect")),
			bytes.EqualFold(name, []byte("Connection")):
			return 0, false
		}
	}
}

// appendHead appends the status line and headers of an exec response
// with an n-byte JSON body.
func appendHead(b []byte, code, n int) []byte {
	b = append(b, "HTTP/1.1 "...)
	b = strconv.AppendInt(b, int64(code), 10)
	b = append(b, ' ')
	b = append(b, http.StatusText(code)...)
	b = append(b, "\r\nContent-Type: application/json\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(n), 10)
	b = append(b, "\r\nDate: "...)
	b = time.Now().UTC().AppendFormat(b, http.TimeFormat)
	return append(b, headEnd...)
}

// serveGeneral answers the request at br's front through net/http's
// parser and h, appending the whole response to resp. keep reports
// whether the connection can carry another request: not after a
// malformed head, a Connection: close, or a body too long to drain.
func serveGeneral(nc net.Conn, lc *limitedConn, br *bufio.Reader, h http.Handler, resp []byte) ([]byte, bool) {
	lc.left = maxHeadBytes
	req, err := http.ReadRequest(br)
	lc.left = math.MaxInt64
	if err != nil {
		var ne net.Error
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.As(err, &ne) {
			return resp, false // the peer went away: nothing to answer
		}
		w := &bufferedResponse{header: make(http.Header)}
		if errors.Is(err, errHeadTooLarge) {
			http.Error(w, "431 Request Header Fields Too Large", http.StatusRequestHeaderFieldsTooLarge)
		} else {
			http.Error(w, "400 Bad Request", http.StatusBadRequest)
		}
		return w.appendTo(resp, false, true), false
	}
	if req.ContentLength != 0 && req.ProtoAtLeast(1, 1) && req.Header.Get("Expect") == "100-continue" {
		if _, err := io.WriteString(nc, "HTTP/1.1 100 Continue\r\n\r\n"); err != nil {
			return resp, false
		}
	}
	w := &bufferedResponse{header: make(http.Header)}
	h.ServeHTTP(w, req)
	// The next request starts where this one's body ends. A body announced
	// beyond the drain bound is not waited for.
	keep := !req.Close && req.ContentLength <= maxDrainBytes
	if keep {
		_, err = io.CopyN(io.Discard, req.Body, maxDrainBytes+1)
		keep = err == io.EOF
	}
	// The body is not closed: net/http's Close reads it to the end.
	return w.appendTo(resp, req.Method == http.MethodHead, !keep), keep
}

// bufferedResponse is the http.ResponseWriter of the general path: it
// collects the handler's status, headers and body, sent whole once the
// handler returns.
type bufferedResponse struct {
	header http.Header
	code   int
	body   []byte
}

func (w *bufferedResponse) Header() http.Header { return w.header }

func (w *bufferedResponse) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *bufferedResponse) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.body = append(w.body, p...)
	return len(p), nil
}

// appendTo renders the response: the handler's headers, with the framing
// ones (length, date, connection) set here, then the body unless the
// request was a HEAD.
func (w *bufferedResponse) appendTo(b []byte, head, closing bool) []byte {
	w.WriteHeader(http.StatusOK)
	hd := w.header
	hd.Del("Transfer-Encoding")
	if hd.Get("Content-Type") == "" && len(w.body) > 0 {
		hd.Set("Content-Type", http.DetectContentType(w.body))
	}
	hd.Set("Content-Length", strconv.Itoa(len(w.body)))
	hd.Set("Date", time.Now().UTC().Format(http.TimeFormat))
	hd.Del("Connection")
	if closing {
		hd.Set("Connection", "close")
	}
	var fields bytes.Buffer
	hd.Write(&fields)
	b = fmt.Appendf(b, "HTTP/1.1 %03d %s\r\n", w.code, http.StatusText(w.code))
	b = append(b, fields.Bytes()...)
	b = append(b, headEnd[:2]...)
	if !head {
		b = append(b, w.body...)
	}
	return b
}
