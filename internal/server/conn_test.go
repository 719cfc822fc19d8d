package server

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"hybridstore"
)

// serveLoopback serves s on a loopback port for the test's duration and
// returns its address.
func serveLoopback(t *testing.T, s *Server) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(l) }()
	t.Cleanup(func() {
		l.Close()
		<-done
	})
	return l.Addr().String()
}

// rawExchange writes raw to a fresh connection, reads want responses
// from it, and reports whether the server then closed the connection.
func rawExchange(t *testing.T, addr, raw string, want int) (resps []*http.Response, bodies []string, closed bool) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.WriteString(c, raw); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(c)
	for range want {
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("response %d of %d: %v (after %q)", len(resps)+1, want, err, bodies)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		resps, bodies = append(resps, resp), append(bodies, string(b))
	}
	// A connection kept alive sends nothing more: the read times out.
	c.SetDeadline(time.Now().Add(200 * time.Millisecond))
	_, err = br.ReadByte()
	return resps, bodies, err == io.EOF
}

// Serve's framing over raw bytes: pipelined exec requests on one
// connection are answered in order, with a chunked body, an Expect:
// 100-continue and a GET between them taking the general path; a
// Connection: close, a malformed head and a body announced beyond what
// the server drains are answered and the connection closed.
func TestServeFraming(t *testing.T) {
	s, tbl := newItemServer(t, hybridstore.Options{ChunkRows: 128}, Config{BatchWindow: DefaultBatchWindow})
	addr := serveLoopback(t, s)
	sid, _ := s.CreateSession()
	get := prep(t, s, sid, "get", 0, 0)
	execBody := func(row int) string { return fmt.Sprintf(`{"session_id":"%s","stmt_id":%d,"row":%d}`, sid, get, row) }
	execReq := func(row int, extra string) string {
		body := execBody(row)
		return fmt.Sprintf("POST /v1/exec HTTP/1.1\r\nHost: x\r\n%sContent-Length: %d\r\n\r\n%s", extra, len(body), body)
	}
	record := func(row uint64) string {
		rec, err := tbl.Get(row)
		if err != nil {
			t.Fatal(err)
		}
		return string(AppendRecord(nil, rec))
	}

	chunked := fmt.Sprintf("POST /v1/exec HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n%x\r\n%s\r\n0\r\n\r\n", len(execBody(5)), execBody(5))
	resps, bodies, closed := rawExchange(t, addr,
		execReq(3, "")+execReq(4, "")+chunked+execReq(6, "Expect: 100-continue\r\n")+"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n", 6)
	wants := []string{record(3), record(4), record(5), "", record(6), `{"ok":true}`}
	for i, want := range wants {
		if i == 3 {
			if resps[i].StatusCode != http.StatusContinue {
				t.Fatalf("response %d: status %d, want 100 Continue", i, resps[i].StatusCode)
			}
			continue
		}
		if resps[i].StatusCode != 200 || bodies[i] != want {
			t.Errorf("response %d: %d %q, want 200 %q", i, resps[i].StatusCode, bodies[i], want)
		}
		if ct := resps[i].Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("response %d: Content-Type %q", i, ct)
		}
	}
	if closed {
		t.Error("keep-alive connection closed after its requests")
	}

	for _, tc := range []struct {
		name, raw string
		code      int
	}{
		{"Connection: close", execReq(3, "Connection: close\r\n"), 200},
		{"malformed head", "POST /v1/exec HTTP/1.1\r\nHost x\r\n\r\n", 400},
		{"body announced beyond the bound", fmt.Sprintf("POST /v1/exec HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n{}", maxBodyBytes+1), 413},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resps, _, closed := rawExchange(t, addr, tc.raw, 1)
			if resps[0].StatusCode != tc.code || !closed {
				t.Errorf("status %d, closed %v; want %d and closed", resps[0].StatusCode, closed, tc.code)
			}
		})
	}
}

// The connection loop adds no allocation to an exec request beyond
// Exec's own: a warm sum_where costs the same objects over a keep-alive
// connection as a direct Exec call.
func TestServeConnAddsNoAllocs(t *testing.T) {
	s, body := benchServer(t)
	addr := serveLoopback(t, s)
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	req := []byte(fmt.Sprintf("POST /v1/exec HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s", len(body), body))
	resp := make([]byte, 4096)
	roundTrip := func() {
		if _, err := c.Write(req); err != nil {
			t.Fatal(err)
		}
		// The response ends with the body's one closing brace.
		for n := 0; ; {
			m, err := c.Read(resp[n:])
			if err != nil {
				t.Fatal(err)
			}
			if n += m; resp[n-1] == '}' {
				return
			}
		}
	}
	const n = 400
	mallocs := func(f func()) float64 {
		for range 20 {
			f()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range n {
			f()
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / n
	}
	raw := []byte(body)
	var out []byte
	direct := mallocs(func() { out, _ = s.Exec(raw, out[:0]) })
	served := mallocs(roundTrip)
	if !strings.HasPrefix(string(resp), "HTTP/1.1 200 OK\r\n") {
		t.Fatalf("response: %q", resp[:64])
	}
	if served > direct+1 {
		t.Fatalf("exec over a connection costs %.1f allocs, a direct Exec %.1f", served, direct)
	}
}
