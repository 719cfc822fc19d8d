package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"hybridstore"
	"hybridstore/internal/server"
)

// storeOptions is the one store configuration every workload runs on, so
// that no change can win by tuning the store per workload.
var storeOptions = hybridstore.Options{
	DeviceCache: true,
	Compress:    true,
	ResultCache: hybridstore.ResultCacheOptions{Cap: 4 << 20},
	// Consulted by OpenDir only. SyncNone keeps the device's flush time
	// (which on this VM swings by a third between identical runs) out of
	// the gated numbers while the WAL directory stays inside the checkout;
	// appends, group commit, log writes, checkpoints and recovery all run.
	Durability: hybridstore.Durability{Sync: hybridstore.SyncNone},
}

// fixture is a loaded store being served on a loopback port.
type fixture struct {
	w     *workload
	db    *hybridstore.DB
	tbl   *hybridstore.Table
	srv   *server.Server
	ln    net.Listener
	done  chan error // Serve's return
	dir   string     // durable directory, "" for a memory-only store
	sid   string
	stmts [numOps]int
}

// setup opens the store, loads and merges the fixture, warms it with one
// full scan, serves it and prepares one statement per operation. All of
// this is what setup_s times.
func setup(w *workload, walRoot string) (*fixture, error) {
	f := &fixture{w: w}
	if w.durable {
		if err := os.MkdirAll(walRoot, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(walRoot, w.name+"-")
		if err != nil {
			return nil, err
		}
		f.dir = dir
		if f.db, err = hybridstore.OpenDir(dir, storeOptions); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
	} else {
		f.db = hybridstore.Open(storeOptions)
	}
	if err := f.load(); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *fixture) load() error {
	var err error
	if f.tbl, err = f.db.CreateTable("item", hybridstore.ItemSchema()); err != nil {
		return err
	}
	for i := uint64(0); i < f.w.rows; i++ {
		if _, err := f.tbl.Insert(itemRecord(i)); err != nil {
			return err
		}
	}
	if err := f.tbl.Merge(); err != nil {
		return err
	}
	if f.w.durable {
		if err := f.db.Checkpoint(); err != nil {
			return err
		}
	}
	// One full scan over both columns the workloads aggregate, so the
	// device cache is resident before the first request.
	if _, err := f.tbl.GroupBySumWhere(groupCol, priceCol, hybridstore.GtFloat(0)); err != nil {
		return err
	}
	return f.serve()
}

// serve starts the HTTP front end on a loopback port and prepares the
// statements over the wire, as a client would.
func (f *fixture) serve() error {
	f.srv = server.New(server.Config{DB: f.db, BatchWindow: server.DefaultBatchWindow})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	f.ln, f.done = ln, make(chan error, 1)
	go func() { f.done <- f.srv.Serve(ln) }()

	c, err := dial(ln.Addr().String())
	if err != nil {
		return err
	}
	defer c.close()
	code, resp, err := c.post("/v1/session", []byte(`{"tenant":"bench"}`))
	if err != nil || code != 200 {
		return fmt.Errorf("session: status %d, %v: %s", code, err, resp)
	}
	f.sid = strings.TrimSuffix(strings.TrimPrefix(string(resp), `{"session_id":"`), `"}`)
	for op := opKind(0); op < numOps; op++ {
		spec := fmt.Sprintf(`{"session_id":"%s","op":"%s","table":"item","col":%d,"key_col":%d}`,
			f.sid, opName[op], priceCol, groupCol)
		code, resp, err := c.post("/v1/prepare", []byte(spec))
		if err != nil || code != 200 {
			return fmt.Errorf("prepare %s: status %d, %v: %s", opName[op], code, err, resp)
		}
		id, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(string(resp), `{"stmt_id":`), `}`))
		if err != nil {
			return fmt.Errorf("prepare %s: bad response %q", opName[op], resp)
		}
		f.stmts[op] = id
	}
	return nil
}

func (f *fixture) addr() string { return f.ln.Addr().String() }

// stopServing closes the listener and waits for Serve to return. Client
// connections are the lanes' and are closed by them.
func (f *fixture) stopServing() {
	if f.ln != nil {
		f.ln.Close()
		<-f.done
		f.ln = nil
	}
}

// close stops serving, releases the store and removes a durable
// directory.
func (f *fixture) close() error {
	f.stopServing()
	err := f.db.Close()
	if f.tbl != nil {
		f.tbl.Free()
	}
	if f.dir != "" {
		os.RemoveAll(f.dir)
	}
	return err
}

// walBytes is the size of the write-ahead log file, 0 without one.
func (f *fixture) walBytes() int64 {
	if f.dir == "" {
		return 0
	}
	st, err := os.Stat(filepath.Join(f.dir, "wal.log"))
	if err != nil {
		return 0
	}
	return st.Size()
}

// httpConn is a minimal keep-alive HTTP/1.1 client over one TCP
// connection. It reuses its buffers, so the benchmark's own client adds
// little to the allocation and CPU figures of the process it shares with
// the server.
type httpConn struct {
	c    net.Conn
	br   *bufio.Reader
	req  []byte
	resp []byte
}

func dial(addr string) (*httpConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &httpConn{c: c, br: bufio.NewReaderSize(c, 8<<10)}, nil
}

func (h *httpConn) close() { h.c.Close() }

// post sends one request and returns the status and the body; the body
// is valid until the next call.
func (h *httpConn) post(path string, body []byte) (int, []byte, error) {
	h.req = append(h.req[:0], "POST "...)
	h.req = append(h.req, path...)
	h.req = append(h.req, " HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: "...)
	h.req = strconv.AppendInt(h.req, int64(len(body)), 10)
	h.req = append(h.req, "\r\n\r\n"...)
	h.req = append(h.req, body...)
	if _, err := h.c.Write(h.req); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(h.br, nil)
	if err != nil {
		return 0, nil, err
	}
	h.resp = h.resp[:0]
	for {
		if len(h.resp) == cap(h.resp) {
			h.resp = append(h.resp, 0)[:len(h.resp)]
		}
		n, err := resp.Body.Read(h.resp[len(h.resp):cap(h.resp)])
		h.resp = h.resp[:len(h.resp)+n]
		if err != nil {
			resp.Body.Close()
			if err == io.EOF {
				return resp.StatusCode, h.resp, nil
			}
			return resp.StatusCode, nil, err
		}
	}
}
