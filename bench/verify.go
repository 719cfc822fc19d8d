package main

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"time"

	"hybridstore"
)

// answer is a facade result before it is rendered.
type answer struct {
	rec    hybridstore.Record
	row    uint64
	sum    float64
	count  int64
	groups []hybridstore.GroupResult
}

// callFacade executes q directly on the table, below the serving layer.
func callFacade(tbl *hybridstore.Table, q request) (a answer, err error) {
	switch q.op {
	case opGet:
		a.rec, err = tbl.Get(q.row)
	case opGetPK:
		a.rec, err = tbl.GetByPK(q.pk)
	case opUpdate:
		err = tbl.Update(q.row, priceCol, hybridstore.FloatValue(q.val))
	case opInsert:
		a.row, err = tbl.Insert(itemRecord(uint64(q.pk)))
	case opSumWhere:
		a.sum, a.count, err = tbl.SumFloat64Where(priceCol, q.pred)
	case opGroupSumWhere:
		a.groups, err = tbl.GroupBySumWhere(groupCol, priceCol, q.pred)
	}
	return a, err
}

// appendAnswer renders a the way the server renders the response to op,
// so that served bytes can be compared with direct execution.
func appendAnswer(b []byte, op opKind, a answer) []byte {
	switch op {
	case opGet, opGetPK:
		b = append(b, `{"record":`...)
		b = appendRecordArray(b, a.rec)
		return append(b, '}')
	case opUpdate:
		return append(b, responseOK...)
	case opInsert:
		b = append(b, `{"row":`...)
		b = strconv.AppendUint(b, a.row, 10)
		return append(b, '}')
	case opSumWhere:
		b = append(b, `{"sum":`...)
		b = appendFloat(b, a.sum)
		b = append(b, `,"count":`...)
		b = strconv.AppendInt(b, a.count, 10)
		return append(b, '}')
	default:
		b = append(b, `{"groups":[`...)
		for i, g := range a.groups {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, '[')
			b = strconv.AppendInt(b, g.Key, 10)
			b = append(b, ',')
			b = appendFloat(b, g.Sum)
			b = append(b, ',')
			b = strconv.AppendInt(b, g.Count, 10)
			b = append(b, ']')
		}
		return append(b, `]}`...)
	}
}

// direct is the rendered answer of executing q on tbl.
func direct(tbl *hybridstore.Table, q request, b []byte) ([]byte, error) {
	a, err := callFacade(tbl, q)
	if err != nil {
		return b, err
	}
	return appendAnswer(b, q.op, a), nil
}

// hashBytes is 64-bit FNV-1a.
func hashBytes(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// sampleEvery: on read-only workloads every 16th response of a lane is
// kept (as a hash) and compared with direct execution after the run.
const sampleEvery = 16

type sampledResponse struct {
	q    request
	hash uint64
}

type insertAck struct {
	pk  int64
	row uint64
}

// verifier checks what the lanes were told against the store. On
// read-only workloads the table never changes, so a sampled response can
// be recomputed after the run. On write workloads every row has one
// writing lane, so the last acknowledged value per row is a serial
// model the final table must equal.
type verifier struct {
	w *workload
	// price is the last acknowledged price of each fixture row, NaN when
	// the row was never updated. Lanes write disjoint elements.
	price []float64
	// per lane, appended by that lane only
	sampled    [][]sampledResponse
	inserts    [][]insertAck
	mismatches []int

	checked int // comparisons made after the run
}

func newVerifier(w *workload, total time.Duration) *verifier {
	v := &verifier{
		w:          w,
		sampled:    make([][]sampledResponse, len(w.lanes)),
		inserts:    make([][]insertAck, len(w.lanes)),
		mismatches: make([]int, len(w.lanes)),
	}
	for i := range w.lanes {
		if w.readOnly() {
			v.sampled[i] = offHeap[sampledResponse](recordCap(total) / sampleEvery)
		} else if w.lanes[i].weights[opInsert] > 0 {
			v.inserts[i] = offHeap[insertAck](recordCap(total))
		}
	}
	if !w.readOnly() {
		v.price = offHeap[float64](int(w.rows))[:w.rows]
		for i := range v.price {
			v.price[i] = math.NaN()
		}
	}
	return v
}

// observe is called by lane with its n-th request and the 200-response.
func (v *verifier) observe(lane, n int, q request, resp []byte) {
	switch q.op {
	case opUpdate:
		if !bytes.Equal(resp, responseOK) {
			v.mismatches[lane]++
			return
		}
		v.price[q.row] = q.val
	case opInsert:
		row, ok := parseInsertRow(resp)
		if !ok {
			v.mismatches[lane]++
			return
		}
		v.inserts[lane] = append(v.inserts[lane], insertAck{q.pk, row})
	default:
		if v.price == nil && n%sampleEvery == 0 {
			v.sampled[lane] = append(v.sampled[lane], sampledResponse{q, hashBytes(resp)})
		}
	}
}

// mismatchCount is every divergence found so far.
func (v *verifier) mismatchCount() int {
	n := 0
	for _, m := range v.mismatches {
		n += m
	}
	return n
}

func (v *verifier) fail(format string, args ...any) {
	if v.mismatches[0]++; v.mismatchCount() <= 5 {
		fmt.Printf("VERIFY: "+format+"\n", args...)
	}
}

// checkSampled recomputes every sampled response of a read-only run by
// direct execution and compares the bytes (through their hash).
func (v *verifier) checkSampled(tbl *hybridstore.Table) {
	want := make(map[request]uint64)
	var buf []byte
	for _, lane := range v.sampled {
		for _, s := range lane {
			h, ok := want[s.q]
			if !ok {
				var err error
				if buf, err = direct(tbl, s.q, buf[:0]); err != nil {
					v.fail("direct %s: %v", opName[s.q.op], err)
					continue
				}
				h = hashBytes(buf)
				want[s.q] = h
			}
			v.checked++
			if h != s.hash {
				v.fail("%s %+v: served bytes differ from direct execution", opName[s.q.op], s.q)
			}
		}
	}
}

// checkTable compares the table row by row with the write model: every
// fixture row carries its last acknowledged price (or the loaded one),
// every acknowledged insert is present at the row it was acknowledged
// at.
func (v *verifier) checkTable(tbl *hybridstore.Table) {
	if v.price == nil {
		return
	}
	var got, want []byte
	for r := uint64(0); r < v.w.rows; r++ {
		rec, err := tbl.Get(r)
		if err != nil {
			v.fail("get(%d): %v", r, err)
			continue
		}
		exp := itemRecord(r)
		if p := v.price[r]; !math.IsNaN(p) {
			exp[priceCol] = hybridstore.FloatValue(p)
		}
		got, want = appendRecordArray(got[:0], rec), appendRecordArray(want[:0], exp)
		v.checked++
		if !bytes.Equal(got, want) {
			v.fail("row %d is %s, last acknowledged %s", r, got, want)
		}
	}
	for _, lane := range v.inserts {
		for _, ack := range lane {
			rec, err := tbl.GetByPK(ack.pk)
			if err != nil {
				v.fail("get_pk(%d): %v", ack.pk, err)
				continue
			}
			row, _ := tbl.LookupPK(ack.pk)
			got, want = appendRecordArray(got[:0], rec), appendRecordArray(want[:0], itemRecord(uint64(ack.pk)))
			v.checked++
			if !bytes.Equal(got, want) || row != ack.row {
				v.fail("pk %d is %s at row %d, acknowledged %s at row %d", ack.pk, got, row, want, ack.row)
			}
		}
	}
}

// checkServed replays reads over HTTP against the quiesced table and
// compares each response byte for byte with direct execution: the hot
// head twice (the second read crosses the result cache), a stride across
// the table, every fixed cut twice as a sum and as a group-by.
func (v *verifier) checkServed(fx *fixture) error {
	c, err := dial(fx.addr())
	if err != nil {
		return err
	}
	defer c.close()
	var qs []request
	for r := uint64(0); r < 8; r++ {
		qs = append(qs, request{op: opGet, row: r}, request{op: opGet, row: r})
	}
	for r := uint64(0); r < fx.w.rows; r += fx.w.rows/16 + 1 {
		qs = append(qs, request{op: opGet, row: r}, request{op: opGetPK, pk: int64(r)})
	}
	for pass := 0; pass < 2; pass++ {
		for _, p := range fixedCuts {
			qs = append(qs, request{op: opSumWhere, pred: p}, request{op: opGroupSumWhere, pred: p})
		}
	}
	var body, want []byte
	for _, q := range qs {
		if want, err = direct(fx.tbl, q, want[:0]); err != nil {
			return err
		}
		body = appendBody(body[:0], fx.sid, &fx.stmts, q)
		code, got, err := c.post("/v1/exec", body)
		if err != nil {
			return err
		}
		v.checked++
		if code != 200 || !bytes.Equal(got, want) {
			v.fail("%s %s: served %d %s, direct %s", opName[q.op], body, code, got, want)
		}
	}
	return nil
}

// checkReopened closes the durable store, opens its directory again and
// checks every acknowledged write against what recovery brought back. It
// returns how long the recovering OpenDir took.
func (v *verifier) checkReopened(fx *fixture) (time.Duration, error) {
	fx.stopServing()
	if err := fx.db.Close(); err != nil {
		return 0, err
	}
	fx.tbl.Free()
	t0 := time.Now()
	db, err := hybridstore.OpenDir(fx.dir, storeOptions)
	took := time.Since(t0)
	if err != nil {
		return took, err
	}
	fx.db, fx.tbl = db, db.Table("item")
	if fx.tbl == nil {
		return took, fmt.Errorf("recovery lost the item table")
	}
	v.checkTable(fx.tbl)
	return took, nil
}

// responseOK is the body of a successful update.
var responseOK = []byte(`{"ok":true}`)

func parseInsertRow(resp []byte) (uint64, bool) {
	if !bytes.HasPrefix(resp, []byte(`{"row":`)) || !bytes.HasSuffix(resp, []byte(`}`)) {
		return 0, false
	}
	n, err := strconv.ParseUint(string(resp[len(`{"row":`):len(resp)-1]), 10, 64)
	return n, err == nil
}
