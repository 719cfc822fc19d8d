// Metrics: run a small hybrid workload and dump the library's
// process-wide observability registry — an expvar-style JSON snapshot of
// every counter and latency histogram, plus the recent structural
// spans (freeze, adapt, merge) with the decisions they recorded.
//
//	go run ./examples/metrics
package main

import (
	"fmt"
	"log"
	"os"

	"hybridstore"
)

// rows stays above one morsel (16384 rows), so the scans split into
// morsels over helper goroutines.
const rows = 20_000

func main() {
	db := hybridstore.Open(hybridstore.Options{
		ChunkRows: 512,
		HotChunks: 1,
		Policy:    hybridstore.MorselDriven,
	})
	items, err := db.CreateTable("item", hybridstore.ItemSchema())
	if err != nil {
		log.Fatal(err)
	}
	defer items.Free()
	priceSum := []hybridstore.Plan{{Op: "sum", Col: hybridstore.ItemPriceColumn}}

	// A little of everything: inserts freeze chunks, scans feed the
	// advisor, updates and transactions exercise MVCC, Adapt, placement
	// and Merge do structural work.
	for i := uint64(0); i < rows; i++ {
		if _, err := items.Insert(hybridstore.Item(i)); err != nil {
			log.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		if _, err := items.Execute(priceSum); err != nil {
			log.Fatal(err)
		}
	}
	for row := uint64(0); row < 32; row++ {
		if err := items.Update(row, hybridstore.ItemPriceColumn, hybridstore.FloatValue(1.25)); err != nil {
			log.Fatal(err)
		}
	}
	// Explicit transactions: one clean commit, one forced
	// first-committer-wins conflict, one abort.
	a, b := items.Begin(), items.Begin()
	if err := a.Update(0, hybridstore.ItemPriceColumn, hybridstore.FloatValue(1)); err != nil {
		log.Fatal(err)
	}
	if err := b.Update(0, hybridstore.ItemPriceColumn, hybridstore.FloatValue(2)); err != nil {
		log.Fatal(err)
	}
	if err := a.Commit(); err != nil {
		log.Fatal(err)
	}
	if err := b.Commit(); err == nil {
		log.Fatal("expected a write-write conflict, got none")
	}
	c := items.Begin()
	if err := c.Update(1, hybridstore.ItemPriceColumn, hybridstore.FloatValue(3)); err != nil {
		log.Fatal(err)
	}
	c.Abort()

	if _, err := items.Adapt(); err != nil {
		log.Fatal(err)
	}
	// Place the price column on the device, then scan it there and
	// point-read rows no update touched: clean rows resolve from the base
	// fragments, so the reads gather the device-resident field over the
	// bus.
	if err := items.PlaceColumn(hybridstore.ItemPriceColumn); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := items.Execute(priceSum); err != nil {
			log.Fatal(err)
		}
	}
	for row := uint64(2048); row < 2080; row++ {
		if _, err := items.Get(row); err != nil {
			log.Fatal(err)
		}
	}
	if err := items.Merge(); err != nil {
		log.Fatal(err)
	}

	// Structured access: pick single metrics out of a snapshot...
	snap := hybridstore.Metrics()
	fmt.Fprintf(os.Stderr, "tx.commits=%d tx.conflicts=%d tx.aborts=%d core.freezes=%d core.column_placements=%d device.d2h_bytes=%d pool.jobs_submitted=%d\n",
		snap.Counter("tx.commits"), snap.Counter("tx.conflicts"), snap.Counter("tx.aborts"),
		snap.Counter("core.freezes"), snap.Counter("core.column_placements"),
		snap.Counter("device.d2h_bytes"), snap.Counter("pool.jobs_submitted"))

	// ...or dump the whole registry as one JSON object (pipe through jq,
	// scrape it, or diff two dumps around a workload phase).
	if err := hybridstore.WriteMetricsJSON(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
