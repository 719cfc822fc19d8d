// Adaptive HTAP: drive the reference engine through the workload shift
// the paper's introduction motivates — a transactional phase, then a
// shift to long-running analytics — and watch the storage engine
// re-organize its physical record layouts and compute-device assignment
// (Figure 1 of the paper) in response.
//
//	go run ./examples/adaptive_htap
package main

import (
	"fmt"
	"log"
	"math/rand"

	"hybridstore"
)

const rows = 120_000

func main() {
	db := hybridstore.Open(hybridstore.Options{
		ChunkRows: 16384,
		HotChunks: 2,
	})
	items, err := db.CreateTable("item", hybridstore.ItemSchema())
	if err != nil {
		log.Fatal(err)
	}
	defer items.Free()

	fmt.Println("phase 0: bulk load", rows, "items")
	for i := uint64(0); i < rows; i++ {
		if _, err := items.Insert(hybridstore.Item(i)); err != nil {
			log.Fatal(err)
		}
	}
	report(db, items, "after load")

	// Phase 1: write-intensive OLTP — point reads and updates.
	fmt.Println("\nphase 1: transactional (point reads + updates)")
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		row := uint64(r.Int63n(rows))
		if i%3 == 0 {
			if err := items.Update(row, hybridstore.ItemPriceColumn,
				hybridstore.FloatValue(float64(r.Intn(100)))); err != nil {
				log.Fatal(err)
			}
		} else if _, err := items.Get(row); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := items.Adapt(); err != nil {
		log.Fatal(err)
	}
	if err := items.Merge(); err != nil {
		log.Fatal(err)
	}
	report(db, items, "after OLTP phase + adapt")

	// Phase 2: the workload shifts to analytics — repeated price scans.
	fmt.Println("\nphase 2: analytical (column scans)")
	priceSum := []hybridstore.Plan{{Op: "sum", Col: hybridstore.ItemPriceColumn}}
	before := db.SimulatedSeconds()
	for i := 0; i < 20; i++ {
		if _, err := items.Execute(priceSum); err != nil {
			log.Fatal(err)
		}
	}
	scanCostBefore := db.SimulatedSeconds() - before

	changed, err := items.Adapt()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("advisor re-organized:", changed)
	report(db, items, "after analytic phase + adapt")

	before = db.SimulatedSeconds()
	for i := 0; i < 20; i++ {
		if _, err := items.Execute(priceSum); err != nil {
			log.Fatal(err)
		}
	}
	scanCostAfter := db.SimulatedSeconds() - before
	fmt.Printf("\n20 price scans, simulated: %.3f ms before adaptation, %.3f ms after (%.1fx)\n",
		scanCostBefore*1e3, scanCostAfter*1e3, scanCostBefore/scanCostAfter)

	// The answers never changed — only the physical organization did.
	res, err := items.Execute(priceSum)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("final checksum of prices: %.2f\n", res[0].Sum)
}

func report(db *hybridstore.DB, t *hybridstore.Table, label string) {
	st := t.Stats()
	fmt.Printf("[%s] hot=%d cold=%d freezes=%d adapts=%d pendingVersions=%d device=%v simTime=%.3fms\n",
		label, st.HotChunks, st.ColdChunks, st.Freezes, st.Adapts,
		st.PendingVersions, st.DeviceColumns, db.SimulatedSeconds()*1e3)
}
