// Lineage: drive the L-Store engine through its two signature features —
// historic querying over lineage-linked tail records, and the merge pass
// that seals read-optimized, compressed base pages (paper Section
// IV-B.4). A small audit scenario: an account's price is corrected three
// times; every prior state stays queryable until a merge consolidates
// history into fresh compressed base pages.
//
//	go run ./examples/lineage
package main

import (
	"fmt"
	"log"

	"hybridstore/internal/engine"
	"hybridstore/internal/engines/lstore"
	"hybridstore/internal/exec"
	"hybridstore/internal/schema"
	"hybridstore/internal/workload"
)

func main() {
	env := engine.NewEnv()
	e := lstore.New(env)
	tbl, err := e.Create("item", workload.ItemSchema())
	if err != nil {
		log.Fatal(err)
	}
	lt := tbl.(*lstore.Table)
	defer lt.Free()

	const rows = 10_000
	if err := workload.Generate(rows, workload.Item, func(i uint64, rec schema.Record) error {
		_, err := lt.Insert(rec)
		return err
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d items; tail=%d sealed=%d\n", lt.Rows(), lt.TailLength(), lt.SealedRows())

	// Three corrections to item 42's price — each appends a tail record
	// linked to its predecessor; the base page is never written.
	for _, price := range []float64{19.99, 24.99, 21.49} {
		if err := lt.Update(42, workload.ItemPriceCol, schema.FloatValue(price)); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("\nafter 3 corrections (tail length %d), item 42's history:\n", lt.TailLength())
	for back := 0; back <= 3; back++ {
		rec, err := lt.GetVersion(42, back)
		if err != nil {
			log.Fatal(err)
		}
		label := fmt.Sprintf("%d updates ago", back)
		if back == 0 {
			label = "current"
		}
		fmt.Printf("  %-14s price = %6.2f\n", label, rec[workload.ItemPriceCol].F)
	}

	// Analytics run against the current state (tail values patched over
	// the base scan).
	priceSum := exec.Plan{Op: exec.KindSum, Col: workload.ItemPriceCol}
	res, err := lt.Scan(priceSum)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsum of all prices (tail-patched): %.2f\n", res.Sum)

	// The merge consolidates history and seals compressed base pages.
	if err := lt.Merge(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter merge: sealed rows = %d, tail = %d, base compression = %.2fx\n",
		lt.SealedRows(), lt.TailLength(), lt.CompressionRatio())
	res2, err := lt.Scan(priceSum)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sum over sealed pages: %.2f (unchanged: %v)\n", res2.Sum, res.Sum == res2.Sum)
	rec, _ := lt.GetVersion(42, 99)
	fmt.Printf("history consolidated: even 99 updates back now reads %.2f\n",
		rec[workload.ItemPriceCol].F)
}
