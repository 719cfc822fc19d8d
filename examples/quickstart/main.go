// Quickstart: open a hybridstore DB, create a table, run transactional
// and analytical operations against it, and inspect how the engine laid
// the data out.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"hybridstore"
)

func main() {
	// A DB is one simulated CPU/GPU platform plus the paper's reference
	// HTAP engine. Small chunks keep the demo output interesting.
	db := hybridstore.Open(hybridstore.Options{
		ChunkRows: 256,
		HotChunks: 1,
	})

	sch, err := hybridstore.NewSchema(
		hybridstore.Int64Attr("id"),
		hybridstore.CharAttr("owner", 8),
		hybridstore.Float64Attr("balance"),
	)
	if err != nil {
		log.Fatal(err)
	}
	accounts, err := db.CreateTable("accounts", sch)
	if err != nil {
		log.Fatal(err)
	}
	defer accounts.Free()

	// OLTP: inserts and point operations.
	for i := 0; i < 2000; i++ {
		if _, err := accounts.Insert(hybridstore.Record{
			hybridstore.IntValue(int64(i)),
			hybridstore.CharValue(fmt.Sprintf("acct%03d", i%1000)),
			hybridstore.FloatValue(float64(i % 500)),
		}); err != nil {
			log.Fatal(err)
		}
	}
	if err := accounts.Update(42, 2, hybridstore.FloatValue(1_000_000)); err != nil {
		log.Fatal(err)
	}
	rec, err := accounts.Get(42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("account 42:", rec)

	// A snapshot-isolated transfer.
	txn := accounts.Begin()
	from, _ := txn.Read(42)
	to, _ := txn.Read(43)
	txn.Update(42, 2, hybridstore.FloatValue(from[2].F-100))
	txn.Update(43, 2, hybridstore.FloatValue(to[2].F+100))
	if err := txn.Commit(); err != nil {
		log.Fatal(err)
	}

	// OLAP: a full-column aggregate over an MVCC snapshot — it never
	// blocks or observes concurrent writers.
	total, err := accounts.Execute([]hybridstore.Plan{{Op: "sum", Col: 2}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("total balance: %.0f\n", total[0].Sum)

	// Let the engine adapt its layout to what it observed, then look at
	// the physical state and the derived classification.
	if _, err := accounts.Adapt(); err != nil {
		log.Fatal(err)
	}
	st := accounts.Stats()
	fmt.Printf("physical state: %d rows, %d hot + %d cold chunks, %d freezes, device columns %v\n",
		st.Rows, st.HotChunks, st.ColdChunks, st.Freezes, st.DeviceColumns)

	c, err := accounts.Classify()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("classification: %s / %s / %s / %s+%s %s / %s / %s\n",
		c.Handling, c.Flexibility, c.Adaptability,
		c.Working, c.Primary, c.Locality, c.Linearization, c.Scheme)
	fmt.Printf("simulated platform time: %.3f ms\n", db.SimulatedSeconds()*1e3)
}
