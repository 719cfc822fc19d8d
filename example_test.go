package hybridstore_test

import (
	"fmt"

	"hybridstore"
)

// Example shows the end-to-end HTAP flow: transactional point operations
// and snapshot-isolated analytics over one adaptively-organized table.
func Example() {
	db := hybridstore.Open(hybridstore.Options{})
	sch, _ := hybridstore.NewSchema(
		hybridstore.Int64Attr("id"),
		hybridstore.Float64Attr("balance"),
	)
	accounts, _ := db.CreateTable("accounts", sch)
	defer accounts.Free()

	for i := int64(0); i < 4; i++ {
		accounts.Insert(hybridstore.Record{
			hybridstore.IntValue(i), hybridstore.FloatValue(float64(100 * i)),
		})
	}

	// A snapshot-isolated transfer.
	txn := accounts.Begin()
	from, _ := txn.ReadByPK(3)
	to, _ := txn.ReadByPK(0)
	txn.Update(3, 1, hybridstore.FloatValue(from[1].F-50))
	txn.Update(0, 1, hybridstore.FloatValue(to[1].F+50))
	if err := txn.Commit(); err != nil {
		fmt.Println("conflict:", err)
		return
	}

	total, _ := accounts.SumFloat64(1)
	rec, _ := accounts.GetByPK(3)
	fmt.Printf("total=%v account3=%v\n", total, rec[1].F)
	// Output: total=600 account3=250
}

// ExampleTable_Execute answers two dashboard cuts over one column from
// one shared scan, then probes the result cache for one of them.
func ExampleTable_Execute() {
	db := hybridstore.Open(hybridstore.Options{
		ResultCache: hybridstore.ResultCacheOptions{Cap: 1 << 20},
	})
	sch, _ := hybridstore.NewSchema(
		hybridstore.Int64Attr("id"),
		hybridstore.Float64Attr("balance"),
	)
	accounts, _ := db.CreateTable("accounts", sch)
	defer accounts.Free()
	for i := int64(0); i < 4; i++ {
		accounts.Insert(hybridstore.Record{
			hybridstore.IntValue(i), hybridstore.FloatValue(float64(100 * i)),
		})
	}

	over := hybridstore.Plan{Op: "sum_where", Col: 1, Pred: hybridstore.GtFloat(100)}
	mid := hybridstore.Plan{Op: "sum_where", Col: 1, Pred: hybridstore.BetweenFloat(50, 250)}
	res, _ := accounts.Execute([]hybridstore.Plan{over, mid})
	fmt.Println(res[0].Sum, res[0].Count, res[1].Sum, res[1].Count)

	cached, ok := accounts.Peek(over)
	fmt.Println(cached.Sum, ok)
	// Output:
	// 500 2 300 2
	// 500 true
}
