// Package workload provides the data and query workloads of the paper's
// experiment: TPC-C-flavoured customer and item tables with the exact
// record geometry of Section II-B (a customer record is 96 bytes over 21
// fields; an item record is 20 bytes over 4 fields plus an 8-byte price),
// deterministic generators with closed-form expected aggregates, HTAP
// operation traces mixing record-centric and attribute-centric access,
// and the access-pattern monitor that responsive storage engines consume
// to re-organize layouts.
package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"hybridstore/internal/schema"
)

// CustomerSchema returns the paper's customer table: 21 fields, 96 bytes
// per record, TPC-C-flavoured.
func CustomerSchema() *schema.Schema {
	return schema.MustNew(
		schema.Int64Attr("c_id"),           // 8
		schema.Int32Attr("c_d_id"),         // 4
		schema.Int32Attr("c_w_id"),         // 4
		schema.CharAttr("c_first", 4),      // 4
		schema.CharAttr("c_middle", 2),     // 2
		schema.CharAttr("c_last", 4),       // 4
		schema.CharAttr("c_street_1", 4),   // 4
		schema.CharAttr("c_street_2", 4),   // 4
		schema.CharAttr("c_city", 4),       // 4
		schema.CharAttr("c_state", 2),      // 2
		schema.CharAttr("c_zip", 4),        // 4
		schema.CharAttr("c_phone", 4),      // 4
		schema.Int64Attr("c_since"),        // 8
		schema.CharAttr("c_credit", 2),     // 2
		schema.Float64Attr("c_credit_lim"), // 8
		schema.Float64Attr("c_discount"),   // 8
		schema.Float64Attr("c_balance"),    // 8
		schema.Int32Attr("c_ytd_payment"),  // 4
		schema.Int32Attr("c_payment_cnt"),  // 4
		schema.Int32Attr("c_delivery_cnt"), // 4
		schema.CharAttr("c_flags", 2),      // 2  → 96 bytes, 21 fields
	)
}

// ItemSchema returns the paper's item table: 4 fields totalling 20 bytes
// plus the 8-byte price field (28 bytes, 5 attributes). The price column
// index is ItemPriceCol.
func ItemSchema() *schema.Schema {
	return schema.MustNew(
		schema.Int64Attr("i_id"),      // 8
		schema.Int32Attr("i_im_id"),   // 4
		schema.CharAttr("i_name", 6),  // 6
		schema.CharAttr("i_data", 2),  // 2  → 20 bytes of non-price fields
		schema.Float64Attr("i_price"), // 8
	)
}

// The paper's experimental geometry (Section II-B).
const (
	// PositionListSize is the position-list size ("150 customers", "150
	// items").
	PositionListSize = 150
	// CustomerWidth and CustomerArity pin the customer record geometry.
	CustomerWidth, CustomerArity = 96, 21
	// ItemWidth and ItemPriceSize pin the item record geometry.
	ItemWidth, ItemPriceSize = 28, 8
)

// Column indexes into ItemSchema and CustomerSchema used by the harness.
const (
	// ItemPriceCol is the price attribute of the item table.
	ItemPriceCol = 4
	// ItemIDCol is the primary key of the item table.
	ItemIDCol = 0
	// CustomerBalanceCol is the balance attribute of the customer table.
	CustomerBalanceCol = 16
)

// ItemPrice is the deterministic price of item i: i%10000/100 + 1, giving
// prices in [1, 100.99] with a closed-form sum (ExpectedItemPriceSum) so
// every engine's aggregate can be verified exactly.
func ItemPrice(i uint64) float64 {
	return float64(i%10000)/100 + 1
}

// ExpectedItemPriceSum returns the exact sum of ItemPrice(0..n-1).
func ExpectedItemPriceSum(n uint64) float64 {
	full := n / 10000
	rem := n % 10000
	// Sum over one full period of i/100 for i in [0,10000).
	const periodSum = 9999 * 10000 / 2.0 / 100
	sum := float64(full) * periodSum
	sum += float64(rem*(rem-1)) / 2 / 100
	return sum + float64(n) // the +1 per item
}

// Item returns the deterministic record of item i.
func Item(i uint64) schema.Record {
	return schema.Record{
		schema.IntValue(int64(i)),
		schema.Int32Value(int32(i % 100000)),
		schema.CharValue(shortName("itm", i)),
		schema.CharValue(pick2(i)),
		schema.FloatValue(ItemPrice(i)),
	}
}

// CustomerBalance is the deterministic balance of customer i.
func CustomerBalance(i uint64) float64 {
	return float64(i%5000) - 10
}

// ExpectedCustomerBalanceSum returns the exact sum of
// CustomerBalance(0..n-1).
func ExpectedCustomerBalanceSum(n uint64) float64 {
	full := n / 5000
	rem := n % 5000
	const periodSum = 4999 * 5000 / 2.0
	sum := float64(full) * periodSum
	sum += float64(rem*(rem-1)) / 2
	return sum - 10*float64(n)
}

// Customer returns the deterministic record of customer i.
func Customer(i uint64) schema.Record {
	return schema.Record{
		schema.IntValue(int64(i)),
		schema.Int32Value(int32(i%10 + 1)),
		schema.Int32Value(int32(i%4 + 1)),
		schema.CharValue(shortName("f", i)),
		schema.CharValue("OE"),
		schema.CharValue(shortName("l", i)),
		schema.CharValue(shortName("s", i)),
		schema.CharValue(shortName("t", i%7)),
		schema.CharValue(shortName("c", i%31)),
		schema.CharValue(pick2(i)),
		schema.CharValue(shortName("z", i%97)),
		schema.CharValue(shortName("p", i%89)),
		schema.IntValue(int64(1_500_000_000 + i%1_000_000)),
		schema.CharValue(credit(i)),
		schema.FloatValue(50_000),
		schema.FloatValue(float64(i%50) / 100),
		schema.FloatValue(CustomerBalance(i)),
		schema.Int32Value(int32(i % 1000)),
		schema.Int32Value(int32(i % 50)),
		schema.Int32Value(int32(i % 20)),
		schema.CharValue(pick2(i + 1)),
	}
}

// shortName renders a compact deterministic identifier that fits the
// narrow CHAR fields.
func shortName(prefix string, i uint64) string {
	s := fmt.Sprintf("%s%d", prefix, i%1000)
	if len(s) > 4 {
		s = s[:4]
	}
	return s
}

// pick2 returns a 2-byte code.
func pick2(i uint64) string {
	codes := []string{"aa", "bb", "cc", "dd"}
	return codes[i%uint64(len(codes))]
}

// credit returns the TPC-C credit code.
func credit(i uint64) string {
	if i%10 == 0 {
		return "BC"
	}
	return "GC"
}

// Generate streams n deterministic records of gen to fn, stopping on the
// first error. It is the loading path shared by all engines.
func Generate(n uint64, gen func(uint64) schema.Record, fn func(uint64, schema.Record) error) error {
	for i := uint64(0); i < n; i++ {
		if err := fn(i, gen(i)); err != nil {
			return fmt.Errorf("workload: generating record %d: %w", i, err)
		}
	}
	return nil
}

// PositionList draws k distinct sorted row positions from [0, n) using
// the seeded generator — the paper's "sorted position lists" produced by
// the preceding join operator.
func PositionList(r *rand.Rand, k int, n uint64) []uint64 {
	if uint64(k) > n {
		k = int(n)
	}
	seen := make(map[uint64]bool, k)
	out := make([]uint64, 0, k)
	for len(out) < k {
		p := uint64(r.Int63n(int64(n)))
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	sortUint64(out)
	return out
}

// sortUint64 sorts in place.
func sortUint64(xs []uint64) {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
}
