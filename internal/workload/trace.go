package workload

import "fmt"

// OpKind classifies one workload operation by its access pattern.
type OpKind uint8

// Operation kinds.
const (
	// PointRead reads one full record by position (record-centric).
	PointRead OpKind = iota
	// PointUpdate updates one field of one record (record-centric write).
	PointUpdate
	// Insert appends one record.
	Insert
	// ColumnScan aggregates one attribute over all records
	// (attribute-centric).
	ColumnScan
)

// String names the kind.
func (k OpKind) String() string {
	switch k {
	case PointRead:
		return "point-read"
	case PointUpdate:
		return "point-update"
	case Insert:
		return "insert"
	case ColumnScan:
		return "column-scan"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Op is one workload operation as a monitor observes it.
type Op struct {
	// Kind is the access pattern.
	Kind OpKind
	// Row is the target position for point operations.
	Row uint64
	// Cols are the attributes touched: all attributes for PointRead, the
	// updated attribute for PointUpdate, the scanned attribute for
	// ColumnScan.
	Cols []int
}
