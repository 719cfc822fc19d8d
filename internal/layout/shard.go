package layout

import "sync"

// ShardPolicy selects how fragment IDs map to devices.
type ShardPolicy uint8

const (
	// ShardHash scatters fragments across devices by a mixed hash of the
	// fragment ID — balanced placement regardless of allocation order.
	ShardHash ShardPolicy = iota
	// ShardRange places runs of consecutively allocated fragment IDs on
	// the same device (round-robin across devices per run), preserving
	// allocation locality: a table loaded in one burst lands in large
	// contiguous stripes.
	ShardRange
)

// DefaultShardSpan is the run length of ShardRange placement.
const DefaultShardSpan = 4

// ShardMap assigns fragments to the cards of a multi-device fleet, keyed
// by the process-unique fragment ID (Fragment.ID). The hash and range
// policies are deterministic; Pin overrides the policy for individual
// fragments (explicit placement, e.g. after a migration). Safe for
// concurrent use.
type ShardMap struct {
	devices int
	policy  ShardPolicy
	span    uint64

	mu     sync.RWMutex
	pinned map[uint64]int
}

// NewShardMap creates a map over the given device count (clamped to ≥ 1)
// with the given policy.
func NewShardMap(devices int, policy ShardPolicy) *ShardMap {
	if devices < 1 {
		devices = 1
	}
	return &ShardMap{devices: devices, policy: policy, span: DefaultShardSpan}
}

// NewShardMapSpan is NewShardMap with an explicit ShardRange run length.
func NewShardMapSpan(devices int, policy ShardPolicy, span uint64) *ShardMap {
	m := NewShardMap(devices, policy)
	if span >= 1 {
		m.span = span
	}
	return m
}

// Devices returns the device count the map shards over.
func (m *ShardMap) Devices() int { return m.devices }

// DeviceFor returns the device index owning the fragment.
func (m *ShardMap) DeviceFor(fragID uint64) int {
	m.mu.RLock()
	if d, ok := m.pinned[fragID]; ok {
		m.mu.RUnlock()
		return d
	}
	m.mu.RUnlock()
	if m.devices == 1 {
		return 0
	}
	switch m.policy {
	case ShardRange:
		return int((fragID / m.span) % uint64(m.devices))
	default:
		return int(mix64(fragID) % uint64(m.devices))
	}
}

// Pin overrides the policy for one fragment. Out-of-range devices clamp
// into the fleet.
func (m *ShardMap) Pin(fragID uint64, device int) {
	if device < 0 {
		device = 0
	}
	if device >= m.devices {
		device = m.devices - 1
	}
	m.mu.Lock()
	if m.pinned == nil {
		m.pinned = make(map[uint64]int)
	}
	m.pinned[fragID] = device
	m.mu.Unlock()
}

// Unpin removes an explicit placement, returning the fragment to the
// policy.
func (m *ShardMap) Unpin(fragID uint64) {
	m.mu.Lock()
	delete(m.pinned, fragID)
	m.mu.Unlock()
}

// mix64 is the splitmix64 finalizer: a cheap, well-distributed bijection
// so consecutive fragment IDs land on unrelated devices.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
