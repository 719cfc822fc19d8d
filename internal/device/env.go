package device

import (
	"fmt"
	"sync"

	"hybridstore/internal/obs"
	"hybridstore/internal/perfmodel"
)

// Card is one member of a multi-device Env: a GPU with its own allocator
// and fragment cache, charging its work to a private lane clock. Lane time
// folds into the platform's shared clock as the maximum across
// concurrently running lanes (Env.SettleMax, the cross-device scheduler's
// accounting).
type Card struct {
	gpu   *GPU
	cache *FragCache
	lane  *perfmodel.Clock

	// synced is the lane watermark already folded into the shared clock;
	// guarded by Env.mu.
	synced float64
}

// GPU returns the card's device.
func (c *Card) GPU() *GPU { return c.gpu }

// Cache returns the card's fragment cache.
func (c *Card) Cache() *FragCache { return c.cache }

// Env is a fleet of N simulated cards sharing one platform clock. Each
// card owns its allocator, fragment cache, streams and a private lane
// clock; per-card obs counters (device.<i>.h2d_bytes, ...,
// device.<i>.cache.hits/misses) attribute traffic per card while the
// process-global device.* counters keep aggregating across the fleet.
//
// Cards run concurrently under the cross-device scheduler
// (exec.MultiDeviceScan): each lane accumulates its own simulated time and
// SettleMax advances the shared clock by the longest lane delta — the
// wall-clock of a fan-out is the slowest participant, which is where the
// multi-device throughput scaling comes from.
type Env struct {
	shared *perfmodel.Clock

	mu    sync.Mutex // guards card sync watermarks
	cards []*Card
}

// NewEnv creates a fleet of n cards (n < 1 is clamped to 1) with the given
// per-card profile, folding lane time into shared. Each card's cache is
// allocator-limited.
func NewEnv(n int, prof perfmodel.DeviceProfile, shared *perfmodel.Clock) *Env {
	if n < 1 {
		n = 1
	}
	e := &Env{shared: shared}
	for i := 0; i < n; i++ {
		lane := &perfmodel.Clock{}
		gpu := NewIndexed(prof, lane, i)
		cache := NewFragCache(gpu)
		cache.cardHits = obs.NewCounter(fmt.Sprintf("device.%d.cache.hits", i))
		cache.cardMisses = obs.NewCounter(fmt.Sprintf("device.%d.cache.misses", i))
		e.cards = append(e.cards, &Card{gpu: gpu, cache: cache, lane: lane})
	}
	return e
}

// N returns the card count.
func (e *Env) N() int { return len(e.cards) }

// Card returns card i.
func (e *Env) Card(i int) *Card { return e.cards[i] }

// SettleMax folds the fleet's un-synced lane time into the shared clock as
// a single concurrent phase: the shared clock advances by the largest
// per-card lane delta since the last settle, and every card's watermark
// catches up. Called by the cross-device scheduler after joining a
// fan-out.
func (e *Env) SettleMax() {
	e.mu.Lock()
	var maxD float64
	for _, c := range e.cards {
		if d := c.lane.ElapsedNs() - c.synced; d > maxD {
			maxD = d
		}
		c.synced = c.lane.ElapsedNs()
	}
	e.mu.Unlock()
	if e.shared != nil {
		e.shared.Advance(maxD)
	}
}

// Stats sums the per-card transfer stats into one fleet snapshot.
func (e *Env) Stats() TransferStats {
	var t TransferStats
	for _, c := range e.cards {
		s := c.gpu.Stats()
		t.HostToDeviceBytes += s.HostToDeviceBytes
		t.DeviceToHostBytes += s.DeviceToHostBytes
		t.HostToDeviceOps += s.HostToDeviceOps
		t.DeviceToHostOps += s.DeviceToHostOps
		t.KernelLaunches += s.KernelLaunches
	}
	return t
}

// CacheStats sums the per-card cache meters into one fleet snapshot.
func (e *Env) CacheStats() FragCacheStats {
	var t FragCacheStats
	for _, c := range e.cards {
		s := c.cache.Stats()
		t.Hits += s.Hits
		t.Misses += s.Misses
		t.Evictions += s.Evictions
		t.DupUploads += s.DupUploads
		t.ResidentBytes += s.ResidentBytes
		t.PinnedBytes += s.PinnedBytes
		t.Entries += s.Entries
	}
	return t
}
