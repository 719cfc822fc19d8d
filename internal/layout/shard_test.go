package layout

import "testing"

// TestShardHashBalancesAndIsStable pins the placement rule: it is a pure
// function of the fragment ID, and a run of consecutive IDs spreads over
// every device without pathological skew.
func TestShardHashBalancesAndIsStable(t *testing.T) {
	const devices, frags = 4, 4096
	counts := make([]int, devices)
	for id := uint64(1); id <= frags; id++ {
		d := ShardOf(id, devices)
		if d < 0 || d >= devices {
			t.Fatalf("fragment %d placed on device %d, fleet has %d", id, d, devices)
		}
		if again := ShardOf(id, devices); again != d {
			t.Fatalf("fragment %d moved: %d then %d", id, d, again)
		}
		counts[d]++
	}
	ideal := frags / devices
	for d, c := range counts {
		if c < ideal/2 || c > ideal*2 {
			t.Fatalf("device %d holds %d of %d fragments (ideal %d): hash placement is skewed", d, c, frags, ideal)
		}
	}
}

// TestShardSingleDeviceDegenerates pins that a one-card fleet places
// everything on device 0.
func TestShardSingleDeviceDegenerates(t *testing.T) {
	for id := uint64(0); id < 32; id++ {
		if got := ShardOf(id, 1); got != 0 {
			t.Fatalf("fragment %d on device %d, want 0", id, got)
		}
	}
}
