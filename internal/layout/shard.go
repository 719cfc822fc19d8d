package layout

// ShardOf returns the card, of an n-card fleet (n ≥ 1), that owns the
// fragment with the process-unique ID fragID (Fragment.ID): a mixed hash
// of the ID, so placement is deterministic, needs no table, and stays
// balanced whatever order fragments were allocated in.
func ShardOf(fragID uint64, n int) int {
	return int(mix64(fragID) % uint64(n))
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
