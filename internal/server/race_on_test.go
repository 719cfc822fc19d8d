//go:build race

package server

// raceEnabled reports whether the race detector instruments this build:
// it makes sync.Pool drop a share of what is put back, so allocations
// per request stop being a property of the code.
const raceEnabled = true
