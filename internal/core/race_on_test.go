//go:build race

package core

// raceEnabled reports whether the race detector instruments this build:
// it makes sync.Pool drop a share of what is put back, so bytes per scan
// stop being a property of the code.
const raceEnabled = true
