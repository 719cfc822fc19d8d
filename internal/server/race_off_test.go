//go:build !race

package server

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
