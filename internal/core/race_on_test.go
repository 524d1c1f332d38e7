//go:build race

package core

// raceEnabled reports a -race build. Single-goroutine sweeps gain nothing
// from the detector and run several times slower under it, so they sample
// more sparsely there.
const raceEnabled = true
