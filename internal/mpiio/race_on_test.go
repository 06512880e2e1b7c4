//go:build race

package mpiio

// raceEnabled: under the race detector sync.Pool drops a share of its
// Puts on purpose, so allocation pins that count on the pool skip.
const raceEnabled = true
