//go:build !race

package mpiio

const raceEnabled = false
