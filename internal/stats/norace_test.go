//go:build !race

package stats

// raceEnabled reports the race detector is on; see race_test.go.
const raceEnabled = false
