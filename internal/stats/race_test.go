//go:build race

package stats

// raceEnabled reports the race detector is on: it instruments every memory
// access, so the allocation gate does not hold and is skipped.
const raceEnabled = true
