//go:build race

package experiments

// raceEnabled reports the race detector is on: it instruments every memory
// access and randomizes sync.Pool, so the allocation gates do not hold and
// are skipped.
const raceEnabled = true
