//go:build race

package search

// raceEnabled reports that the race detector is on. The exhaustive suite is
// single-threaded arithmetic repeated a million times, which the detector
// makes five times slower and no more revealing; it runs its two-document
// scope there.
const raceEnabled = true
