//go:build race

package disambig

// raceEnabled reports that the race detector is on. The exhaustive suite is
// arithmetic repeated a million times, which the detector makes several times
// slower and no more revealing; it draws from a smaller location pool there.
const raceEnabled = true
