//go:build race

package repro

// raceEnabled reports that the race detector is on. sync.Pool drops a share
// of its puts there, so a request re-allocates pooled scratch and no byte
// bound on a request holds.
const raceEnabled = true
