//go:build race

package annotate

// raceEnabled reports that the race detector is on. Under it sync.Pool drops
// a quarter of what is put back, so the geo stage keeps re-allocating component
// scratch and its allocation guard would measure the detector.
const raceEnabled = true
