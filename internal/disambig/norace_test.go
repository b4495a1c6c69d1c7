//go:build !race

package disambig

const raceEnabled = false
