//go:build !race

package annotate

const raceEnabled = false
