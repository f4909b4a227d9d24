//go:build !race

package symbolic

const raceEnabled = false
