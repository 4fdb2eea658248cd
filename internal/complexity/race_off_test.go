//go:build !race

package complexity

const raceEnabled = false
