//go:build !race

package raidsim

const raceEnabled = false
