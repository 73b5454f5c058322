//go:build !race

package reservation

const raceEnabled = false
