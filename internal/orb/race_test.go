//go:build race

package orb

// raceEnabled: the race detector makes sync.Pool drop a random share of
// Puts, so pooled-state alloc budgets cannot hold under -race.
const raceEnabled = true
