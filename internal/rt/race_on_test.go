//go:build race

package rt

// raceEnabled reports that the race detector is on. Under it sync.Pool
// drops a quarter of what it is handed, on purpose, so a frame-pool round
// trip is not allocation-free and exact allocation budgets do not hold.
const raceEnabled = true
