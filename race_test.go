//go:build race

package stripe

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop a quarter of its Puts on purpose, so allocation counts of code
// that cycles packets through the pool are only exact without it.
const raceEnabled = true
