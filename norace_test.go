//go:build !race

package stripe

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
