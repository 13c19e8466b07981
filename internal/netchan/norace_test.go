//go:build !race

package netchan

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
