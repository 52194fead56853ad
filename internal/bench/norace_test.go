//go:build !race

package bench

// raceEnabled: see race_test.go.
const raceEnabled = false
