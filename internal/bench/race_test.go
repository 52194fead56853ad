//go:build race

package bench

// raceEnabled trims TestBenchArtifactReproduces under the race detector:
// the quorum sections still lean on wall-clock deadlines that the
// detector's slowdown can blow, and the adaptive and hierarchy runs slow
// about 11x, while TestQuorum* and TestRunTraining* already drive those
// paths under -race.
const raceEnabled = true
