//go:build race

package main

// raceEnabled reports a race-detector build, whose instrumentation runs in
// C frames a CPU profile cannot attribute to Go packages.
const raceEnabled = true
