//go:build race

package main

// raceDetector reports that the test binary runs about ten times slower
// than the program, too slow for an open loop to keep its schedule.
const raceDetector = true
