//go:build !race

package plinger

const raceEnabled = false
