//go:build !race

package prtree

const raceEnabled = false
