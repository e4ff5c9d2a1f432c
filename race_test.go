//go:build race

package prtree

// raceEnabled reports a -race build, whose sync.Pool drops some of what it
// is given, so pooled scratch is allocated again now and then.
const raceEnabled = true
