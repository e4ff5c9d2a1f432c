package main

import "testing"

// TestMainRuns: the example runs to completion.
func TestMainRuns(t *testing.T) { main() }
