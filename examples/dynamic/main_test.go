package main

import (
	"os"
	"testing"
)

// TestMainRuns: the example runs to completion, as `go run .` runs it.
func TestMainRuns(t *testing.T) {
	defer func(args []string) { os.Args = args }(os.Args)
	os.Args = []string{"dynamic"}
	main()
}
