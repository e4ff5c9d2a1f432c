package rtree

// Test helpers shared with the external tests in package rtree_test.
var (
	BuildPacked = buildPacked
)
