package partition

// The in-package graph generator and digest, for the external
// partition_test package (which may import keygraph, itself an importer
// of partition).
var (
	RandomGraph = randomGraph
	PartsDigest = partsDigest
)
