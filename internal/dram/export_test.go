package dram

// NextReleaseScan exposes the rescan oracle to the external benchmarks.
var NextReleaseScan = nextReleaseScan
