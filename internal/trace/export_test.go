package trace

// SharedDataset gives the external test package the default trace that this
// package's tests synthesize once.
var SharedDataset = dataset
