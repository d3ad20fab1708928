package meter

// ReferenceRepair exposes the sort-based oracle to the external test
// package, which needs the fault injector (an importer of meter).
var ReferenceRepair = referenceRepair
