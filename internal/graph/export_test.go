package graph

// CheckSignature exposes checkSignature to the external tests in
// constructors_test.go, which build graphs through other packages.
var CheckSignature = checkSignature
