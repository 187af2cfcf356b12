package graph_test

import (
	"testing"

	"graphcache/internal/gen"
	"graphcache/internal/graph"
	"graphcache/internal/workload"
)

// zzFrame is a binary frame of 32 Type A ZZ queries over an AIDS-like
// dataset: a /querybatch request as a batch client sends it.
func zzFrame(b *testing.B) []byte {
	ds := gen.DefaultAIDS().Scaled(0.02, 1).Generate(64)
	cfg, err := workload.TypeACategory("ZZ", 1.4, []int{4, 8, 12, 16, 20}, 32)
	if err != nil {
		b.Fatal(err)
	}
	var gs []*graph.Graph
	for _, q := range workload.TypeA(ds, cfg, 65) {
		gs = append(gs, q.Graph)
	}
	frame, err := graph.EncodeBinary(gs)
	if err != nil {
		b.Fatal(err)
	}
	return frame
}

// BenchmarkDecodeBinary decodes a 32-query frame into graphs, as gcserved
// does with every binary request.
func BenchmarkDecodeBinary(b *testing.B) {
	frame := zzFrame(b)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := graph.DecodeBinary(frame); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameKeys splits a 32-query frame into keyed bodies, as
// gcrouter does with every binary request.
func BenchmarkFrameKeys(b *testing.B) {
	frame := zzFrame(b)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := graph.SplitBinary(frame); err != nil {
			b.Fatal(err)
		}
	}
}
