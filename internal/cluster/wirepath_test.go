package cluster

import (
	"context"
	"math/rand"
	"testing"
)

// BenchmarkWirePath sends 64 × 32 batches, the serving shape of
// cmd/eugenebench's ladder, down the whole wire path over loopback: service.Client encodes, the router
// reads, peeks and forwards, one replica decodes, serves and answers,
// and the answer streams back through the router. The model behind it
// is tiny, so the time is the wire path's. Bytes per second are request
// body bytes.
func BenchmarkWirePath(b *testing.B) {
	snap, input, err := trainSnapshot(32, 33)
	if err != nil {
		b.Fatal(err)
	}
	f := newTestFleet(b, 1, func(c *Config) { c.Logf = func(string, ...any) {} })
	ctx := context.Background()
	if err := f.cli.PutSnapshot(ctx, "m", snap); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	inputs := make([][]float64, 64)
	for i := range inputs {
		inputs[i] = make([]float64, len(input))
		for j := range inputs[i] {
			inputs[i][j] = rng.NormFloat64()
		}
	}
	var bodyLen int
	for _, row := range inputs {
		bodyLen += 20 * len(row) // about what a float64 takes as text
	}
	if _, err := f.cli.InferBatch(ctx, "m", inputs); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(bodyLen))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.cli.InferBatch(ctx, "m", inputs); err != nil {
			b.Fatal(err)
		}
	}
}
