package nn

import (
	"math"
	"math/rand"
	"testing"

	"eugene/internal/tensor"
)

// perType runs one test body at each element type a program compiles
// to.
func perType(t *testing.T, f64, f32 func(*testing.T)) {
	t.Run("f64", f64)
	t.Run("f32", f32)
}

// buildTestNet mirrors a staged-model stage: Dense→ReLU, a residual
// block with fused ReLU whose body ends in a bias-only Dense (so the sum
// fuses into that Dense), a residual whose body ends in a ReLU (so it
// stays an add of its own), a residual whose body is a fused residual,
// a Dense inside a nested Sequential whose ReLU sits outside it
// (fusable only once the nesting is inlined), dropout (inference
// identity), and a final linear head.
func buildTestNet(rng *rand.Rand, in, hidden, out int) *Sequential {
	return NewSequential(
		NewDense(rng, in, hidden),
		NewReLU(),
		NewResidual(NewSequential(
			NewDense(rng, hidden, hidden),
			NewReLU(),
			NewDense(rng, hidden, hidden),
		)),
		NewReLU(),
		NewResidual(NewSequential(
			NewDense(rng, hidden, hidden),
			NewReLU(),
		)),
		NewResidual(NewResidual(NewDense(rng, hidden, hidden))),
		NewSequential(NewDense(rng, hidden, hidden)),
		NewReLU(),
		NewDropout(rng, 0.2),
		NewDense(rng, hidden, out),
	)
}

// randBatch draws a batch at T and its exact float64 image, the tree's
// input.
func randBatch[T tensor.Float](rng *rand.Rand, rows, cols int) (*tensor.Mat[T], *tensor.Matrix) {
	x, x64 := tensor.New[T](rows, cols), tensor.NewMatrix(rows, cols)
	for i := range x.Data {
		v := T(rng.NormFloat64())
		x.Data[i], x64.Data[i] = v, float64(v)
	}
	return x, x64
}

// TestCompileMatchesTreeForward pins the compiled program — ReLU fusion,
// residual sums fused into a Dense's epilogue or left as adds, dropout
// elision, inlined nesting, scratch slots shared by liveness — to the
// tree's plain layer-by-layer inference forward, which fuses nothing,
// for batch sizes on both sides of the dense kernels' register tiles.
// The float64 program runs the same kernels on the same weights in the
// same order, so it must agree exactly (== : a fused ReLU keeps -0 where
// the ReLU layer writes +0); the float32 program to float32 tolerance.
func TestCompileMatchesTreeForward(t *testing.T) {
	perType(t, testCompileMatchesTreeForward[float64], testCompileMatchesTreeForward[float32])
}

func testCompileMatchesTreeForward[T tensor.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const in, hidden, out = 13, 40, 5
	net := buildTestNet(rng, in, hidden, out)
	prog, err := Compile[T](net, in)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if prog.Out != out {
		t.Fatalf("compiled Out = %d, want %d", prog.Out, out)
	}
	// Four residuals: the first fuses into its Dense, the second (body
	// ends in a ReLU) stays an add, and of the nested pair the inner one
	// fuses and the outer one (body ends in a fused Dense) is an add.
	fused, adds := 0, 0
	for _, o := range prog.ops {
		if o.kind == opDense && o.res != noOperand {
			fused++
		}
		if o.kind == opAdd {
			adds++
		}
	}
	if fused != 2 || adds != 2 {
		t.Fatalf("compiled %d fused residuals and %d adds, want 2 and 2", fused, adds)
	}
	if prog.slots != 3 {
		t.Fatalf("program uses %d scratch slots, want 3", prog.slots)
	}
	tol := 0.0
	if _, f32 := any(T(0)).(float32); f32 {
		tol = 1e-4
	}
	for _, rows := range []int{1, 3, 8, 9, 64, 2} {
		x, x64 := randBatch[T](rng, rows, in)
		want := net.Forward(x64, false)
		got := prog.Forward(x)
		if got.Rows != rows || got.Cols != out {
			t.Fatalf("forward shape %dx%d, want %dx%d", got.Rows, got.Cols, rows, out)
		}
		for i := range got.Data {
			diff := math.Abs(float64(got.Data[i]) - want.Data[i])
			if diff > tol*math.Max(1, math.Abs(want.Data[i])) {
				t.Fatalf("rows=%d output [%d] = %v, want %v (Δ %v)", rows, i, got.Data[i], want.Data[i], diff)
			}
		}
	}
}

func TestCompileStandaloneReLUAndInputIntact(t *testing.T) {
	perType(t, testCompileStandaloneReLU[float64], testCompileStandaloneReLU[float32])
}

func testCompileStandaloneReLU[T tensor.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// Leading ReLU has no fusable predecessor; must not write the
	// caller's input in place.
	testInputIntact[T](t, rng, NewSequential(NewReLU(), NewDense(rng, 4, 3)))
	// Nor may a leading residual whose body compiles to nothing: it sums
	// into its body's buffer, and here the body's result is the input.
	testInputIntact[T](t, rng, NewSequential(NewResidual(NewDropout(rng, 0.2)), NewReLU(), NewDense(rng, 4, 3)))
}

func testInputIntact[T tensor.Float](t *testing.T, rng *rand.Rand, net *Sequential) {
	t.Helper()
	prog, err := Compile[T](net, 4)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	x, x64 := randBatch[T](rng, 2, 4)
	orig := append([]T(nil), x.Data...)
	got := prog.Forward(x)
	for i := range x.Data {
		if x.Data[i] != orig[i] {
			t.Fatalf("Forward mutated its input at %d", i)
		}
	}
	want := net.Forward(x64, false)
	for i := range want.Data {
		if math.Abs(float64(got.Data[i])-want.Data[i]) > 1e-5 {
			t.Fatalf("output [%d] = %v, want %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestCompileRejectsMCDropoutAndWidthMismatch(t *testing.T) {
	perType(t, testCompileRejects[float64], testCompileRejects[float32])
}

func testCompileRejects[T tensor.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	drop := NewDropout(rng, 0.2)
	drop.MC = true
	if _, err := Compile[T](NewSequential(drop), 4); err == nil {
		t.Fatal("Compile accepted MC dropout")
	}
	if _, err := Compile[T](NewDense(rng, 5, 3), 4); err == nil {
		t.Fatal("Compile accepted a width mismatch")
	}
	if _, err := Compile[T](NewResidual(NewDense(rng, 4, 3)), 4); err == nil {
		t.Fatal("Compile accepted a non-square residual body")
	}
	if _, err := Compile[T](opless{NewReLU()}, 4); err == nil {
		t.Fatal("Compile accepted a layer type it has no op for")
	}
}

// opless is a layer type Compile has no op for.
type opless struct{ Layer }

// TestCompileF64AliasesTreeWeights: the float64 program holds no weight
// copy. It reads the tree's own buffers, so a parameter update made
// after Compile is what the next Forward serves.
func TestCompileF64AliasesTreeWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	dense := NewDense(rng, 3, 2)
	prog, err := Compile[float64](dense, 3)
	if err != nil {
		t.Fatal(err)
	}
	if &prog.ops[0].w.Data[0] != &dense.W.Data[0] || &prog.ops[0].b[0] != &dense.B[0] {
		t.Fatal("float64 program copied the tree's weights")
	}
	x, _ := randBatch[float64](rng, 1, 3)
	before := prog.Forward(x).Data[0]
	for _, p := range dense.Params() {
		for i := range p.Value {
			p.Value[i] += 1
		}
	}
	if after := prog.Forward(x).Data[0]; after == before {
		t.Fatal("program served stale weights after a parameter update")
	}
}

func TestProgramCloneSharesWeightsNotScratch(t *testing.T) {
	perType(t, testProgramClone[float64], testProgramClone[float32])
}

func testProgramClone[T tensor.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const in, hidden, out = 6, 12, 3
	net := buildTestNet(rng, in, hidden, out)
	prog, err := Compile[T](net, in)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	x, _ := randBatch[T](rng, 4, in)
	c := prog.Clone()
	ref := append([]T(nil), prog.Forward(x).Data...)
	c.Forward(x)
	for i := range prog.ops {
		if prog.ops[i].w != nil && &c.ops[i].w.Data[0] != &prog.ops[i].w.Data[0] {
			t.Fatalf("op %d: clone copied weights instead of sharing them", i)
		}
	}
	for i, b := range c.scr.bufs {
		if b != nil && prog.scr.bufs[i] != nil && &b.Data[0] == &prog.scr.bufs[i].Data[0] {
			t.Fatalf("slot %d: clone shares scratch", i)
		}
	}

	// Concurrent forwards on independent clones must agree (and be
	// race-free under -race).
	done := make(chan []T, 2)
	for k := 0; k < 2; k++ {
		clone := prog.Clone()
		go func() {
			var last []T
			for rep := 0; rep < 50; rep++ {
				last = clone.Forward(x).Data
			}
			done <- append([]T(nil), last...)
		}()
	}
	for k := 0; k < 2; k++ {
		got := <-done
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("concurrent clone output [%d] = %v, want %v", i, got[i], ref[i])
			}
		}
	}
}

// TestShareScratchChainsPrograms runs a stem, a stage body and a head
// the way a frozen model does — each program's input the last one's
// result — once on scratch of their own and once on one shared set, at
// growing and shrinking batch sizes: the answers must be the same bits,
// the shared set must be the three slots a body needs, and the stem's
// input must stay intact.
func TestShareScratchChainsPrograms(t *testing.T) {
	perType(t, testShareScratch[float64], testShareScratch[float32])
}

func testShareScratch[T tensor.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	const in, hidden, out = 7, 24, 5
	block := func() Layer {
		return NewResidual(NewSequential(NewDense(rng, hidden, hidden), NewReLU(), NewDense(rng, hidden, hidden)))
	}
	trees := []struct {
		net Layer
		in  int
	}{
		{NewSequential(NewDense(rng, in, hidden), NewReLU()), in},
		{NewSequential(block(), NewReLU(), block(), NewReLU()), hidden},
		{NewSequential(NewDense(rng, hidden, 6), NewReLU(), NewDense(rng, 6, out)), hidden},
	}
	var own, shared []*Program[T]
	for _, tr := range trees {
		p, err := Compile[T](tr.net, tr.in)
		if err != nil {
			t.Fatal(err)
		}
		own, shared = append(own, p), append(shared, p.Clone())
	}
	ShareScratch(shared...)
	if n := len(shared[0].scr.bufs); n != 3 {
		t.Fatalf("shared scratch has %d buffers, want 3", n)
	}
	for _, rows := range []int{3, 64, 1, 9} {
		x, _ := randBatch[T](rng, rows, in)
		orig := append([]T(nil), x.Data...)
		want, got := x, x
		for i := range own {
			want = own[i].Forward(want)
			got = shared[i].Forward(got)
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] && !(got.Data[i] != got.Data[i] && want.Data[i] != want.Data[i]) {
				t.Fatalf("rows=%d output [%d] = %v on shared scratch, want %v", rows, i, got.Data[i], want.Data[i])
			}
		}
		for i := range x.Data {
			if x.Data[i] != orig[i] {
				t.Fatalf("rows=%d: the chain wrote its input at %d", rows, i)
			}
		}
	}
}
