// Package reduce implements Eugene's model-reduction service (paper
// Section II-B, after DeepIoT [5]): magnitude-based edge pruning that
// yields sparse matrices, node pruning that yields smaller dense
// matrices, and the compressed-sparse-row machinery needed to
// demonstrate the paper's claim that sparse-matrix savings do not scale
// proportionally with the zero fraction, while node removal does.
package reduce

import (
	"fmt"
	"math"
	"sort"

	"eugene/internal/nn"
	"eugene/internal/tensor"
)

// CSR is a compressed-sparse-row matrix.
type CSR struct {
	Rows, Cols int
	RowPtr     []int
	ColIdx     []int
	Val        []float64
}

// FromDense builds a CSR matrix keeping entries with |v| > eps.
func FromDense(m *tensor.Matrix, eps float64) *CSR {
	c := &CSR{
		Rows:   m.Rows,
		Cols:   m.Cols,
		RowPtr: make([]int, m.Rows+1),
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for col, v := range row {
			if math.Abs(v) > eps {
				c.ColIdx = append(c.ColIdx, col)
				c.Val = append(c.Val, v)
			}
		}
		c.RowPtr[r+1] = len(c.Val)
	}
	return c
}

// NNZ returns the number of stored non-zeros.
func (c *CSR) NNZ() int { return len(c.Val) }

// Sparsity returns the fraction of zero entries.
func (c *CSR) Sparsity() float64 {
	total := c.Rows * c.Cols
	if total == 0 {
		return 0
	}
	return 1 - float64(c.NNZ())/float64(total)
}

// MatVec computes dst = C·x.
func (c *CSR) MatVec(dst, x []float64) {
	if len(x) != c.Cols || len(dst) != c.Rows {
		panic(fmt.Sprintf("reduce: MatVec dims %d→%d for %dx%d", len(x), len(dst), c.Rows, c.Cols))
	}
	for r := 0; r < c.Rows; r++ {
		var sum float64
		for i := c.RowPtr[r]; i < c.RowPtr[r+1]; i++ {
			sum += c.Val[i] * x[c.ColIdx[i]]
		}
		dst[r] = sum
	}
}

// ToDense converts back to a dense matrix (for tests).
func (c *CSR) ToDense() *tensor.Matrix {
	m := tensor.NewMatrix(c.Rows, c.Cols)
	for r := 0; r < c.Rows; r++ {
		for i := c.RowPtr[r]; i < c.RowPtr[r+1]; i++ {
			m.Set(r, c.ColIdx[i], c.Val[i])
		}
	}
	return m
}

// DenseMatVec is the dense reference dst = M·x used for timing
// comparisons; a layer's M is OutIn's.
func DenseMatVec(dst []float64, m *tensor.Matrix, x []float64) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("reduce: DenseMatVec dims %d→%d for %dx%d", len(x), len(dst), m.Rows, m.Cols))
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		var sum float64
		for c, v := range row {
			sum += v * x[c]
		}
		dst[r] = sum
	}
}

// MagnitudeThreshold returns the |value| cutting the matrix to the given
// sparsity (fraction of entries removed).
func MagnitudeThreshold(m *tensor.Matrix, sparsity float64) (float64, error) {
	if sparsity < 0 || sparsity >= 1 {
		return 0, fmt.Errorf("reduce: sparsity %v outside [0,1)", sparsity)
	}
	mags := make([]float64, len(m.Data))
	for i, v := range m.Data {
		mags[i] = math.Abs(v)
	}
	sort.Float64s(mags)
	k := int(sparsity * float64(len(mags)))
	if k == 0 {
		return 0, nil
	}
	if k >= len(mags) {
		k = len(mags) - 1
	}
	return mags[k-1], nil
}

// OutIn returns a dense layer's weights out×in — a row per output
// neuron, the orientation M·x and its sparse form walk — from the in×out
// matrix nn.Dense keeps.
func OutIn(d *nn.Dense) *tensor.Matrix {
	m := tensor.NewMatrix(d.Out, d.In)
	tensor.Transpose(m, d.W)
	return m
}

// EdgePrune removes the smallest-magnitude fraction of weights from a
// dense layer, returning the resulting sparse representation of its
// out×in matrix (OutIn). This is the approach the paper critiques:
// storage shrinks, but computation does not shrink proportionally.
func EdgePrune(d *nn.Dense, sparsity float64) (*CSR, error) {
	th, err := MagnitudeThreshold(d.W, sparsity)
	if err != nil {
		return nil, err
	}
	return FromDense(OutIn(d), th), nil
}

// NodeScore ranks hidden units of a Dense→activation→Dense block by the
// L2 energy of their incoming and outgoing weights (a simple stand-in
// for DeepIoT's compressor-critic importance).
func NodeScore(w1, w2 *tensor.Matrix) ([]float64, error) {
	// w1 is in×hidden (incoming columns); w2 is hidden×out (outgoing rows).
	if w1.Cols != w2.Rows {
		return nil, fmt.Errorf("reduce: hidden dim mismatch %d vs %d", w1.Cols, w2.Rows)
	}
	scores := make([]float64, w1.Cols)
	for h := range scores {
		var s float64
		for c := 0; c < w1.Rows; c++ {
			v := w1.At(c, h)
			s += v * v
		}
		for _, v := range w2.Row(h) {
			s += v * v
		}
		scores[h] = s
	}
	return scores, nil
}

// NodePrune shrinks a Dense(in→hidden) / Dense(hidden→out) pair to the
// keep highest-scoring hidden units, returning new dense layers with
// smaller dimensions — the paper's preferred reduction: the result is
// still dense, so standard dense algebra gets the full speedup.
func NodePrune(d1, d2 *nn.Dense, keep int) (*nn.Dense, *nn.Dense, []int, error) {
	if keep < 1 || keep > d1.Out {
		return nil, nil, nil, fmt.Errorf("reduce: keep %d outside [1,%d]", keep, d1.Out)
	}
	if d1.Out != d2.In {
		return nil, nil, nil, fmt.Errorf("reduce: layer widths %d→%d don't chain", d1.Out, d2.In)
	}
	scores, err := NodeScore(d1.W, d2.W)
	if err != nil {
		return nil, nil, nil, err
	}
	type hs struct {
		h int
		s float64
	}
	ranked := make([]hs, len(scores))
	for h, s := range scores {
		ranked[h] = hs{h, s}
	}
	sort.Slice(ranked, func(i, j int) bool { return ranked[i].s > ranked[j].s })
	kept := make([]int, keep)
	for i := 0; i < keep; i++ {
		kept[i] = ranked[i].h
	}
	sort.Ints(kept)

	n1 := &nn.Dense{
		In: d1.In, Out: keep,
		W: tensor.NewMatrix(d1.In, keep),
		B: make([]float64, keep),
	}
	n2 := &nn.Dense{
		In: keep, Out: d2.Out,
		W: tensor.NewMatrix(keep, d2.Out),
		B: append([]float64(nil), d2.B...),
	}
	for i, h := range kept {
		for c := 0; c < d1.In; c++ {
			n1.W.Set(c, i, d1.W.At(c, h))
		}
		n1.B[i] = d1.B[h]
		copy(n2.W.Row(i), d2.W.Row(h))
	}
	return n1, n2, kept, nil
}

// Report summarizes a reduction.
type Report struct {
	ParamsBefore int
	ParamsAfter  int
	// StorageRatio is ParamsAfter/ParamsBefore (for CSR, counting
	// index storage at one word per non-zero).
	StorageRatio float64
}

// EdgeReport builds a Report for an edge-pruned layer; CSR storage
// counts value + column index per non-zero plus row pointers.
func EdgeReport(d *nn.Dense, c *CSR) Report {
	before := d.In*d.Out + d.Out
	after := 2*c.NNZ() + len(c.RowPtr) + d.Out
	return Report{
		ParamsBefore: before,
		ParamsAfter:  after,
		StorageRatio: float64(after) / float64(before),
	}
}

// NodeReport builds a Report for a node-pruned pair.
func NodeReport(d1, d2, n1, n2 *nn.Dense) Report {
	before := d1.In*d1.Out + d1.Out + d2.In*d2.Out + d2.Out
	after := n1.In*n1.Out + n1.Out + n2.In*n2.Out + n2.Out
	return Report{
		ParamsBefore: before,
		ParamsAfter:  after,
		StorageRatio: float64(after) / float64(before),
	}
}
