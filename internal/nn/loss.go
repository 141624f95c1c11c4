package nn

import (
	"fmt"
	"math"

	"eugene/internal/tensor"
)

// SoftmaxCE computes the mean softmax cross-entropy of logits against
// integer labels, optionally adding the Eugene calibration regularizer of
// Eq. (4): L = CE(p, y) + α·H(p). It returns the scalar loss and writes
// the gradient with respect to the logits into gradLogits (same shape as
// logits, pre-allocated by the caller).
//
// Gradient derivation: ∂CE/∂z = p − y (one-hot), and for the entropy term
// ∂H/∂z_j = −p_j(log p_j + H(p)). Both are averaged over the batch.
func SoftmaxCE(gradLogits, logits *tensor.Matrix, labels []int, alpha float64) float64 {
	if len(labels) != logits.Rows {
		panic(fmt.Sprintf("nn: SoftmaxCE got %d labels for %d rows", len(labels), logits.Rows))
	}
	probs := tensor.NewMatrix(logits.Rows, logits.Cols)
	tensor.Softmax(probs, logits)
	invB := 1 / float64(logits.Rows)
	var lp *tensor.Matrix
	var hs []float64
	if alpha != 0 {
		lp = tensor.NewMatrix(logits.Rows, logits.Cols)
		hs = make([]float64, logits.Rows)
		EntropyLogsRows(hs, lp, probs)
	}
	var loss float64
	for r := 0; r < logits.Rows; r++ {
		p := probs.Row(r)
		g := gradLogits.Row(r)
		y := labels[r]
		if y < 0 || y >= logits.Cols {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", y, logits.Cols))
		}
		loss += -math.Log(math.Max(p[y], 1e-12))
		var h float64
		if alpha != 0 {
			h = hs[r]
			loss += alpha * h
		}
		for c := range p {
			g[c] = p[c]
			if c == y {
				g[c] -= 1
			}
			if alpha != 0 {
				g[c] += alpha * (-p[c] * (lp.At(r, c) + h))
			}
			g[c] *= invB
		}
	}
	return loss * invB
}

// entropyFloor is the Eq. 4 gradient's floor under p: log p for p below
// it is log(entropyFloor).
const entropyFloor = 1e-12

// logEntropyFloor is log(entropyFloor).
var logEntropyFloor = math.Log(entropyFloor)

// EntropyLogsRows writes every row's entropy H(p) into hs,
// tensor.Entropy(p.Row(r)) bit for bit, and into lp the clamped logs the
// Eq. 4 gradient takes, lp[r][c] = log(max(p[r][c], 1e-12)) bit for bit.
// It takes one log per element, all in one tensor.LogFloor over the
// whole matrix (SIMD lanes where the CPU has them): the entropy reads
// log p as it comes, and the logs of p < 1e-12 are then clamped to
// log(1e-12). hs has a slot per row and lp p's shape.
func EntropyLogsRows(hs []float64, lp, p *tensor.Matrix) {
	if len(hs) != p.Rows || lp.Rows != p.Rows || lp.Cols != p.Cols {
		panic(fmt.Sprintf("nn: EntropyLogsRows got %d entropies and %dx%d logs for %dx%d probabilities", len(hs), lp.Rows, lp.Cols, p.Rows, p.Cols))
	}
	tensor.LogFloor(lp.Data, p.Data, math.Inf(-1))
	for r := range hs {
		hs[r] = entropyClampLogs(p.Row(r), lp.Row(r))
	}
}

// entropyClampLogs is −Σ p·log p over the positive p in order, reading
// log p from lp, and then clamps lp at log(1e-12) where p < 1e-12.
func entropyClampLogs(p, lp []float64) float64 {
	lp = lp[:len(p)]
	var h float64
	for c, v := range p {
		if v > 0 {
			h -= v * lp[c]
		}
		if v < entropyFloor {
			lp[c] = logEntropyFloor
		}
	}
	return h
}

// Accuracy returns the fraction of rows of logits whose arg-max equals
// the label.
func Accuracy(logits *tensor.Matrix, labels []int) float64 {
	if len(labels) == 0 {
		return 0
	}
	var correct int
	for r := 0; r < logits.Rows; r++ {
		idx, _ := tensor.ArgMax(logits.Row(r))
		if idx == labels[r] {
			correct++
		}
	}
	return float64(correct) / float64(len(labels))
}
