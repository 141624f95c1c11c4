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
	var lp []float64
	if alpha != 0 {
		lp = make([]float64, logits.Cols)
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
			h = EntropyLogs(p, lp)
			loss += alpha * h
		}
		for c := range p {
			g[c] = p[c]
			if c == y {
				g[c] -= 1
			}
			if alpha != 0 {
				g[c] += alpha * (-p[c] * (lp[c] + h))
			}
			g[c] *= invB
		}
	}
	return loss * invB
}

// logFloor is log(1e-12): the Eq. 4 gradient's log p for p below 1e-12.
var logFloor = math.Log(1e-12)

// EntropyLogs returns the entropy H(p) of a probability vector,
// tensor.Entropy(p) bit for bit, and writes into lp the clamped logs the
// Eq. 4 gradient takes, lp[c] = log(max(p[c], 1e-12)) bit for bit. Where
// the two logs agree (p ≥ 1e-12: every class but a saturated row's
// losers) it takes one math.Log for both.
func EntropyLogs(p, lp []float64) float64 {
	var h float64
	for c, v := range p {
		l := logFloor
		if !(v < 1e-12) { // v ≥ 1e-12, or NaN
			l = math.Log(math.Max(v, 1e-12))
		}
		lp[c] = l
		if v > 0 {
			if v < 1e-12 {
				l = math.Log(v)
			}
			h -= v * l
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
