package nn

import (
	"fmt"
	"math"
	"math/rand"

	"eugene/internal/tensor"
)

// Conv2D is a 2-D convolution layer over channel-major flattened inputs
// (each batch row is InChannels·Height·Width values). Output rows are
// OutChannels·OutHeight·OutWidth, also channel-major, so Conv2D layers
// compose directly.
type Conv2D struct {
	Shape tensor.ConvShape
	K     *tensor.Matrix // OutChannels × (InChannels·Kernel·Kernel)
	B     []float64
	GradK *tensor.Matrix
	GradB []float64

	cols     []*tensor.Matrix // cached im2col per sample (train only)
	out      *tensor.Matrix
	gin      *tensor.Matrix
	colBuf   *tensor.Matrix
	mmBuf    *tensor.Matrix
	gPosBuf  *tensor.Matrix
	gColsBuf *tensor.Matrix
}

// NewConv2D constructs a convolution layer with He initialization.
func NewConv2D(rng *rand.Rand, shape tensor.ConvShape) (*Conv2D, error) {
	if err := shape.Validate(); err != nil {
		return nil, fmt.Errorf("nn: invalid conv shape: %w", err)
	}
	patch := shape.InChannels * shape.Kernel * shape.Kernel
	c := &Conv2D{
		Shape: shape,
		K:     tensor.NewMatrix(shape.OutChannels, patch),
		B:     make([]float64, shape.OutChannels),
		GradK: tensor.NewMatrix(shape.OutChannels, patch),
		GradB: make([]float64, shape.OutChannels),
	}
	std := math.Sqrt(2.0 / float64(patch))
	for i := range c.K.Data {
		c.K.Data[i] = rng.NormFloat64() * std
	}
	return c, nil
}

// InWidth returns the expected flattened input width per sample.
func (c *Conv2D) InWidth() int { return c.Shape.InChannels * c.Shape.Height * c.Shape.Width }

// OutWidth returns the flattened output width per sample.
func (c *Conv2D) OutWidth() int {
	return c.Shape.OutChannels * c.Shape.OutHeight() * c.Shape.OutWidth()
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if x.Cols != c.InWidth() {
		panic(fmt.Sprintf("nn: Conv2D got input width %d, want %d", x.Cols, c.InWidth()))
	}
	s := c.Shape
	oh, ow := s.OutHeight(), s.OutWidth()
	patch := s.InChannels * s.Kernel * s.Kernel
	c.out = ensure(c.out, x.Rows, c.OutWidth())
	c.colBuf = ensure(c.colBuf, oh*ow, patch)
	c.mmBuf = ensure(c.mmBuf, oh*ow, s.OutChannels)
	if train {
		c.cols = c.cols[:0]
	}
	for r := 0; r < x.Rows; r++ {
		tensor.Im2Col(c.colBuf, s, x.Row(r))
		if train {
			c.cols = append(c.cols, c.colBuf.Clone())
		}
		tensor.MatMulT(c.mmBuf, c.colBuf, c.K)
		// Transpose position-major (oh*ow × outC) into channel-major
		// planes, adding bias.
		outRow := c.out.Row(r)
		for oc := 0; oc < s.OutChannels; oc++ {
			b := c.B[oc]
			base := oc * oh * ow
			for p := 0; p < oh*ow; p++ {
				outRow[base+p] = c.mmBuf.At(p, oc) + b
			}
		}
	}
	return c.out
}

// Backward implements Layer.
func (c *Conv2D) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	s := c.Shape
	oh, ow := s.OutHeight(), s.OutWidth()
	patch := s.InChannels * s.Kernel * s.Kernel
	c.gin = ensure(c.gin, gradOut.Rows, c.InWidth())
	c.gPosBuf = ensure(c.gPosBuf, oh*ow, s.OutChannels)
	c.gColsBuf = ensure(c.gColsBuf, oh*ow, patch)
	for r := 0; r < gradOut.Rows; r++ {
		gRow := gradOut.Row(r)
		// Reshape channel-major grad into position-major, and
		// accumulate the bias gradient per output channel.
		for oc := 0; oc < s.OutChannels; oc++ {
			base := oc * oh * ow
			var gb float64
			for p := 0; p < oh*ow; p++ {
				g := gRow[base+p]
				c.gPosBuf.Set(p, oc, g)
				gb += g
			}
			c.GradB[oc] += gb
		}
		cols := c.cols[r]
		tensor.TMatMul(c.GradK, c.gPosBuf, cols)
		tensor.MatMul(c.gColsBuf, c.gPosBuf, c.K)
		tensor.Col2Im(c.gin.Row(r), s, c.gColsBuf)
	}
	return c.gin
}

// Params implements Layer.
func (c *Conv2D) Params() []Param {
	return []Param{
		{Name: "K", Value: c.K.Data, Grad: c.GradK.Data},
		{Name: "b", Value: c.B, Grad: c.GradB},
	}
}

// Clone implements Layer.
func (c *Conv2D) Clone() Layer {
	patch := c.Shape.InChannels * c.Shape.Kernel * c.Shape.Kernel
	return &Conv2D{
		Shape: c.Shape,
		K:     c.K.Clone(),
		B:     append([]float64(nil), c.B...),
		GradK: tensor.NewMatrix(c.Shape.OutChannels, patch),
		GradB: make([]float64, c.Shape.OutChannels),
	}
}

// GlobalAvgPool averages each channel plane to a single value, mapping
// C·H·W inputs to C outputs. Used between convolutional stages and dense
// classifier heads.
type GlobalAvgPool struct {
	Channels int
	Plane    int // H·W

	out *tensor.Matrix
	gin *tensor.Matrix
}

// NewGlobalAvgPool constructs a pool over channels planes of plane pixels.
func NewGlobalAvgPool(channels, plane int) *GlobalAvgPool {
	return &GlobalAvgPool{Channels: channels, Plane: plane}
}

// Forward implements Layer.
func (g *GlobalAvgPool) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if x.Cols != g.Channels*g.Plane {
		panic(fmt.Sprintf("nn: GlobalAvgPool got width %d, want %d", x.Cols, g.Channels*g.Plane))
	}
	g.out = ensure(g.out, x.Rows, g.Channels)
	inv := 1 / float64(g.Plane)
	for r := 0; r < x.Rows; r++ {
		row := x.Row(r)
		out := g.out.Row(r)
		for c := 0; c < g.Channels; c++ {
			var sum float64
			for _, v := range row[c*g.Plane : (c+1)*g.Plane] {
				sum += v
			}
			out[c] = sum * inv
		}
	}
	return g.out
}

// Backward implements Layer.
func (g *GlobalAvgPool) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	g.gin = ensure(g.gin, gradOut.Rows, g.Channels*g.Plane)
	inv := 1 / float64(g.Plane)
	for r := 0; r < gradOut.Rows; r++ {
		grow := gradOut.Row(r)
		irow := g.gin.Row(r)
		for c := 0; c < g.Channels; c++ {
			gv := grow[c] * inv
			for p := 0; p < g.Plane; p++ {
				irow[c*g.Plane+p] = gv
			}
		}
	}
	return g.gin
}

// Params implements Layer.
func (g *GlobalAvgPool) Params() []Param { return nil }

// Clone implements Layer.
func (g *GlobalAvgPool) Clone() Layer {
	return &GlobalAvgPool{Channels: g.Channels, Plane: g.Plane}
}
