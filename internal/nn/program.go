package nn

import (
	"fmt"

	"eugene/internal/tensor"
)

// The inference engine. A layer tree is what training builds and
// differentiates; serving never runs it. Compile flattens a trained
// tree, once, into a Program — a flat op list over the weights at
// element type T — and every decision about what inference does is
// taken there and nowhere else: a ReLU is fused into the op before it,
// a residual block whose body ends in a bias-only Dense becomes that
// Dense with the block's input as its residual operand, inference-
// identity Dropout disappears, nested Sequentials are inlined. A dense
// op is then one call — tensor.Dense computes x·W + b, the shortcut
// and the ReLU in a single pass over the output — so a residual block
// of the staged models is two kernel calls and no element-wise pass.
//
// Scratch is assigned at compile time by liveness: every op writes a
// slot, the lowest one whose value no later op reads, and a residual's
// input stays live through its body. A staged-model stage needs three
// slots whatever its depth, and ShareScratch lets the programs one
// goroutine runs in turn (a frozen model's stem, bodies and heads) keep
// them in one set of three buffers. A program never writes its weights
// and its op list is fixed at Compile, so clones for concurrent workers
// share both; only scratch is per clone.
//
// The float64 program aliases the tree's own weight buffers (no copy: a
// published model is immutable, and a model still being trained sees
// its optimizer steps served). The float32 program repacks them, halving
// weight traffic and doubling SIMD lanes.

// op kinds.
const (
	opDense = iota // x·W + b, plus a residual operand, optionally fused ReLU
	opAdd          // a residual sum the dense epilogue cannot take, optionally fused ReLU
	opReLU         // standalone max(0, x) (no fusable predecessor)
)

// Operand references besides a slot number.
const (
	fromInput = -1 // the program's input
	noOperand = -2 // a dense op without a residual
)

// op is one step of a compiled program. Weight buffers (w, b) are shared
// across clones and never written by the program; in, res and out name
// scratch slots, counted from the slot the program's input occupies.
type op[T tensor.Float] struct {
	kind int
	w    *tensor.Mat[T] // dense: In×Out weights
	b    []T            // dense: bias
	relu bool           // fuse ReLU after this op's output
	in   int            // operand
	res  int            // dense: residual operand or noOperand; add: the shortcut
	out  int            // result slot
}

// Program is a layer tree compiled for inference at element type T: a
// sequence of dense/add/ReLU ops over scratch slots. A Program owns its
// scratch (or shares it, see ShareScratch) and must be driven from a
// single goroutine; Clone (cheap — weights and ops are shared) gives each
// worker its own.
type Program[T tensor.Float] struct {
	In  int
	Out int
	ops []op[T]
	// slots is how many scratch buffers Forward uses.
	slots int
	scr   *scratch[T]
}

// scratch holds the activation buffers of the programs that share it,
// each lazily sized per batch.
type scratch[T tensor.Float] struct{ bufs []*tensor.Mat[T] }

// Compile flattens a trained layer tree into a program at T. in is the
// tree's input width; the returned program's Out is its verified output
// width. Two inputs are rejected: layer types with no op, and
// Monte-Carlo dropout, which samples masks per forward pass and runs on
// the tree (Forward, staged.Model.Predict/PredictRows).
func Compile[T tensor.Float](root Layer, in int) (*Program[T], error) {
	if in < 1 {
		return nil, fmt.Errorf("nn: Compile input width %d must be positive", in)
	}
	c := compiler[T]{}
	v, out, err := c.compile(root, in, 0, 0)
	if err != nil {
		return nil, err
	}
	p := &Program[T]{In: in, Out: out, ops: c.ops}
	p.slots = assignSlots(p.ops, v)
	p.scr = &scratch[T]{bufs: make([]*tensor.Mat[T], p.slots)}
	return p, nil
}

// compiler builds the op list in value form: value 0 is the program's
// input and op i defines value i+1, which its in and res fields name
// until assignSlots turns values into slots.
type compiler[T tensor.Float] struct{ ops []op[T] }

// compile appends root's ops, reading value v of width in, and returns
// the value and width of its result. A ReLU fuses only into ops at or
// after fence: a residual body's first ReLU must not change the value
// its shortcut adds.
func (c *compiler[T]) compile(root Layer, in, v, fence int) (int, int, error) {
	switch l := root.(type) {
	case *Dense:
		if l.In != in {
			return 0, 0, fmt.Errorf("nn: Compile dense expects width %d, got %d", l.In, in)
		}
		if l.W == nil || l.W.Rows != l.In || l.W.Cols != l.Out || len(l.B) != l.Out {
			return 0, 0, fmt.Errorf("nn: Compile dense %d→%d has inconsistent buffers", l.In, l.Out)
		}
		w, b := weightsAt[T](l)
		return c.emit(op[T]{kind: opDense, w: w, b: b, in: v, res: noOperand}), l.Out, nil
	case *ReLU:
		// Fuse into the dense or add op that produced v, unless it is
		// before the fence; otherwise a standalone op.
		if n := len(c.ops); n > fence && n == v && c.ops[n-1].kind != opReLU && !c.ops[n-1].relu {
			c.ops[n-1].relu = true
			return v, in, nil
		}
		return c.emit(op[T]{kind: opReLU, in: v}), in, nil
	case *Dropout:
		if l.MC {
			return 0, 0, fmt.Errorf("nn: Compile does not support Monte-Carlo dropout (it runs on the layer tree only)")
		}
		// Plain dropout is the identity at inference.
		return v, in, nil
	case *Residual:
		start := len(c.ops)
		u, out, err := c.compile(l.Body, in, v, start)
		if err != nil {
			return 0, 0, err
		}
		if out != in {
			return 0, 0, fmt.Errorf("nn: Compile residual body maps %d→%d, needs matching widths", in, out)
		}
		// A body ending in a bias-only Dense takes the shortcut in its
		// epilogue: (s + b) + x is x + (s + b), bit for bit.
		if n := len(c.ops); n > start && n == u {
			if last := &c.ops[n-1]; last.kind == opDense && !last.relu && last.res == noOperand {
				last.res = v
				return u, in, nil
			}
		}
		return c.emit(op[T]{kind: opAdd, in: u, res: v}), in, nil
	case *Sequential:
		var err error
		w := in
		for i, layer := range l.Layers {
			if v, w, err = c.compile(layer, w, v, fence); err != nil {
				return 0, 0, fmt.Errorf("nn: sequential layer %d: %w", i, err)
			}
		}
		return v, w, nil
	default:
		return 0, 0, fmt.Errorf("nn: Compile does not support layer type %T", root)
	}
}

// emit appends o and returns the value it defines.
func (c *compiler[T]) emit(o op[T]) int {
	c.ops = append(c.ops, o)
	return len(c.ops)
}

// assignSlots turns the ops' value operands into scratch slots and
// returns how many slots there are. The input holds slot 0 until its
// last reader; each op then writes the lowest slot whose value no op
// from it on reads (never one of its own operands), and result, the
// program's output, stays live to the end. A reference to the input
// becomes fromInput, so that Forward reads the caller's matrix.
func assignSlots[T tensor.Float](ops []op[T], result int) int {
	last := make([]int, len(ops)+1) // value → index of its last reader
	for i := range ops {
		last[ops[i].in] = i
		if ops[i].res >= 0 {
			last[ops[i].res] = i
		}
	}
	last[result] = len(ops)
	slotOf := make([]int, len(ops)+1)
	holder := []int{0} // slot → the value in it
	ref := func(v int) int {
		if v == 0 {
			return fromInput
		}
		return slotOf[v]
	}
	for i := range ops {
		o := &ops[i]
		s := 0
		for s < len(holder) && last[holder[s]] >= i {
			s++
		}
		if s == len(holder) {
			holder = append(holder, 0)
		}
		holder[s] = i + 1
		slotOf[i+1] = s
		o.in = ref(o.in)
		if o.res >= 0 {
			o.res = ref(o.res)
		}
		o.out = s
	}
	return len(holder)
}

// weightsAt returns l's parameters at T: the layer's own buffers when T
// is their type (float64), a packed converted copy otherwise.
func weightsAt[T tensor.Float](l *Dense) (*tensor.Mat[T], []T) {
	if w, ok := any(l.W).(*tensor.Mat[T]); ok {
		return w, any(l.B).([]T)
	}
	w, b := tensor.New[T](l.In, l.Out), make([]T, l.Out)
	tensor.Convert(w.Data, l.W.Data)
	tensor.Convert(b, l.B)
	return w, b
}

// Forward runs the program on batch x (one sample per row) and returns
// the output batch. The result aliases program scratch, valid until the
// next Forward of any program sharing it. x is only read — unless it is
// the result of a program sharing this one's scratch, in which case the
// program computes in place of it: its slots are counted from x's
// buffer, and x's buffer is free for reuse once its last reader ran.
func (p *Program[T]) Forward(x *tensor.Mat[T]) *tensor.Mat[T] {
	if x.Cols != p.In {
		panic(fmt.Sprintf("nn: Program(%d→%d) got input width %d", p.In, p.Out, x.Cols))
	}
	if len(p.ops) == 0 {
		return x
	}
	bufs := p.scr.bufs
	base := 0
	for i, b := range bufs {
		if b == x {
			base = i
			break
		}
	}
	var out *tensor.Mat[T]
	for i := range p.ops {
		op := &p.ops[i]
		in := operand(bufs, x, base, op.in)
		cols := in.Cols
		if op.kind == opDense {
			cols = op.w.Cols
		}
		s := (op.out + base) % len(bufs)
		bufs[s] = tensor.Ensure(bufs[s], x.Rows, cols)
		out = bufs[s]
		switch op.kind {
		case opDense:
			var res *tensor.Mat[T]
			if op.res != noOperand {
				res = operand(bufs, x, base, op.res)
			}
			tensor.Dense(out, in, op.w, op.b, res, op.relu)
		case opAdd:
			if op.relu {
				tensor.AddReLU(out, operand(bufs, x, base, op.res), in)
			} else {
				tensor.Add(out, operand(bufs, x, base, op.res), in)
			}
		case opReLU:
			tensor.ReLU(out, in)
		}
	}
	return out
}

// operand is the matrix an op reference names in a Forward whose slots
// start at buffer base.
func operand[T tensor.Float](bufs []*tensor.Mat[T], x *tensor.Mat[T], base, ref int) *tensor.Mat[T] {
	if ref == fromInput {
		return x
	}
	return bufs[(ref+base)%len(bufs)]
}

// Weights returns the weight matrices Forward reads, in op order: the
// buffers themselves, which every Clone shares (and, at float64, the
// compiled tree). Read-only.
func (p *Program[T]) Weights() []*tensor.Mat[T] {
	var ws []*tensor.Mat[T]
	for i := range p.ops {
		if p.ops[i].w != nil {
			ws = append(ws, p.ops[i].w)
		}
	}
	return ws
}

// Clone returns a program sharing the weights and ops with fresh
// scratch, for use by another goroutine.
func (p *Program[T]) Clone() *Program[T] {
	return &Program[T]{In: p.In, Out: p.Out, ops: p.ops, slots: p.slots,
		scr: &scratch[T]{bufs: make([]*tensor.Mat[T], p.slots)}}
}

// ShareScratch gives ps one set of scratch buffers, as many as the most
// any of them uses, in place of their own. The programs must then run
// one at a time, on one goroutine, and a result is valid only until the
// next Forward of any of them — except as that Forward's input, which
// it reads before it reuses the buffer.
func ShareScratch[T tensor.Float](ps ...*Program[T]) {
	n := 0
	for _, p := range ps {
		n = max(n, p.slots)
	}
	s := &scratch[T]{bufs: make([]*tensor.Mat[T], n)}
	for _, p := range ps {
		p.scr = s
	}
}
