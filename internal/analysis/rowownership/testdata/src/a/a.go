package a

type model struct{ w []float64 }

// model.ExecStageBatch seeds both violation kinds: a direct write
// through hidden and a copy through an alias, neither under a stage
// guard.
func (m *model) ExecStageBatch(hidden [][]float64, stage int, dst [][]float64) ([][]float64, []int) {
	for i := range hidden {
		row := hidden[i]
		if stage > 0 {
			copy(row, m.w) // guarded reuse: legal
		}
		hidden[i][0] = 1 // want `element write may modify a stage-0 input row`
		copy(row, m.w)   // want `copy into may modify a stage-0 input row`
	}
	return hidden, nil
}

type frozen struct{ w []float64 }

// frozen.ExecStageBatch is the repo's legal in-place reuse shape
// (staged/runner.go): every path either re-slices under a stage > 0
// guard or re-binds the alias to a non-input row before writing.
func (f *frozen) ExecStageBatch(hidden [][]float64, stage int, dst [][]float64) ([][]float64, []int) {
	out := make([][]float64, len(hidden))
	slab := make([]float64, 4)
	for i := range hidden {
		row := hidden[i]
		switch {
		case stage > 0 && cap(row) >= 4:
			row = row[:4]
		case i < len(dst) && cap(dst[i]) >= 4:
			row = dst[i][:4]
		default:
			row = slab[:4:4]
		}
		copy(row, f.w)
		out[i] = row
	}
	return out, nil
}

type bad struct{ w []float64 }

// bad.ExecStageBatch is frozen's reuse switch with the stage > 0 guard
// dropped — the pre-fix shape the contract exists to prevent: at stage
// 0 the in-place branch scribbles on a caller-retained request input.
func (b *bad) ExecStageBatch(hidden [][]float64, stage int, dst [][]float64) ([][]float64, []int) {
	out := make([][]float64, len(hidden))
	for i := range hidden {
		row := hidden[i]
		if cap(row) >= 4 {
			row = row[:4]
		} else {
			row = make([]float64, 4)
		}
		copy(row, b.w) // want `copy into may modify a stage-0 input row`
		out[i] = row
	}
	return out, nil
}

// engine is the shape the repo's one ExecStageBatch has since the f64
// and f32 engines merged: a method on a generic receiver whose row
// writes go through a generic convert(dst, src). Both must stay visible.
type engine[T float32 | float64] struct{ scr []T }

func convert[D, S float32 | float64](dst []D, src []S) {
	for i, v := range src {
		dst[i] = D(v)
	}
}

func (e *engine[T]) ExecStageBatch(hidden [][]float64, stage int, dst [][]float64) ([][]float64, []int) {
	out := make([][]float64, len(hidden))
	for i := range hidden {
		row := hidden[i]
		convert(e.scr, row) // reading an input row: legal
		switch {
		case stage > 0 && cap(row) >= 4:
			row = row[:4]
		case i < len(dst) && cap(dst[i]) >= 4:
			row = dst[i][:4]
		default:
			row = make([]float64, 4)
		}
		convert(row, e.scr) // every path re-bound or guarded: legal
		out[i] = row
	}
	for _, row := range hidden {
		convert(row, e.scr)             // want `passing as dst to convert may modify a stage-0 input row`
		convert[float64, T](row, e.scr) // want `passing as dst to convert may modify a stage-0 input row`
	}
	return out, nil
}

// caller hands rows over and then writes through them: the executor's
// arenas may still reference every one of those rows.
func caller(m *model, rows [][]float64) {
	m.ExecStageBatch(rows, 0, nil)
	rows[0][0] = 2 // want `write to a row of rows after passing it to ExecStageBatch`
}
