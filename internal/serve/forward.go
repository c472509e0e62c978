package serve

import (
	"fmt"

	"phideep/internal/blas"
	"phideep/internal/device"
	"phideep/internal/kernels"
	"phideep/internal/parallel"
	"phideep/internal/tensor"
)

// This file holds the forward program every served model compiles to: an
// ordered node list over a parameter table, in the per-layer shape CHAOS
// (Viebke et al.) uses to structure CNN execution. Each Dense or Conv node
// is the paper's fused inference step (§IV.B.2 loop combining): a GEMM,
// the bias add and the activation. Two plain loops execute the list — the
// f64 one on a blas.Context (the simulated device, charging sim time) and
// the f32 one on the packed host kernels.

// act is the activation closing a Dense or Conv node.
type act uint8

const (
	identity act = iota
	sigmoid
	softmax
)

// nodeKind discriminates the three forward steps.
type nodeKind uint8

const (
	// dense is out = act(in·W + b), or act(in·Wᵀ + b) with transB.
	dense nodeKind = iota
	// conv is im2col of the NHWC input followed by a dense step on the
	// patch matrix; its output keeps the lowered GEMM's (oH·oW)×F rows
	// per image.
	conv
	// pool is the per-channel window maximum.
	pool
)

// node is one forward step. Dense and Conv name their weight and bias by
// index into program.params, so a tied decoder reuses the encoder's W.
type node struct {
	kind   nodeKind
	w, b   int
	transB bool
	act    act
	conv   kernels.ConvShape
	pool   kernels.PoolShape
}

// program is a model's whole forward pass. params holds each weight
// matrix once, biases as 1×n rows; it is immutable after construction.
type program struct {
	in     int
	params []*tensor.Matrix
	nodes  []node
}

// addParam appends m to the parameter table and returns its index.
func (p *program) addParam(m *tensor.Matrix) int {
	p.params = append(p.params, m)
	return len(p.params) - 1
}

// shape returns node i's per-example output shape (rows×cols) and the
// per-example shape of its device scratch: the im2col patch matrix for
// Conv, the argmax indices for Pool, none for Dense.
func (p *program) shape(i int) (out, aux [2]int) {
	nd := p.nodes[i]
	switch nd.kind {
	case conv:
		hw := nd.conv.OutH() * nd.conv.OutW()
		return [2]int{hw, nd.conv.F}, [2]int{hw, nd.conv.ColK()}
	case pool:
		return [2]int{1, nd.pool.OutDim()}, [2]int{1, nd.pool.OutDim()}
	default:
		w := p.params[nd.w]
		if nd.transB {
			return [2]int{1, w.Rows}, [2]int{}
		}
		return [2]int{1, w.Cols}, [2]int{}
	}
}

// width is the per-example output length of the first n nodes.
func (p *program) width(n int) int {
	out, _ := p.shape(n - 1)
	return out[0] * out[1]
}

// DeviceForward is a served model's forward program resident on one
// simulated device: its parameters uploaded once, plus per-node
// workspaces sized for maxBatch examples whose row views serve partial
// batches. Every Dense and Conv node runs as one MaybeFused region, so
// the device sees the same kernel sequence — and charges the same
// simulated time — as the training model's forward pass. On a numeric
// device at a blocked level the GEMMs read the model's pre-packed f64
// weight panels (Context.GemmPacked) instead of re-packing the uploaded
// weights every batch; the charge and the answers are unchanged. Not safe
// for concurrent use.
type DeviceForward struct {
	ctx      *blas.Context
	prog     *program
	maxBatch int
	params   []*device.Buffer
	packed   []*kernels.PackedB[float64] // per node; nil when not packed
	out, aux []*device.Buffer            // per node; aux is nil for Dense
}

// NewDeviceForward uploads m's parameters to ctx's device and allocates
// the workspaces for up to maxBatch examples.
func NewDeviceForward(ctx *blas.Context, m *Model, maxBatch int) (*DeviceForward, error) {
	if maxBatch <= 0 {
		return nil, fmt.Errorf("serve: non-positive batch %d", maxBatch)
	}
	p := &m.prog
	f := &DeviceForward{ctx: ctx, prog: p, maxBatch: maxBatch,
		out: make([]*device.Buffer, len(p.nodes)), aux: make([]*device.Buffer, len(p.nodes))}
	dev := ctx.Dev
	var err error
	alloc := func(r, c int) *device.Buffer {
		if err != nil {
			return nil
		}
		var b *device.Buffer
		b, err = dev.Alloc(r, c)
		return b
	}
	for _, w := range p.params {
		f.params = append(f.params, alloc(w.Rows, w.Cols))
	}
	for i := range p.nodes {
		out, aux := p.shape(i)
		f.out[i] = alloc(maxBatch*out[0], out[1])
		if aux[0] > 0 {
			f.aux[i] = alloc(maxBatch*aux[0], aux[1])
		}
	}
	if err != nil {
		f.Free()
		return nil, err
	}
	for i, w := range p.params {
		if !dev.Numeric {
			w = nil
		}
		dev.CopyIn(f.params[i], w, 0)
	}
	if dev.Numeric && ctx.Level.IsBlocked() {
		f.packed = m.panels64()
	}
	return f, nil
}

// Infer runs the whole program on 1..maxBatch examples (one per row of x)
// and returns the output as a view of the last workspace, valid until the
// next call.
func (f *DeviceForward) Infer(x *device.Buffer) *device.Buffer {
	return f.run(x, len(f.prog.nodes))
}

// run executes the first upto nodes on x.
func (f *DeviceForward) run(x *device.Buffer, upto int) *device.Buffer {
	n := x.Rows
	if n < 1 || n > f.maxBatch || x.Cols != f.prog.in {
		panic(fmt.Sprintf("serve: forward input %dx%d, want 1..%d rows of width %d", x.Rows, x.Cols, f.maxBatch, f.prog.in))
	}
	ctx := f.ctx
	in := x
	for i, nd := range f.prog.nodes[:upto] {
		o, a := f.prog.shape(i)
		out := rowsOf(f.out[i], n*o[0])
		switch nd.kind {
		case conv:
			cols := rowsOf(f.aux[i], n*a[0])
			ctx.Im2col(nd.conv, n, in, cols)
			f.layer(i, cols, out)
		case pool:
			ctx.MaxPool(nd.pool, n, in, out, rowsOf(f.aux[i], n*a[0]))
		default:
			f.layer(i, in, out)
		}
		in = out
	}
	return in
}

// layer is node i's fused GEMM + bias + activation region.
func (f *DeviceForward) layer(i int, in, out *device.Buffer) {
	ctx := f.ctx
	nd := f.prog.nodes[i]
	ctx.MaybeFused(func() {
		// Context fields may be adjusted after construction, so the
		// level is checked per launch: packed panels need a blocked one.
		if f.packed != nil && ctx.Level.IsBlocked() {
			ctx.GemmPacked(false, nd.transB, 1, in, f.params[nd.w], f.packed[i], 0, out)
		} else {
			ctx.Gemm(false, nd.transB, 1, in, f.params[nd.w], 0, out)
		}
		ctx.AddBiasRow(out, f.params[nd.b])
		switch nd.act {
		case sigmoid:
			ctx.Sigmoid(out, out)
		case softmax:
			ctx.SoftmaxRows(out, out)
		}
	})
}

// rowsOf returns the first rows rows of a workspace: b itself when they
// are all of it, else a row view.
func rowsOf(b *device.Buffer, rows int) *device.Buffer {
	if rows == b.Rows {
		return b
	}
	return b.Slice(0, rows)
}

// Free releases every device buffer.
func (f *DeviceForward) Free() {
	for _, bs := range [][]*device.Buffer{f.params, f.out, f.aux} {
		for _, b := range bs {
			if b != nil {
				f.ctx.Dev.Free(b)
			}
		}
	}
}

// hostForward runs a program in float32 on the packed host kernels, over
// the model's shared f32 weight snapshot with private per-node workspaces
// sized for maxBatch examples. At the blocked levels the GEMMs read the
// model's shared pre-packed f32 panels; Naive and Parallel multiply the
// unpacked weights. Not safe for concurrent use.
type hostForward struct {
	prog      *program
	params    []*tensor.Matrix32
	packed    []*kernels.PackedB[float32] // per node; nil when not packed
	pool      *parallel.Pool
	lvl       kernels.Level
	out, cols []*tensor.Matrix32 // per node; cols only for Conv
}

func newHostForward(m *Model, pool *parallel.Pool, lvl kernels.Level, maxBatch int) *hostForward {
	p := &m.prog
	h := &hostForward{prog: p, params: m.weights32(), pool: pool, lvl: lvl,
		out: make([]*tensor.Matrix32, len(p.nodes)), cols: make([]*tensor.Matrix32, len(p.nodes))}
	if lvl.IsBlocked() {
		h.packed = m.panels32()
	}
	for i, nd := range p.nodes {
		out, aux := p.shape(i)
		h.out[i] = tensor.NewMat[float32](maxBatch*out[0], out[1])
		if nd.kind == conv {
			h.cols[i] = tensor.NewMat[float32](maxBatch*aux[0], aux[1])
		}
	}
	return h
}

// run executes the first upto nodes on x (1..maxBatch rows) and returns a
// view of the last workspace, valid until the next call.
func (h *hostForward) run(x *tensor.Matrix32, upto int) *tensor.Matrix32 {
	n := x.Rows
	in := x
	for i, nd := range h.prog.nodes[:upto] {
		o, a := h.prog.shape(i)
		out := h.out[i].RowsView(0, n*o[0])
		switch nd.kind {
		case conv:
			cols := h.cols[i].RowsView(0, n*a[0])
			kernels.Im2col(h.pool, h.lvl, nd.conv, n, in, cols)
			h.layer(i, cols, out)
		case pool:
			kernels.MaxPool(h.pool, h.lvl, nd.pool, n, in, out, nil)
		default:
			h.layer(i, in, out)
		}
		in = out
	}
	return in
}

// layer is node i's f32 GEMM + bias + activation step.
func (h *hostForward) layer(i int, in, out *tensor.Matrix32) {
	nd := h.prog.nodes[i]
	if h.packed != nil {
		kernels.GemmPacked(h.pool, h.lvl, false, 1, in, h.packed[i], 0, out)
	} else {
		kernels.Gemm(h.pool, h.lvl, false, nd.transB, 1, in, h.params[nd.w], 0, out)
	}
	kernels.AddBiasRow(h.pool, h.lvl, out, h.params[nd.b].RowView(0))
	switch nd.act {
	case sigmoid:
		kernels.Sigmoid(h.pool, h.lvl, out, out)
	case softmax:
		kernels.SoftmaxRows(h.pool, h.lvl, out, out)
	}
}
