package serve

import (
	"bytes"
	"fmt"
	"io"
	"sync"

	"phideep/internal/autoencoder"
	"phideep/internal/convnet"
	"phideep/internal/core"
	"phideep/internal/kernels"
	"phideep/internal/mlp"
	"phideep/internal/rbm"
	"phideep/internal/tensor"
)

// Model is an immutable, host-side snapshot of a trained model ready to be
// served, compiled to a forward program. The constructors deep-copy the
// parameters (copy-on-load), so the source — a live training run, a
// checkpoint buffer — can keep mutating without racing the server.
// Workers upload the snapshot into their private devices (or share its
// f32 rounding) at startup and never write it.
//
// Each operation runs a prefix of the node list: Encode the first node,
// Reconstruct and Predict the whole list. Adding a model kind means one
// constructor below.
type Model struct {
	kind string
	// invalid is the config's validation error, reported by New.
	invalid error
	prog    program
	// prefix maps an op to the number of leading nodes answering it;
	// 0 marks an op the model does not support.
	prefix [numOps]int
	// host answers one request with the scalar host reference — the
	// Degrade path. Bit-identical to the device path at core.Baseline;
	// toleranced (≈1e-12 relative) against the blocked levels, which
	// reorder the reduction.
	host func(op Op, x, out []float64)

	// The float32 rounding of prog.params for Precision F32, converted by
	// the first worker that needs it and shared read-only by every
	// reduced-precision worker.
	once32 sync.Once
	w32    []*tensor.Matrix32

	// Each Dense and Conv node's op(W) packed once into the micro-kernel
	// panel layout, for workers at the blocked levels: f32 panels for the
	// host loop, f64 panels for numeric devices. Indexed by node (nil for
	// Pool), so a tied decoder's W1ᵀ has panels of its own. Packed by the
	// first worker that needs them and shared read-only.
	oncePB32, oncePB64 sync.Once
	pb32               []*kernels.PackedB[float32]
	pb64               []*kernels.PackedB[float64]
}

// weights32 rounds the parameters to float32 once; later calls are free.
func (m *Model) weights32() []*tensor.Matrix32 {
	m.once32.Do(func() {
		for _, w := range m.prog.params {
			m.w32 = append(m.w32, w.To32())
		}
	})
	return m.w32
}

// panels32 packs every node's f32 weight once; later calls are free.
func (m *Model) panels32() []*kernels.PackedB[float32] {
	m.oncePB32.Do(func() { m.pb32 = packNodes(m.prog.nodes, m.weights32()) })
	return m.pb32
}

// panels64 packs every node's f64 weight once; later calls are free.
func (m *Model) panels64() []*kernels.PackedB[float64] {
	m.oncePB64.Do(func() { m.pb64 = packNodes(m.prog.nodes, m.prog.params) })
	return m.pb64
}

// packNodes packs op(W) of every Dense and Conv node from params.
func packNodes[T tensor.Float](nodes []node, params []*tensor.Mat[T]) []*kernels.PackedB[T] {
	pbs := make([]*kernels.PackedB[T], len(nodes))
	for i, nd := range nodes {
		if nd.kind != pool {
			pbs[i] = kernels.PackB(params[nd.w], nd.transB)
		}
	}
	return pbs
}

// denseNode is a Dense step over parameters w and b.
func denseNode(w, b int, transB bool, a act) node {
	return node{kind: dense, w: w, b: b, transB: transB, act: a}
}

// Autoencoder wraps autoencoder parameters for serving (Encode and
// Reconstruct). p is deep-copied; nil initializes fresh parameters from
// cfg.Seed (useful for load tests without a training run).
func Autoencoder(cfg autoencoder.Config, p *autoencoder.Params) *Model {
	if p == nil {
		p = autoencoder.NewParams(cfg, cfg.Seed)
	} else {
		p = p.Clone()
	}
	return autoencoderModel(cfg, p)
}

// autoencoderModel compiles y = σ(x·W1 + b1), z = σ(y·W2 + b2); a tied
// decoder multiplies by W1ᵀ instead.
func autoencoderModel(cfg autoencoder.Config, p *autoencoder.Params) *Model {
	m := &Model{kind: "autoencoder", invalid: cfg.Validate(), prefix: [numOps]int{OpEncode: 1, OpReconstruct: 2}}
	m.prog.in = cfg.Visible
	w1, b1 := m.prog.addParam(p.W1), m.prog.addParam(p.B1.AsRow())
	w2 := w1
	if !cfg.Tied {
		w2 = m.prog.addParam(p.W2)
	}
	b2 := m.prog.addParam(p.B2.AsRow())
	m.prog.nodes = []node{denseNode(w1, b1, false, sigmoid), denseNode(w2, b2, cfg.Tied, sigmoid)}
	m.host = func(op Op, x, out []float64) {
		if op == OpEncode {
			p.Encode(x, out)
		} else {
			p.Reconstruct(x, out, cfg.Tied)
		}
	}
	return m
}

// RBM wraps RBM parameters for serving (Encode and mean-field
// Reconstruct). p is deep-copied; nil initializes from cfg.Seed.
func RBM(cfg rbm.Config, p *rbm.Params) *Model {
	if p == nil {
		p = rbm.NewParams(cfg, cfg.Seed)
	} else {
		p = p.Clone()
	}
	return rbmModel(cfg, p)
}

// rbmModel compiles the deterministic mean-field round trip h = σ(x·W + c),
// v = σ(h·Wᵀ + b), with linear visibles for a Gaussian RBM.
func rbmModel(cfg rbm.Config, p *rbm.Params) *Model {
	m := &Model{kind: "rbm", invalid: cfg.Validate(), prefix: [numOps]int{OpEncode: 1, OpReconstruct: 2}}
	m.prog.in = cfg.Visible
	w, b, c := m.prog.addParam(p.W), m.prog.addParam(p.B.AsRow()), m.prog.addParam(p.C.AsRow())
	vis := sigmoid
	if cfg.GaussianVisible {
		vis = identity
	}
	m.prog.nodes = []node{denseNode(w, c, false, sigmoid), denseNode(w, b, true, vis)}
	m.host = func(op Op, x, out []float64) {
		if op == OpEncode {
			p.Encode(x, out)
		} else {
			p.Reconstruct(x, out, cfg.GaussianVisible)
		}
	}
	return m
}

// MLP wraps classifier parameters for serving (Predict). p is deep-copied;
// nil initializes from cfg.Seed.
func MLP(cfg mlp.Config, p *mlp.Params) *Model {
	if p == nil {
		p = mlp.NewParams(cfg, cfg.Seed)
	} else {
		c := mlp.NewParams(cfg, 0)
		for l := range p.W {
			c.W[l] = p.W[l].Clone()
			c.B[l] = p.B[l].Clone()
		}
		p = c
	}
	return mlpModel(cfg, p)
}

// mlpModel compiles sigmoid hidden layers and a softmax head.
func mlpModel(cfg mlp.Config, p *mlp.Params) *Model {
	m := &Model{kind: "mlp", invalid: cfg.Validate()}
	if m.invalid != nil {
		return m
	}
	m.prog.in = cfg.Sizes[0]
	for l := range p.W {
		a := sigmoid
		if l == len(p.W)-1 {
			a = softmax
		}
		m.prog.nodes = append(m.prog.nodes, denseNode(m.prog.addParam(p.W[l]), m.prog.addParam(p.B[l].AsRow()), false, a))
	}
	m.prefix[OpPredict] = len(m.prog.nodes)
	m.host = func(_ Op, x, out []float64) { copy(out, p.PredictProbs(cfg, x)) }
	return m
}

// Convnet wraps convolutional-classifier parameters for serving (Predict).
// p is deep-copied; nil initializes from cfg.Seed.
func Convnet(cfg convnet.Config, p *convnet.Params) *Model {
	if p == nil {
		p = convnet.NewParams(cfg, cfg.Seed)
	} else {
		p = p.Clone()
	}
	return convnetModel(cfg, p)
}

// convnetModel compiles conv → pool → conv → pool → softmax, the same
// im2col lowering the training model runs.
func convnetModel(cfg convnet.Config, p *convnet.Params) *Model {
	m := &Model{kind: "convnet", invalid: cfg.Validate()}
	m.prog.in = cfg.InputDim()
	pr := &m.prog
	m.prog.nodes = []node{
		{kind: conv, conv: cfg.Conv1Shape(), w: pr.addParam(p.Conv1.W), b: pr.addParam(p.Conv1.B.AsRow()), act: sigmoid},
		{kind: pool, pool: cfg.Pool1Shape()},
		{kind: conv, conv: cfg.Conv2Shape(), w: pr.addParam(p.Conv2.W), b: pr.addParam(p.Conv2.B.AsRow()), act: sigmoid},
		{kind: pool, pool: cfg.Pool2Shape()},
		denseNode(pr.addParam(p.W3), pr.addParam(p.B3.AsRow()), false, softmax),
	}
	m.prefix[OpPredict] = len(m.prog.nodes)
	m.host = func(_ Op, x, out []float64) { copy(out, p.PredictProbs(cfg, x)) }
	return m
}

// fromCheckpoint loads a model from a PHCK checkpoint written by
// core.Trainer or phitrain. The checkpoint stores only the flat parameter
// data, so cfg must describe the geometry it was trained with; the
// trainer's RNG state that follows the parameters is not needed.
func fromCheckpoint[C any, P interface{ Load(io.Reader) error }](path string, cfg C, alloc func(C, uint64) P, compile func(C, P) *Model) (*Model, error) {
	c, err := core.ReadCheckpoint(path)
	if err != nil {
		return nil, err
	}
	p := alloc(cfg, 0)
	if err := p.Load(bytes.NewReader(c.Model)); err != nil {
		return nil, fmt.Errorf("serve: checkpoint %s: %w", path, err)
	}
	return compile(cfg, p), nil
}

// AutoencoderFromCheckpoint loads autoencoder parameters from a PHCK
// checkpoint.
func AutoencoderFromCheckpoint(cfg autoencoder.Config, path string) (*Model, error) {
	return fromCheckpoint(path, cfg, autoencoder.NewParams, autoencoderModel)
}

// RBMFromCheckpoint loads RBM parameters from a PHCK checkpoint.
func RBMFromCheckpoint(cfg rbm.Config, path string) (*Model, error) {
	return fromCheckpoint(path, cfg, rbm.NewParams, rbmModel)
}

// MLPFromCheckpoint loads classifier parameters from a PHCK checkpoint.
func MLPFromCheckpoint(cfg mlp.Config, path string) (*Model, error) {
	return fromCheckpoint(path, cfg, mlp.NewParams, mlpModel)
}

// ConvnetFromCheckpoint loads convnet parameters from a PHCK checkpoint.
func ConvnetFromCheckpoint(cfg convnet.Config, path string) (*Model, error) {
	return fromCheckpoint(path, cfg, convnet.NewParams, convnetModel)
}

// Kind names the model family: "autoencoder", "rbm", "mlp" or "convnet".
func (m *Model) Kind() string { return m.kind }

// InputDim is the expected request vector length.
func (m *Model) InputDim() int { return m.prog.in }

// OutputDim is the response vector length for op (0 for an op the model
// does not support).
func (m *Model) OutputDim(op Op) int {
	if !m.supports(op) {
		return 0
	}
	return m.prog.width(m.prefix[op])
}

// Ops lists the operations this model answers.
func (m *Model) Ops() []Op {
	var ops []Op
	for op := Op(0); op < numOps; op++ {
		if m.supports(op) {
			ops = append(ops, op)
		}
	}
	return ops
}

// supports reports whether op is valid for the model.
func (m *Model) supports(op Op) bool { return op >= 0 && op < numOps && m.prefix[op] > 0 }

// hostInfer answers one request on the calling goroutine with the scalar
// host reference. An op the model does not implement returns
// *UnsupportedOpError rather than running another op's forward pass.
func (m *Model) hostInfer(op Op, x []float64) ([]float64, error) {
	if !m.supports(op) {
		return nil, &UnsupportedOpError{Kind: m.Kind(), Op: op}
	}
	out := make([]float64, m.OutputDim(op))
	m.host(op, x, out)
	return out, nil
}
