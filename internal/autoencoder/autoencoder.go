// Package autoencoder implements the paper's Sparse Autoencoder: a
// three-layer sigmoid network trained to reconstruct its input under an L2
// weight penalty and a KL-divergence sparsity penalty (Eqs. 1–6), with the
// exact back-propagation gradient.
//
// Model is the device-resident implementation that the paper's parallel
// training engine drives: every matrix operation goes through a
// blas.Context, so the same code replays at any Table I optimization level
// on any simulated platform. Params/CostGrad in reference.go is the
// host-only reference used for gradient checking and by the batch
// optimizers.
package autoencoder

import (
	"fmt"
	"math"

	"phideep/internal/blas"
	"phideep/internal/device"
	"phideep/internal/tensor"
)

// Config holds the Sparse Autoencoder hyperparameters of Eqs. 4–5.
type Config struct {
	Visible int // input (and output) units
	Hidden  int // hidden units
	Lambda  float64
	Beta    float64
	Rho     float64
	// Batch is the minibatch size the device-resident model is built for.
	// Build requires it.
	Batch int
	// Seed initializes the parameters (and, via the context, the sampling
	// streams). Zero is a valid seed.
	Seed uint64
	// Momentum, when non-zero, applies the classical-momentum update
	// v ← µ·v − lr·∇θ, θ ← θ + v (Hinton's practical guide, the paper's
	// [15]) instead of plain SGD. Velocity buffers are allocated lazily.
	Momentum float64
	// Corruption, when non-zero, trains a denoising autoencoder: each
	// input unit is zeroed independently with this probability before the
	// forward pass, while the reconstruction target stays clean.
	Corruption float64
	// Tied shares the decoder weights with the encoder (W2 = W1ᵀ), the
	// classic weight-tying variant: half the weight memory and a combined
	// encoder+decoder gradient on W1. Params.W2 is ignored when set.
	Tied bool
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Visible <= 0 || c.Hidden <= 0 {
		return fmt.Errorf("autoencoder: non-positive layer size %d×%d", c.Visible, c.Hidden)
	}
	if c.Lambda < 0 || c.Beta < 0 {
		return fmt.Errorf("autoencoder: negative penalty weight (lambda=%g beta=%g)", c.Lambda, c.Beta)
	}
	if c.Beta > 0 && (c.Rho <= 0 || c.Rho >= 1) {
		return fmt.Errorf("autoencoder: sparsity target rho=%g outside (0,1)", c.Rho)
	}
	if c.Momentum < 0 || c.Momentum >= 1 {
		return fmt.Errorf("autoencoder: momentum %g outside [0,1)", c.Momentum)
	}
	if c.Corruption < 0 || c.Corruption >= 1 {
		return fmt.Errorf("autoencoder: corruption %g outside [0,1)", c.Corruption)
	}
	if c.Batch < 0 {
		return fmt.Errorf("autoencoder: negative batch size %d", c.Batch)
	}
	return nil
}

// Model is a Sparse Autoencoder resident on a device, with persistent
// parameter, gradient and workspace buffers — the paper keeps "all the
// parameters … in our global memory permanently [and] several temporary
// variables … to avoid unnecessary reallocation and release" (§IV.B).
type Model struct {
	Cfg   Config
	Ctx   *blas.Context
	Batch int

	// Parameters: y = σ(x·W1 + b1), z = σ(y·W2 + b2), batched over rows.
	W1 *device.Buffer // Visible×Hidden
	B1 *device.Buffer // 1×Hidden
	W2 *device.Buffer // Hidden×Visible
	B2 *device.Buffer // 1×Visible

	// Gradients, matching shapes.
	GW1, GB1, GW2, GB2 *device.Buffer

	// Workspace, sized Batch×…
	y, z, d3, d2, dY, dZ *device.Buffer
	rowH                 *device.Buffer // 1×Hidden reduction scratch

	// Velocity buffers (Momentum > 0 only).
	vW1, vB1, vW2, vB2 *device.Buffer
	// Denoising workspace (Corruption > 0 only): corrupted input and the
	// keep-mask probabilities.
	xc, mask, keepP *device.Buffer
}

// Build allocates a model for cfg.Batch examples on ctx's device and
// initializes its weights from the reference initializer with cfg.Seed
// (uploaded over PCIe once).
func Build(ctx *blas.Context, cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	batch := cfg.Batch
	if batch <= 0 {
		return nil, fmt.Errorf("autoencoder: non-positive batch size %d", batch)
	}
	m := &Model{Cfg: cfg, Ctx: ctx, Batch: batch}
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
	v, h := cfg.Visible, cfg.Hidden
	m.W1, m.B1 = alloc(v, h), alloc(1, h)
	m.B2 = alloc(1, v)
	m.GW1, m.GB1 = alloc(v, h), alloc(1, h)
	m.GB2 = alloc(1, v)
	if !cfg.Tied {
		m.W2 = alloc(h, v)
		m.GW2 = alloc(h, v)
	}
	m.y, m.dY = alloc(batch, h), alloc(batch, h)
	m.d2 = alloc(batch, h)
	m.z, m.dZ = alloc(batch, v), alloc(batch, v)
	m.d3 = alloc(batch, v)
	m.rowH = alloc(1, h)
	if cfg.Momentum > 0 {
		m.vW1, m.vB1 = alloc(v, h), alloc(1, h)
		m.vB2 = alloc(1, v)
		if !cfg.Tied {
			m.vW2 = alloc(h, v)
		}
	}
	if cfg.Corruption > 0 {
		m.xc, m.mask = alloc(batch, v), alloc(batch, v)
		m.keepP = alloc(batch, v)
	}
	if err != nil {
		m.Free() // release the buffers allocated before the failure
		return nil, err
	}
	if cfg.Corruption > 0 && dev.Numeric {
		m.keepP.Mat.Fill(1 - cfg.Corruption)
	}
	m.Upload(NewParams(cfg, cfg.Seed))
	return m, nil
}

// Free releases every device buffer of the model.
func (m *Model) Free() {
	dev := m.Ctx.Dev
	for _, b := range []*device.Buffer{m.W1, m.B1, m.W2, m.B2, m.GW1, m.GB1, m.GW2, m.GB2, m.y, m.z, m.d3, m.d2, m.dY, m.dZ, m.rowH,
		m.vW1, m.vB1, m.vW2, m.vB2, m.xc, m.mask, m.keepP} {
		if b != nil {
			dev.Free(b)
		}
	}
}

// Upload transfers host parameters into the device buffers. With tied
// weights the decoder matrix p.W2 is ignored.
func (m *Model) Upload(p *Params) {
	dev := m.Ctx.Dev
	dev.CopyIn(m.W1, p.W1, 0)
	dev.CopyIn(m.B1, p.B1.AsRow(), 0)
	if !m.Cfg.Tied {
		dev.CopyIn(m.W2, p.W2, 0)
	}
	dev.CopyIn(m.B2, p.B2.AsRow(), 0)
}

// Download copies the device parameters back to the host. On a model-only
// device the returned parameters are the zero initialization.
func (m *Model) Download() *Params {
	p := &Params{
		W1: tensor.NewMatrix(m.Cfg.Visible, m.Cfg.Hidden),
		W2: tensor.NewMatrix(m.Cfg.Hidden, m.Cfg.Visible),
		B1: tensor.NewVector(m.Cfg.Hidden),
		B2: tensor.NewVector(m.Cfg.Visible),
	}
	dev := m.Ctx.Dev
	dev.CopyOut(m.W1, p.W1)
	dev.CopyOut(m.B1, p.B1.AsRow())
	if m.Cfg.Tied {
		if dev.Numeric {
			p.W2 = p.W1.T()
		}
	} else {
		dev.CopyOut(m.W2, p.W2)
	}
	dev.CopyOut(m.B2, p.B2.AsRow())
	return p
}

// Forward runs the batched forward pass y = σ(x·W1+b1), z = σ(y·W2+b2).
// x must be Batch×Visible.
func (m *Model) Forward(x *device.Buffer) { m.forwardFrom(x) }

func (m *Model) forwardFrom(x *device.Buffer) {
	m.checkInput(x)
	ctx := m.Ctx
	// At the Improved level each layer is one fused region: the GEMM with
	// its bias-add and sigmoid epilogue (the loop combining of §IV.B.2).
	ctx.MaybeFused(func() {
		ctx.Gemm(false, false, 1, x, m.W1, 0, m.y)
		ctx.AddBiasRow(m.y, m.B1)
		ctx.Sigmoid(m.y, m.y)
	})
	ctx.MaybeFused(func() {
		if m.Cfg.Tied {
			ctx.Gemm(false, true, 1, m.y, m.W1, 0, m.z)
		} else {
			ctx.Gemm(false, false, 1, m.y, m.W2, 0, m.z)
		}
		ctx.AddBiasRow(m.z, m.B2)
		ctx.Sigmoid(m.z, m.z)
	})
}

// Backward computes the full cost gradient for the batch in GW1/GB1/GW2/GB2
// (averaged over the batch, including the λ and β terms). Forward must have
// run on the same x.
func (m *Model) Backward(x *device.Buffer) { m.backwardFrom(x, x) }

// backwardFrom back-propagates with separate encoder input and
// reconstruction target — they differ only for the denoising variant.
func (m *Model) backwardFrom(input, target *device.Buffer) {
	m.checkInput(input)
	m.checkInput(target)
	ctx := m.Ctx
	invM := 1 / float64(m.Batch)

	// Output delta: d3 = (z − target) ⊙ z(1−z) / batch.
	ctx.MaybeFused(func() {
		ctx.Sub(m.d3, m.z, target)
		ctx.SigmoidPrimeFromY(m.dZ, m.z)
		ctx.MulElem(m.d3, m.d3, m.dZ)
		ctx.Scale(invM, m.d3)
	})

	// Decoder gradients. With tied weights the decoder contribution
	// d3ᵀ·y lands directly in GW1; otherwise GW2 and GB2 are independent
	// once d3 exists (Fig. 6-style concurrency).
	if m.Cfg.Tied {
		ctx.MaybeConcurrent(func() {
			ctx.Gemm(true, false, 1, m.d3, m.y, 0, m.GW1)
			ctx.ColSums(m.d3, m.GB2)
		})
	} else {
		ctx.MaybeConcurrent(func() {
			ctx.Gemm(true, false, 1, m.y, m.d3, 0, m.GW2)
			ctx.ColSums(m.d3, m.GB2)
		})
	}

	// Hidden delta with the sparsity penalty of Eq. 5:
	// d2 = (d3·W2ᵀ + β/batch · s) ⊙ y(1−y), s_j = −ρ/ρ̂_j + (1−ρ)/(1−ρ̂_j).
	// One fused region covers the weight-decay update of GW2, the delta
	// GEMM, the derivative map and the ρ̂ reduction.
	ctx.MaybeFused(func() {
		if m.Cfg.Tied {
			ctx.Gemm(false, false, 1, m.d3, m.W1, 0, m.d2)
		} else {
			if m.Cfg.Lambda != 0 {
				ctx.Axpy(m.Cfg.Lambda, m.W2, m.GW2)
			}
			ctx.Gemm(false, true, 1, m.d3, m.W2, 0, m.d2)
		}
		ctx.SigmoidPrimeFromY(m.dY, m.y)
		if m.Cfg.Beta != 0 {
			ctx.ColSums(m.y, m.rowH)
		}
	})
	coeff := m.sparsityCoeff()
	ctx.AddKLSparsityDelta(m.d2, coeff, m.dY)

	// Encoder gradients (accumulating onto the decoder term when tied).
	encBeta := 0.0
	if m.Cfg.Tied {
		encBeta = 1
	}
	ctx.MaybeConcurrent(func() {
		ctx.Gemm(true, false, 1, input, m.d2, encBeta, m.GW1)
		ctx.ColSums(m.d2, m.GB1)
	})
	if m.Cfg.Lambda != 0 {
		ctx.Axpy(m.Cfg.Lambda, m.W1, m.GW1)
	}
	// Bias gradients carry the 1/batch already folded into d3/d2; weight
	// gradients likewise. Nothing further to scale.
}

// sparsityCoeff computes β/batch · (−ρ/ρ̂ + (1−ρ)/(1−ρ̂)) on the host from
// the column sums of the hidden activations, which Backward leaves in
// rowH (a length-Hidden reduction — the only device→host word traffic in
// the step). With β = 0 it returns zeros and the delta kernel degenerates
// to the plain derivative product.
func (m *Model) sparsityCoeff() tensor.Vector {
	coeff := tensor.NewVector(m.Cfg.Hidden)
	if m.Cfg.Beta == 0 || !m.Ctx.Dev.Numeric {
		return coeff
	}
	const eps = 1e-12
	scale := m.Cfg.Beta / float64(m.Batch)
	invM := 1 / float64(m.Batch)
	for j, sum := range m.rowH.Mat.RowView(0) {
		r := sum * invM
		r = math.Min(math.Max(r, eps), 1-eps)
		coeff[j] = scale * (-m.Cfg.Rho/r + (1-m.Cfg.Rho)/(1-r))
	}
	return coeff
}

// ApplyUpdate performs the parameter update (Eqs. 16–18 vectorized; fused
// into one parallel region at the Improved level): plain SGD θ ← θ − lr·∇θ,
// or classical momentum when Cfg.Momentum > 0.
func (m *Model) ApplyUpdate(lr float64) {
	ctx := m.Ctx
	if m.Cfg.Momentum == 0 {
		ctx.MaybeFused(func() {
			ctx.Axpy(-lr, m.GW1, m.W1)
			ctx.Axpy(-lr, m.GB1, m.B1)
			if !m.Cfg.Tied {
				ctx.Axpy(-lr, m.GW2, m.W2)
			}
			ctx.Axpy(-lr, m.GB2, m.B2)
		})
		return
	}
	mu := m.Cfg.Momentum
	pairs := []struct{ v, g, p *device.Buffer }{
		{m.vW1, m.GW1, m.W1}, {m.vB1, m.GB1, m.B1}, {m.vB2, m.GB2, m.B2},
	}
	if !m.Cfg.Tied {
		pairs = append(pairs, struct{ v, g, p *device.Buffer }{m.vW2, m.GW2, m.W2})
	}
	ctx.MaybeFused(func() {
		for _, pv := range pairs {
			ctx.Scale(mu, pv.v)
			ctx.Axpy(-lr, pv.g, pv.v)
			ctx.Axpy(1, pv.v, pv.p)
		}
	})
}

// Step runs one update on the batch x and returns the batch's average
// reconstruction error ½‖z−x‖²/batch (0 on model-only devices). With
// Corruption > 0 the forward pass and the encoder gradient see a masked
// copy of x while the reconstruction target stays clean (a denoising
// autoencoder).
func (m *Model) Step(x *device.Buffer, lr float64) float64 {
	input := x
	if m.Cfg.Corruption > 0 {
		ctx := m.Ctx
		ctx.MaybeFused(func() {
			ctx.SampleBernoulli(m.mask, m.keepP)
			ctx.MulElem(m.xc, x, m.mask)
		})
		input = m.xc
	}
	m.forwardFrom(input)
	recon := m.Ctx.SumSquaredDiff(m.z, x) / (2 * float64(m.Batch))
	m.backwardFrom(input, x)
	m.ApplyUpdate(lr)
	return recon
}

// Cost returns the full objective of Eq. 5 on the batch x: reconstruction +
// L2 + sparsity terms. Forward state is overwritten. Returns 0 on
// model-only devices.
func (m *Model) Cost(x *device.Buffer) float64 {
	m.Forward(x)
	ctx := m.Ctx
	recon := ctx.SumSquaredDiff(m.z, x) / (2 * float64(m.Batch))
	reg := m.Cfg.Lambda / 2 * ctx.SumSquares(m.W1)
	if !m.Cfg.Tied {
		reg += m.Cfg.Lambda / 2 * ctx.SumSquares(m.W2)
	}
	sparse := 0.0
	if m.Cfg.Beta > 0 {
		rhoHat := ctx.MeanActivations(m.y, m.rowH)
		sparse = m.Cfg.Beta * blas.KLDivergence(m.Cfg.Rho, rhoHat)
	}
	return recon + reg + sparse
}

// Hidden exposes the hidden-activation buffer of the last Forward — the
// "code" a trained layer feeds to the next Autoencoder in a stack (Fig. 1).
func (m *Model) Hidden() *device.Buffer { return m.y }

// Output exposes the reconstruction buffer of the last Forward.
func (m *Model) Output() *device.Buffer { return m.z }

// Gradients exposes the gradient buffers, in W1, B1, W2, B2 order.
func (m *Model) Gradients() (gw1, gb1, gw2, gb2 *device.Buffer) {
	return m.GW1, m.GB1, m.GW2, m.GB2
}

func (m *Model) checkInput(x *device.Buffer) {
	if x.Rows != m.Batch || x.Cols != m.Cfg.Visible {
		panic(fmt.Sprintf("autoencoder: input %dx%d, want %dx%d", x.Rows, x.Cols, m.Batch, m.Cfg.Visible))
	}
}

// BatchSize implements the training engine's Trainable interface.
func (m *Model) BatchSize() int { return m.Batch }

// InputDim implements the training engine's Trainable interface.
func (m *Model) InputDim() int { return m.Cfg.Visible }
