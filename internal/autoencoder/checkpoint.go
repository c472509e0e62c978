package autoencoder

import "io"

// SaveState implements core.Checkpointer (blas.Context.SaveState), so a
// restored denoising autoencoder continues the exact corruption-mask
// stream.
func (m *Model) SaveState(w io.Writer) error { return m.Ctx.SaveState(w, m.Download()) }

// RestoreState reads state written by SaveState, uploads the parameters to
// the device and restores the RNG stream.
func (m *Model) RestoreState(r io.Reader) error {
	p := NewParams(m.Cfg, 0)
	if err := m.Ctx.RestoreState(r, p); err != nil {
		return err
	}
	m.Upload(p)
	return nil
}
