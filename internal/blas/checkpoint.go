package blas

import (
	"fmt"
	"io"

	"phideep/internal/rng"
)

// SaveState writes a device model's resumable training state, the blob
// behind core.Checkpointer: the downloaded parameters (params.Save output)
// followed by the context's RNG state, so a restored model continues the
// exact sampling or corruption stream. Optimizer extras (momentum
// velocity, PCD fantasy particles) are not captured; exact resume holds
// for configurations without them.
func (c *Context) SaveState(w io.Writer, params interface{ Save(io.Writer) error }) error {
	if err := params.Save(w); err != nil {
		return err
	}
	state, err := c.RNG.MarshalBinary()
	if err != nil {
		return err
	}
	if _, err := w.Write(state); err != nil {
		return fmt.Errorf("blas: save state: %w", err)
	}
	return nil
}

// RestoreState reads a SaveState blob into fresh, zero-initialized
// parameters and the context's RNG; the caller uploads the parameters.
func (c *Context) RestoreState(r io.Reader, fresh interface{ Load(io.Reader) error }) error {
	if err := fresh.Load(r); err != nil {
		return err
	}
	state := make([]byte, rng.MarshaledSize())
	if _, err := io.ReadFull(r, state); err != nil {
		return fmt.Errorf("blas: restore state: %w", err)
	}
	return c.RNG.UnmarshalBinary(state)
}
