package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc64"
	"testing"
)

func sampleCheckpoint() []byte {
	return EncodeCheckpoint(&Checkpoint{
		Step: 7, Chunk: 2, Examples: 70, Skipped: 1,
		FirstLoss: 0.5, EpochLossSum: 1.25, EpochLossN: 3,
		EpochLoss: []float64{0.9, 0.7}, Model: []byte("model-blob"),
	})
}

// withEpochLossCount rewrites the epoch-loss count field of an encoded
// checkpoint and recomputes its CRC, so only the bounds checks stand
// between the forged header and the allocation.
func withEpochLossCount(data []byte, count uint64) []byte {
	out := append([]byte(nil), data...)
	const off = 4 + 4 + 7*8 // magic, version, seven cursor/loss words
	le := binary.LittleEndian
	le.PutUint64(out[off:], count)
	le.PutUint64(out[len(out)-8:], crc64.Checksum(out[4:len(out)-8], ckptCRC))
	return out
}

// TestDecodeCheckpointCountOverflow pins the fix for a forged epoch-loss
// count whose byte size wraps uint64 (count >= 2^61): decoding must return
// a typed error, not reach make() with an impossible length.
func TestDecodeCheckpointCountOverflow(t *testing.T) {
	for _, count := range []uint64{1 << 61, 1<<64 - 1, 3} {
		_, err := DecodeCheckpoint(withEpochLossCount(sampleCheckpoint(), count))
		var ce *CorruptCheckpointError
		if !errors.As(err, &ce) {
			t.Fatalf("count %d: err = %v, want *CorruptCheckpointError", count, err)
		}
	}
}

// FuzzDecodeCheckpoint holds DecodeCheckpoint to its contract on arbitrary
// bytes: a *CorruptCheckpointError, or a checkpoint that re-encodes to
// exactly the input — never a panic or an unbounded allocation. The seed
// corpus in testdata/fuzz holds a valid checkpoint, a truncated one and the
// epoch-loss count overflow as a regression entry.
func FuzzDecodeCheckpoint(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeCheckpoint(data)
		if err != nil {
			var ce *CorruptCheckpointError
			if !errors.As(err, &ce) {
				t.Fatalf("untyped error %T: %v", err, err)
			}
			return
		}
		if got := EncodeCheckpoint(c); !bytes.Equal(got, data) {
			t.Fatalf("decoded checkpoint re-encodes to %d different bytes", len(got))
		}
	})
}
