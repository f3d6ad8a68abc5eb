package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
)

// stampEvery is the block size of a self-verifying payload: every block
// starts with an 8-byte stamp of the payload's version and continues with
// seeded bytes. A reader can then tell from the bytes alone which version
// it holds and whether two versions were torn together.
const stampEvery = 4096

// payload generates and checks self-verifying checkpoint payloads of one
// size. Version v is the seeded base with v stamped at every block start.
type payload struct {
	base []byte
}

func newPayload(seed int64, size int) payload {
	base := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(base) //nolint:errcheck // math/rand Read never fails
	return payload{base: base}
}

func (p payload) size() int64 { return int64(len(p.base)) }

// fill writes bytes [off, off+len(dst)) of version v into dst. It is the
// benchmark's SaveFrom read func: the engine calls it once per staging
// chunk (the paper's step ③, a device-to-host copy on real hardware).
func (p payload) fill(dst []byte, off int64, v uint64) error {
	if off < 0 || off+int64(len(dst)) > int64(len(p.base)) {
		return fmt.Errorf("payload read [%d,+%d) outside %d bytes", off, len(dst), len(p.base))
	}
	copy(dst, p.base[off:])
	var stamp [8]byte
	binary.LittleEndian.PutUint64(stamp[:], v)
	end := off + int64(len(dst))
	for b := off - off%stampEvery; b < end; b += stampEvery {
		lo, hi := max(b, off), min(b+8, end)
		if lo < hi {
			copy(dst[lo-off:hi-off], stamp[lo-b:hi-b])
		}
	}
	return nil
}

// version builds version v as one buffer.
func (p payload) version(v uint64) []byte {
	b := make([]byte, len(p.base))
	_ = p.fill(b, 0, v) // in range by construction
	return b
}

// check verifies that b is exactly some version of this payload and
// returns which.
func (p payload) check(b []byte) (uint64, error) {
	if len(b) != len(p.base) {
		return 0, fmt.Errorf("payload is %d bytes, want %d", len(b), len(p.base))
	}
	if len(b) < 8 {
		return 0, fmt.Errorf("payload shorter than its stamp")
	}
	v := binary.LittleEndian.Uint64(b)
	for blk := 0; blk < len(b); blk += stampEvery {
		end := min(blk+stampEvery, len(b))
		stampEnd := min(blk+8, end)
		var stamp [8]byte
		binary.LittleEndian.PutUint64(stamp[:], v)
		if !bytes.Equal(b[blk:stampEnd], stamp[:stampEnd-blk]) {
			return 0, fmt.Errorf("block at %d carries another version than %d (torn read)", blk, v)
		}
		if !bytes.Equal(b[stampEnd:end], p.base[stampEnd:end]) {
			return 0, fmt.Errorf("block at %d differs from version %d", blk, v)
		}
	}
	return v, nil
}
