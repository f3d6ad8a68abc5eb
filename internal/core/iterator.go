package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"pccheck/internal/storage"
)

// Recovery iterator (§4.2): "PCcheck loads the checkpoint that corresponds
// to CHECK_ADDR from persistent storage into GPU memory with the help of a
// persistent iterator, which logs data read locations."
//
// For multi-gigabyte checkpoints the restore itself takes long enough that a
// second failure during recovery is a real possibility (spot clusters
// preempt in bulk). The iterator reads the payload in chunks and durably
// logs its cursor in a reserved header cell, so a restarted recovery resumes
// where the previous one stopped instead of re-reading from byte zero.
//
// Cursor record layout at cursorOff (64 bytes reserved after record B):
//
//	counter  u64   the checkpoint being restored
//	position u64   bytes already delivered to the consumer
//	crc      u32   over the first 16 bytes
const cursorOff = 192

// RecoveryIterator streams one checkpoint's payload with durable progress.
type RecoveryIterator struct {
	dev       storage.Device
	sb        superblock
	meta      checkMeta
	hdr       slotHeader
	size      int64  // logical payload length
	mem       []byte // verified payload, when resolved at payload level
	crc       uint32 // running CRC of the delivered prefix (streamed payloads)
	pos       int64
	chunk     int
	logEveryN int64
	sinceLog  int64
}

// cursor is the persisted progress record.
type cursor struct {
	counter  uint64
	position int64
}

func encodeCursor(c cursor) []byte {
	buf := make([]byte, 24)
	binary.LittleEndian.PutUint64(buf[0:], c.counter)
	binary.LittleEndian.PutUint64(buf[8:], uint64(c.position))
	binary.LittleEndian.PutUint32(buf[16:], crc32.ChecksumIEEE(buf[:16]))
	return buf
}

// readCursor reads the persisted cursor; ok is false when none decodes.
func readCursor(dev deviceReader) (cursor, bool) {
	buf := make([]byte, 24)
	if dev.ReadAt(buf, cursorOff) != nil || binary.LittleEndian.Uint32(buf[16:]) != crc32.ChecksumIEEE(buf[:16]) {
		return cursor{}, false
	}
	return cursor{
		counter:  binary.LittleEndian.Uint64(buf[0:]),
		position: int64(binary.LittleEndian.Uint64(buf[8:])),
	}, true
}

// NewRecoveryIterator opens an iterator over the latest persisted
// checkpoint on dev. chunkBytes sets the read granularity (default 1 MiB);
// the cursor persists every logEvery bytes delivered (default: every
// chunk). If a previous recovery of the same checkpoint left a cursor, the
// iterator resumes from it.
//
// A delta-formatted device resolves the pointer at payload level: a delta
// tip has no contiguous on-device payload, so the verified chain is
// reconstructed once and chunks are served from memory (the cursor still
// persists the delivery position). A full-mode pointer resolves at header
// level and the payload is verified as it streams, by a running CRC the
// Next that completes delivery checks, so a restore reads it once.
func NewRecoveryIterator(dev storage.Device, chunkBytes int, logEvery int64) (*RecoveryIterator, error) {
	sb, err := readSuperblock(dev)
	if err != nil {
		return nil, err
	}
	level := levelHeader
	if sb.deltaKeyframe > 0 {
		level = levelPayload
	}
	res, err := resolvePointer(dev, sb, level)
	if err != nil {
		return nil, err
	}
	if chunkBytes <= 0 {
		chunkBytes = 1 << 20
	}
	if logEvery <= 0 {
		logEvery = int64(chunkBytes)
	}
	it := &RecoveryIterator{
		dev:       dev,
		sb:        sb,
		meta:      res.tip,
		hdr:       res.hdr,
		size:      res.tip.logicalSize(),
		mem:       res.payload,
		chunk:     chunkBytes,
		logEveryN: logEvery,
	}
	// Resume a matching cursor; ignore cursors for other checkpoints.
	if c, ok := readCursor(dev); ok && c.counter == it.meta.counter && c.position >= 0 && c.position <= it.size {
		it.pos = c.position
	}
	if it.mem == nil && it.pos > 0 && it.pos < it.size {
		// The running CRC must cover the prefix a previous run delivered.
		if err := it.hashPrefix(); err != nil {
			return nil, err
		}
	}
	return it, nil
}

// hashPrefix folds the already-delivered payload prefix into the running
// CRC, reading it once in chunk-sized pieces.
func (it *RecoveryIterator) hashPrefix() error {
	buf := make([]byte, min(int64(it.chunk), it.pos))
	for off := int64(0); off < it.pos; {
		p := buf[:min(int64(len(buf)), it.pos-off)]
		if err := it.dev.ReadAt(p, payloadBase(it.sb, it.meta.slot)+off); err != nil {
			return err
		}
		it.crc = crc32.Update(it.crc, crc32.IEEETable, p)
		off += int64(len(p))
	}
	return nil
}

// Counter returns the checkpoint being restored.
func (it *RecoveryIterator) Counter() uint64 { return it.meta.counter }

// Size returns the checkpoint's logical payload length (the reconstructed
// size when the latest checkpoint is a delta).
func (it *RecoveryIterator) Size() int64 { return it.size }

// Position returns the bytes delivered so far (including any resumed
// progress).
func (it *RecoveryIterator) Position() int64 { return it.pos }

// Done reports whether the payload is fully delivered.
func (it *RecoveryIterator) Done() bool { return it.pos >= it.size }

// Next delivers the next chunk into p and durably advances the cursor per
// the configured cadence. It returns the number of bytes delivered; n == 0
// with nil error means the payload is exhausted. The Next that would
// complete a payload failing its CRC returns a storage.Corrupt error.
func (it *RecoveryIterator) Next(p []byte) (int, error) {
	if it.Done() {
		return 0, nil
	}
	n := it.chunk
	if n > len(p) {
		n = len(p)
	}
	if rem := it.size - it.pos; int64(n) > rem {
		n = int(rem)
	}
	if n == 0 {
		return 0, fmt.Errorf("core: zero-length destination buffer")
	}
	if it.mem != nil {
		copy(p[:n], it.mem[it.pos:])
	} else {
		if err := it.dev.ReadAt(p[:n], payloadBase(it.sb, it.meta.slot)+it.pos); err != nil {
			return 0, err
		}
		crc := crc32.Update(it.crc, crc32.IEEETable, p[:n])
		if it.pos+int64(n) == it.size {
			// On a mismatch the position and cursor stay put: a restore of
			// corrupt bytes never completes.
			if err := checkPayloadCRC(it.hdr, crc); err != nil {
				return 0, err
			}
		}
		it.crc = crc
	}
	it.pos += int64(n)
	it.sinceLog += int64(n)
	if it.sinceLog >= it.logEveryN || it.Done() {
		if err := it.persistCursor(); err != nil {
			return 0, err
		}
		it.sinceLog = 0
	}
	return n, nil
}

// persistCursor durably records the read position.
func (it *RecoveryIterator) persistCursor() error {
	return it.dev.Persist(encodeCursor(cursor{counter: it.meta.counter, position: it.pos}), cursorOff)
}

// Reset rewinds the iterator (and its durable cursor) to the beginning —
// used when the consumer's partial restore state was itself lost.
func (it *RecoveryIterator) Reset() error {
	it.pos = 0
	it.sinceLog = 0
	it.crc = 0
	return it.persistCursor()
}

// ClearCursor invalidates the durable cursor after a completed restore so a
// future recovery of a *newer* checkpoint starts clean. (A stale cursor for
// an older counter is ignored anyway; clearing keeps the header tidy.)
func (it *RecoveryIterator) ClearCursor() error {
	zero := make([]byte, 24)
	return it.dev.Persist(zero, cursorOff)
}
