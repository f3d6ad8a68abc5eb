package core

import (
	"errors"
	"fmt"
	"hash/crc32"
	"slices"

	"pccheck/internal/storage"
)

// errSlotRecycled reports that a slot's header no longer matches the
// metadata the caller resolved. Under live concurrency this means a newer
// checkpoint recycled the slot mid-read (retry against fresh metadata);
// during crash recovery it means the record and slot disagree.
var errSlotRecycled = errors.New("core: slot recycled during read")

// errSlotQuarantined marks a scrubber tombstone. verifySlot returns it
// classified corrupt (a retry reads the same tombstone); the scrubber tests
// for it so repeated sweeps do not re-count a quarantined slot as fresh
// damage.
var errSlotQuarantined = errors.New("core: slot is quarantined")

// deviceReader is the read side of a device: a storage.Device, the
// scrubber's retrying reader, or a slotScan.
type deviceReader interface {
	ReadAt(p []byte, off int64) error
}

// verifyLevel selects how much of a slot verifySlot checks.
type verifyLevel int

const (
	// levelHeader checks the header alone: it decodes, is not quarantined,
	// carries the live epoch and the wanted counter and size, and its size
	// and kind are in bounds.
	levelHeader verifyLevel = iota
	// levelPayload also reads the payload, checks its CRC when the header
	// carries one, and checks that a delta record decodes.
	levelPayload
)

// anySize as slotWant.size accepts any in-bounds size: by-counter scans
// know the counter they look for, not its size.
const anySize = -1

// slotWant is the checkpoint a caller expects a slot to hold. dst, when it
// has room, receives the payload (live reads fill the caller's buffer).
type slotWant struct {
	counter uint64
	size    int64
	dst     []byte
}

// want is the slotWant for a resolved checkpoint.
func (m checkMeta) want() slotWant { return slotWant{counter: m.counter, size: m.size} }

// metaOf is the checkMeta of a verified slot header.
func metaOf(slot int, hdr slotHeader) checkMeta {
	return checkMeta{slot: slot, counter: hdr.counter, size: hdr.size, kind: hdr.kind, base: hdr.base, fullSize: hdr.fullSize}
}

// verifySlot is the one place a slot is judged trustworthy: recovery, Open,
// live reads, by-counter scans, the scrubber and Inspect all go through it.
// It returns the header and, at payload level, the payload. A header that
// does not hold the wanted checkpoint wraps errSlotRecycled (ReadLatest
// retries it, recovery falls back past it); a tombstone is storage.Corrupt
// wrapping errSlotQuarantined; a CRC or delta-decode failure is
// storage.Corrupt.
func verifySlot(dev deviceReader, sb superblock, slot int, want slotWant, level verifyLevel) (slotHeader, []byte, error) {
	if slot < 0 || slot >= sb.slots {
		return slotHeader{}, nil, fmt.Errorf("%w: slot %d of %d", errSlotRecycled, slot, sb.slots)
	}
	buf := make([]byte, slotHeaderSize)
	if err := dev.ReadAt(buf, slotBase(sb, slot)); err != nil {
		return slotHeader{}, nil, err
	}
	hdr, ok := decodeSlotHeader(buf)
	if !ok || hdr.epoch != sb.epoch || hdr.counter != want.counter || (want.size != anySize && hdr.size != want.size) {
		return slotHeader{}, nil, fmt.Errorf("%w: slot %d no longer holds checkpoint %d", errSlotRecycled, slot, want.counter)
	}
	if hdr.quarantined() {
		return slotHeader{}, nil, storage.Corrupt(fmt.Errorf("%w: checkpoint %d in slot %d", errSlotQuarantined, want.counter, slot))
	}
	if hdr.size < 0 || hdr.size > sb.slotBytes || hdr.kind > slotKindDelta {
		return slotHeader{}, nil, storage.Corrupt(fmt.Errorf("core: slot %d header implausible: %d bytes of %d, kind %d",
			slot, hdr.size, sb.slotBytes, hdr.kind))
	}
	if level == levelHeader {
		return hdr, nil, nil
	}
	payload := want.dst
	if int64(len(payload)) < hdr.size {
		payload = make([]byte, hdr.size)
	}
	payload = payload[:hdr.size]
	if err := dev.ReadAt(payload, payloadBase(sb, slot)); err != nil {
		return slotHeader{}, nil, err
	}
	if err := checkPayloadCRC(hdr, crc32.ChecksumIEEE(payload)); err != nil {
		return slotHeader{}, nil, err
	}
	if hdr.kind == slotKindDelta {
		if _, err := decodeDelta(payload); err != nil {
			return slotHeader{}, nil, storage.Corrupt(err)
		}
	}
	return hdr, payload, nil
}

// checkPayloadCRC compares a payload's CRC with its header's. A mismatch is
// classified corrupt (not transient): re-reading the same bytes will not
// heal a bad payload, and callers must know the data cannot be trusted.
func checkPayloadCRC(hdr slotHeader, got uint32) error {
	if !hdr.hasCRC || got == hdr.payloadCRC {
		return nil
	}
	return storage.Corrupt(fmt.Errorf("core: checkpoint %d payload checksum mismatch", hdr.counter))
}

// slotScan reads every slot header in one pass and serves later header
// reads from memory, so a delta chain reads each header once however many
// links look it up. Payload reads pass through.
type slotScan struct {
	dev   deviceReader
	sb    superblock
	heads [][]byte
	errs  []error
}

func scanSlots(dev deviceReader, sb superblock) *slotScan {
	s := &slotScan{dev: dev, sb: sb, heads: make([][]byte, sb.slots), errs: make([]error, sb.slots)}
	for i := range s.heads {
		s.heads[i] = make([]byte, slotHeaderSize)
		s.errs[i] = dev.ReadAt(s.heads[i], slotBase(sb, i))
	}
	return s
}

func (s *slotScan) ReadAt(p []byte, off int64) error {
	if rel := off - headerSize; len(p) == slotHeaderSize && rel >= 0 && rel%slotStride(s.sb.slotBytes) == 0 {
		if i := rel / slotStride(s.sb.slotBytes); i < int64(s.sb.slots) {
			copy(p, s.heads[i])
			return s.errs[i]
		}
	}
	return s.dev.ReadAt(p, off)
}

// chainReader scans the slots of a delta-formatted device, whose chains
// look links up by counter; other devices are read directly.
func chainReader(dev deviceReader, sb superblock) deviceReader {
	if sb.deltaKeyframe > 0 {
		return scanSlots(dev, sb)
	}
	return dev
}

// resolved is a checkpoint verified at some level: the tip and its header,
// its chain keyframe first (a full tip is a one-link chain), the record
// location that named it (0 = A, 1 = B) and, at payload level, the tip's
// logical payload.
type resolved struct {
	tip     checkMeta
	hdr     slotHeader
	chain   []checkMeta
	loc     int
	payload []byte
}

// resolveChain verifies the checkpoint want names in slot at level and,
// for a delta, every link back to its keyframe. The walk enforces strictly
// decreasing counters and a depth bound of the slot count, so a corrupted
// base pointer cannot loop.
func resolveChain(dev deviceReader, sb superblock, slot int, want slotWant, level verifyLevel) (*resolved, error) {
	hdr, payload, err := verifySlot(dev, sb, slot, want, level)
	if err != nil {
		return nil, err
	}
	res := &resolved{tip: metaOf(slot, hdr), hdr: hdr}
	chain, payloads := []checkMeta{res.tip}, [][]byte{payload}
	for cur := res.tip; cur.kind == slotKindDelta; {
		if len(chain) > sb.slots {
			return nil, storage.Corrupt(fmt.Errorf("core: delta chain at counter %d exceeds %d slots", res.tip.counter, sb.slots))
		}
		if cur.base == 0 || cur.base >= cur.counter {
			return nil, storage.Corrupt(fmt.Errorf("core: delta %d has implausible base %d", cur.counter, cur.base))
		}
		if cur, payload, err = findSlot(dev, sb, cur.base, level); err != nil {
			return nil, err
		}
		chain, payloads = append(chain, cur), append(payloads, payload)
	}
	slices.Reverse(chain)
	slices.Reverse(payloads)
	res.chain = chain
	if level == levelPayload {
		if res.payload, err = applyChain(chain, payloads); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// findSlot returns the first slot whose copy of checkpoint counter
// verifies at level.
func findSlot(dev deviceReader, sb superblock, counter uint64, level verifyLevel) (checkMeta, []byte, error) {
	for slot := 0; slot < sb.slots; slot++ {
		if hdr, payload, err := verifySlot(dev, sb, slot, slotWant{counter: counter, size: anySize}, level); err == nil {
			return metaOf(slot, hdr), payload, nil
		}
	}
	return checkMeta{}, nil, fmt.Errorf("%w: no slot holds checkpoint %d", errSlotRecycled, counter)
}

// applyChain replays verified chain payloads, keyframe first, and returns
// the tip's logical payload.
func applyChain(chain []checkMeta, payloads [][]byte) ([]byte, error) {
	cur := payloads[0]
	for i, link := range chain[1:] {
		d, err := decodeDelta(payloads[i+1])
		if err != nil {
			return nil, storage.Corrupt(err)
		}
		if prev := chain[i].counter; d.base != prev {
			return nil, storage.Corrupt(fmt.Errorf("core: delta %d encodes base %d, chain expects %d", link.counter, d.base, prev))
		}
		if d.fullSize != link.fullSize {
			return nil, storage.Corrupt(fmt.Errorf("core: delta %d record says %d logical bytes, header says %d", link.counter, d.fullSize, link.fullSize))
		}
		if cur, err = applyDelta(cur, d); err != nil {
			return nil, storage.Corrupt(err)
		}
	}
	return cur, nil
}

// readSuperblock reads and decodes the device superblock.
func readSuperblock(dev deviceReader) (superblock, error) {
	head := make([]byte, 64)
	if err := dev.ReadAt(head, superOff); err != nil {
		return superblock{}, err
	}
	return decodeSuperblock(head)
}

// readRecords reads both pointer-record locations, A then B; an entry is
// nil when its record does not decode.
func readRecords(dev deviceReader) ([2]*checkMeta, error) {
	var recs [2]*checkMeta
	for loc, off := range []int64{recordAOff, recordBOff} {
		buf := make([]byte, recordSize)
		if err := dev.ReadAt(buf, off); err != nil {
			return recs, err
		}
		if m, ok := decodeRecord(buf); ok {
			recs[loc] = &m
		}
	}
	return recs, nil
}

// resolvePointer reads both pointer records and resolves them at level.
func resolvePointer(dev storage.Device, sb superblock, level verifyLevel) (*resolved, error) {
	recs, err := readRecords(dev)
	if err != nil {
		return nil, err
	}
	return resolveRecords(chainReader(dev, sb), sb, recs, level)
}

// resolveRecords returns the newest record whose checkpoint — for a delta
// tip, its whole keyframe→delta chain — verifies at level. A record is only
// durable after its slot and chain are, and those are never recycled while
// a durable record references them, so a failing record is the torn, stale
// or damaged one and the other record names the newest intact checkpoint.
// When neither verifies, a newest record whose slot holds something else
// yields ErrNoCheckpoint; any other failure (a tombstone, an unreadable or
// corrupt payload) is returned.
func resolveRecords(dev deviceReader, sb superblock, recs [2]*checkMeta, level verifyLevel) (*resolved, error) {
	order := [2]int{0, 1}
	if recs[1] != nil && (recs[0] == nil || recs[1].counter > recs[0].counter) {
		order = [2]int{1, 0}
	}
	var firstErr error
	for _, loc := range order {
		m := recs[loc]
		if m == nil {
			continue
		}
		res, err := resolveChain(dev, sb, m.slot, m.want(), level)
		if err == nil {
			res.loc = loc
			return res, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr == nil || errors.Is(firstErr, errSlotRecycled) {
		return nil, ErrNoCheckpoint
	}
	return nil, firstErr
}

// Recover reads the latest fully persisted checkpoint from a formatted
// device without constructing an engine — the restart path (§4.2): the
// persistent pointer identifies the checkpoint, the payload is loaded, and
// the caller hands it to the training job to resume.
//
// A tiered device (anything implementing TierReader, e.g. storage.Tiered)
// is walked newest-reachable-first: every level is probed and the highest
// recoverable counter wins, so losing the fast tier falls back to whatever
// the drainer last acknowledged below it.
func Recover(dev storage.Device) (payload []byte, counter uint64, err error) {
	if tr, ok := dev.(TierReader); ok {
		return RecoverTiered(tr.Tiers()...)
	}
	return recoverDevice(dev)
}

// recoverDevice is single-level Recover. The pointer resolves at payload
// level, so a tip whose payload fails verification falls back to the other
// record, and the verified payload is returned without a second read.
func recoverDevice(dev storage.Device) (payload []byte, counter uint64, err error) {
	sb, err := readSuperblock(dev)
	if err != nil {
		return nil, 0, err
	}
	res, err := resolvePointer(dev, sb, levelPayload)
	if err != nil {
		return nil, 0, err
	}
	return res.payload, res.tip.counter, nil
}

// RecoverVersion reads the checkpoint with the given counter if a slot still
// holds it intact. The engine only *guarantees* the newest published
// checkpoint, but the N+1 slots usually retain several predecessors, which
// distributed restores exploit when a worker's local latest has advanced
// past the group's agreed checkpoint (§3.1). ErrNoCheckpoint means the
// version is no longer resident.
func RecoverVersion(dev storage.Device, counter uint64) ([]byte, error) {
	sb, err := readSuperblock(dev)
	if err != nil {
		return nil, err
	}
	payload, _, err := recoverVersion(dev, sb, counter)
	return payload, err
}

// recoverVersion also reports which slot held the version, so live readers
// can check the slot seqlock. A delta version is resident only while its
// whole chain is; a copy that fails verification (e.g. torn by an
// in-flight overwrite) is skipped.
func recoverVersion(dev deviceReader, sb superblock, counter uint64) ([]byte, int, error) {
	r := chainReader(dev, sb)
	for slot := 0; slot < sb.slots; slot++ {
		if res, err := resolveChain(r, sb, slot, slotWant{counter: counter, size: anySize}, levelPayload); err == nil {
			return res.payload, slot, nil
		}
	}
	return nil, 0, ErrNoCheckpoint
}
