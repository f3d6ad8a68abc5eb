package core

import (
	"errors"

	"pccheck/internal/storage"
)

// Inspection: a read-only, non-destructive dump of a checkpoint device's
// on-disk structures — superblock, both pointer records, every slot header,
// the recovery cursor — for operators debugging a device and for the
// pccheck-inspect command.

// RecordInfo describes one pointer record location.
type RecordInfo struct {
	// Valid reports whether the record decodes (magic + CRC + non-zero).
	Valid bool
	// Counter, Slot and Size are the record's contents when valid.
	Counter uint64
	Slot    int
	Size    int64
}

// SlotInfo describes one checkpoint slot.
type SlotInfo struct {
	// Index is the slot number.
	Index int
	// HeaderValid reports whether the slot header decodes.
	HeaderValid bool
	// Counter and Size are the header's contents when valid.
	Counter uint64
	Size    int64
	// Epoch is the format generation the header was written under;
	// EpochStale marks a header surviving from a previous format, whose
	// payload recovery will never serve.
	Epoch      uint64
	EpochStale bool
	// HasChecksum reports whether the payload carries a CRC.
	HasChecksum bool
	// PayloadOK is set when verify was requested for a live, untombstoned
	// header: false = the payload is unreadable, fails its CRC or does not
	// decode; true = it matches its CRC (unset when it has none).
	PayloadOK *bool
	// Published marks the slot the recovered pointer references.
	Published bool
	// Kind is the payload kind (0 = full, 1 = delta record); BaseCounter
	// and FullSize carry the delta header's chain predecessor and logical
	// size when Kind is delta.
	Kind        uint8
	BaseCounter uint64
	FullSize    int64
	// InChain marks slots holding a link of the recoverable delta chain.
	InChain bool
	// Quarantined marks a slot the scrubber tombstoned: the copy was
	// damaged with no healthy source to repair from, and recovery skips it.
	Quarantined bool
}

// ChainLink is one link of the recoverable keyframe→delta chain.
type ChainLink struct {
	Counter uint64
	Slot    int
	// Kind is slot payload kind; the first link is always a keyframe (0).
	Kind uint8
	// Size is the stored record length (keyframe payload or delta record).
	Size int64
}

// CursorInfo describes a persisted recovery-iterator cursor.
type CursorInfo struct {
	// Counter is the checkpoint the interrupted restore was reading.
	Counter uint64
	// Position is how many bytes it had delivered.
	Position int64
}

// Report is the full inspection result.
type Report struct {
	// Slots is the slot count (N+1); SlotBytes the per-slot capacity m.
	Slots     int
	SlotBytes int64
	// Epoch is the device's current format generation.
	Epoch uint64
	// Records holds both pointer record locations (A then B).
	Records [2]RecordInfo
	// Latest is the checkpoint recovery would return; Recoverable reports
	// whether one exists.
	Latest      RecordInfo
	Recoverable bool
	// DeltaKeyframe is K when the device is delta-formatted, 0 otherwise.
	DeltaKeyframe int
	// LatestFullSize is the logical size of the recoverable checkpoint
	// (equals Latest.Size except for a delta tip).
	LatestFullSize int64
	// Chain is the recoverable keyframe→delta chain, keyframe first; on a
	// delta device with a recoverable full tip it holds that single link.
	Chain []ChainLink
	// SlotInfos describes each slot.
	SlotInfos []SlotInfo
	// Cursor is a pending recovery cursor, if any.
	Cursor *CursorInfo
}

// Healthy reports whether recovery serves the newest valid pointer record,
// or the device is legitimately empty (no record claims a checkpoint). The
// newest record's slot and chain are never recycled until a newer record
// is durable, so recovery rejecting it — a smashed header, a broken chain,
// a tombstone or, when verified, an unreadable or corrupt payload — means
// damage lost the newest checkpoint. Older records whose slots were
// recycled, and torn payloads in unpublished slots, are normal crash debris.
func (r Report) Healthy() bool {
	for _, rec := range r.Records {
		if rec.Valid && (!r.Recoverable || rec.Counter > r.Latest.Counter) {
			return false
		}
	}
	return true
}

// Inspect reads a formatted device's structures. With verify set, the
// pointer resolves the way Recover does — at payload level, falling back
// past a record whose payload fails verification — and every other live
// slot's payload is read and verified too (expensive for large slots);
// without it, the pointer resolves at header level the way Open does.
func Inspect(dev storage.Device, verify bool) (Report, error) {
	sb, err := readSuperblock(dev)
	if err != nil {
		return Report{}, err
	}
	rep := Report{Slots: sb.slots, SlotBytes: sb.slotBytes, Epoch: sb.epoch, DeltaKeyframe: sb.deltaKeyframe}
	recs, err := readRecords(dev)
	if err != nil {
		return Report{}, err
	}
	for i, m := range recs {
		if m != nil {
			rep.Records[i] = RecordInfo{Valid: true, Counter: m.counter, Slot: m.slot, Size: m.size}
		}
	}

	scan := scanSlots(dev, sb)
	level := levelHeader
	if verify {
		level = levelPayload
	}
	resolvedSlots := make(map[int]bool)
	if latest, err := resolveRecords(scan, sb, recs, level); err == nil {
		rep.Recoverable = true
		rep.Latest = RecordInfo{Valid: true, Counter: latest.tip.counter, Slot: latest.tip.slot, Size: latest.tip.size}
		rep.LatestFullSize = latest.tip.logicalSize()
		for _, m := range latest.chain {
			resolvedSlots[m.slot] = true
			if sb.deltaKeyframe > 0 {
				rep.Chain = append(rep.Chain, ChainLink{Counter: m.counter, Slot: m.slot, Kind: m.kind, Size: m.size})
			}
		}
	}

	for i := 0; i < sb.slots; i++ {
		info := SlotInfo{Index: i}
		buf := make([]byte, slotHeaderSize)
		if err := scan.ReadAt(buf, slotBase(sb, i)); err != nil {
			return Report{}, err
		}
		if hdr, ok := decodeSlotHeader(buf); ok {
			info.HeaderValid = true
			info.Counter = hdr.counter
			info.Size = hdr.size
			info.HasChecksum = hdr.hasCRC
			info.Epoch = hdr.epoch
			info.EpochStale = hdr.epoch != sb.epoch
			info.Kind = hdr.kind
			info.Quarantined = hdr.quarantined()
			if hdr.kind == slotKindDelta {
				info.BaseCounter = hdr.base
				info.FullSize = hdr.fullSize
			}
			if verify {
				// Slots the pointer resolution verified reuse its verdict.
				var err error
				if !resolvedSlots[i] {
					_, _, err = verifySlot(scan, sb, i, slotWant{counter: hdr.counter, size: anySize}, levelPayload)
				}
				if !errors.Is(err, errSlotRecycled) && !errors.Is(err, errSlotQuarantined) && (err != nil || hdr.hasCRC) {
					ok := err == nil
					info.PayloadOK = &ok
				}
			}
		}
		if rep.Recoverable && i == rep.Latest.Slot {
			info.Published = true
		}
		info.InChain = sb.deltaKeyframe > 0 && resolvedSlots[i]
		rep.SlotInfos = append(rep.SlotInfos, info)
	}

	if c, ok := readCursor(dev); ok && c.counter != 0 {
		rep.Cursor = &CursorInfo{Counter: c.counter, Position: c.position}
	}
	return rep, nil
}
