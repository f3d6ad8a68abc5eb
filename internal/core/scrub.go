// Background integrity scrubbing and cross-tier self-healing.
//
// The write protocol makes checkpoints durable; it does not keep them that
// way. Media retention errors, firmware bugs and misdirected writes damage
// already-synced bytes silently, and a checkpoint is read exactly once — at
// restart, when every other copy of the training state is gone. A latent
// fault discovered then is discovered too late.
//
// The scrubber closes that window. On a configurable cadence (or on demand
// via ScrubNow) it re-reads every committed structure and CRC-verifies it:
// both pointer records, the published slot (full mode) or the whole pinned
// keyframe→delta chain (delta mode, verified keyframe-first), the black-box
// region header, and — on a tiered device — each lower tier's self-contained
// image against that tier's durable watermark. Read faults are classified
// with the storage error taxonomy: transient faults are retried in place,
// while permanent faults and CRC mismatches mark the copy damaged.
//
// A damaged copy is repaired from the newest healthy source:
//
//   - a damaged pointer record is rewritten from the engine's published
//     metadata (whose slot header is always durable before publication);
//   - a damaged chain link is rewritten in place from a lower tier's copy
//     (chain slots are pinned and saves serialize on deltaMu, so an
//     in-place rewrite races nobody);
//   - a damaged published slot in concurrent mode is re-published: the
//     healthy payload is written to a fresh free slot and the pointer
//     record is forced to the new location — never in place, because the
//     damaged slot could be recycled by a concurrent save mid-rewrite;
//   - a damaged lower tier is scheduled for a full resync from the front
//     (targeted in-place writes would interleave with the drainer's
//     journal replay; the resync path is ordered by construction).
//
// When no healthy source exists the slot is quarantined: its header is
// rewritten with the quarantine flag so recovery skips it and falls back to
// the other pointer record — corrupt bytes are never served, at worst the
// durable floor steps back one published checkpoint. Every detection,
// repair and quarantine is emitted as an obs event (landing in the black
// box), recorded in the decision trace with its rejected alternatives, and
// appended to the scrubber's bounded audit log as a ScrubRecord.
package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"time"

	"pccheck/internal/obs"
	"pccheck/internal/obs/blackbox"
	"pccheck/internal/obs/decision"
	"pccheck/internal/storage"
)

// ScrubConfig tunes the background integrity scrubber. The zero value
// disables the periodic goroutine; ScrubNow still sweeps on demand.
type ScrubConfig struct {
	// Interval is the background sweep cadence; 0 disables the goroutine.
	Interval time.Duration
	// ReadRetry is how many additional attempts a transiently failing read
	// gets before the copy counts as unreadable. Default 3.
	ReadRetry int
	// HistoryCap bounds the retained ScrubRecord audit tail. Default 256.
	HistoryCap int
}

func (s ScrubConfig) withDefaults() ScrubConfig {
	if s.ReadRetry <= 0 {
		s.ReadRetry = 3
	}
	if s.HistoryCap <= 0 {
		s.HistoryCap = 256
	}
	return s
}

// ScrubAction is what the scrubber did about one finding.
type ScrubAction uint8

const (
	// ScrubDetected: damage found; repair still pending (or impossible and
	// quarantine declined, e.g. a report-only offline scan).
	ScrubDetected ScrubAction = iota + 1
	// ScrubRepaired: the copy was rewritten from a healthy source.
	ScrubRepaired
	// ScrubQuarantined: no healthy source; the slot was tombstoned.
	ScrubQuarantined
	// ScrubResynced: a lower tier was scheduled for a full resync.
	ScrubResynced
)

func (a ScrubAction) String() string {
	switch a {
	case ScrubDetected:
		return "detected"
	case ScrubRepaired:
		return "repaired"
	case ScrubQuarantined:
		return "quarantined"
	case ScrubResynced:
		return "resynced"
	default:
		return fmt.Sprintf("ScrubAction(%d)", uint8(a))
	}
}

// ScrubRegion is which on-device structure a finding concerns.
type ScrubRegion uint8

const (
	// RegionSlot is a checkpoint slot (header or payload).
	RegionSlot ScrubRegion = iota + 1
	// RegionRecord is one of the two pointer-record locations.
	RegionRecord
	// RegionBlackBox is the telemetry region header.
	RegionBlackBox
	// RegionTier is a lower tier's whole image.
	RegionTier
	// RegionSuperblock is the device superblock.
	RegionSuperblock
)

func (r ScrubRegion) String() string {
	switch r {
	case RegionSlot:
		return "slot"
	case RegionRecord:
		return "record"
	case RegionBlackBox:
		return "blackbox"
	case RegionTier:
		return "tier"
	case RegionSuperblock:
		return "superblock"
	default:
		return fmt.Sprintf("ScrubRegion(%d)", uint8(r))
	}
}

// ScrubRecord is one finding in the scrubber's audit log: what was damaged,
// where, and what was done about it. The fixed-width encoding is the
// forensic interchange format (pccheck-inspect renders it; FuzzScrubRecord
// holds the decoder to arbitrary input).
type ScrubRecord struct {
	// TS is when the finding was made, nanoseconds since the Unix epoch.
	TS int64
	// Counter is the checkpoint involved (0 when not slot-scoped).
	Counter uint64
	// Tier is the storage level (-1 for the front/active device).
	Tier int32
	// Slot is the slot index (-1 when not slot-scoped).
	Slot int32
	// Action is the outcome; Region the structure.
	Action ScrubAction
	Region ScrubRegion
}

func (r ScrubRecord) String() string {
	where := r.Region.String()
	if r.Slot >= 0 {
		where = fmt.Sprintf("%s %d", where, r.Slot)
	}
	if r.Tier >= 0 {
		where += fmt.Sprintf(" tier %d", r.Tier)
	}
	if r.Counter > 0 {
		where += fmt.Sprintf(" (checkpoint %d)", r.Counter)
	}
	return fmt.Sprintf("%s: %s", where, r.Action)
}

// scrubRecordSize is the encoded length: TS u64, counter u64, tier i32,
// slot i32, action u8, region u8, pad, CRC u32.
const scrubRecordSize = 32

// Encode serializes the record with a covering CRC.
func (r ScrubRecord) Encode() []byte {
	buf := make([]byte, scrubRecordSize)
	binary.LittleEndian.PutUint64(buf[0:], uint64(r.TS))
	binary.LittleEndian.PutUint64(buf[8:], r.Counter)
	binary.LittleEndian.PutUint32(buf[16:], uint32(r.Tier))
	binary.LittleEndian.PutUint32(buf[20:], uint32(r.Slot))
	buf[24] = uint8(r.Action)
	buf[25] = uint8(r.Region)
	binary.LittleEndian.PutUint32(buf[28:], crc32.ChecksumIEEE(buf[:28]))
	return buf
}

// DecodeScrubRecord parses an encoded record, rejecting truncation, CRC
// mismatches and out-of-range enums. Arbitrary input never panics.
func DecodeScrubRecord(buf []byte) (ScrubRecord, error) {
	if len(buf) < scrubRecordSize {
		return ScrubRecord{}, fmt.Errorf("core: scrub record truncated: %d bytes", len(buf))
	}
	if binary.LittleEndian.Uint32(buf[28:]) != crc32.ChecksumIEEE(buf[:28]) {
		return ScrubRecord{}, errors.New("core: scrub record checksum mismatch")
	}
	r := ScrubRecord{
		TS:      int64(binary.LittleEndian.Uint64(buf[0:])),
		Counter: binary.LittleEndian.Uint64(buf[8:]),
		Tier:    int32(binary.LittleEndian.Uint32(buf[16:])),
		Slot:    int32(binary.LittleEndian.Uint32(buf[20:])),
		Action:  ScrubAction(buf[24]),
		Region:  ScrubRegion(buf[25]),
	}
	if r.Action < ScrubDetected || r.Action > ScrubResynced {
		return ScrubRecord{}, fmt.Errorf("core: scrub record has unknown action %d", buf[24])
	}
	if r.Region < RegionSlot || r.Region > RegionSuperblock {
		return ScrubRecord{}, fmt.Errorf("core: scrub record has unknown region %d", buf[25])
	}
	return r, nil
}

// ScrubStatus is a point-in-time snapshot of the scrubber's counters.
type ScrubStatus struct {
	// Sweeps is how many sweeps have completed; LastSweep when the most
	// recent one finished (zero before the first).
	Sweeps    uint64
	LastSweep time.Time
	// LastFindings is the damage count of the most recent sweep.
	LastFindings int
	// BytesVerified is the cumulative bytes re-read and checked.
	BytesVerified uint64
	// Corruptions / Repairs / Quarantines / TierResyncs are cumulative
	// findings by outcome. Unrepaired counts findings that could be
	// neither repaired nor quarantined (retried next sweep).
	Corruptions uint64
	Repairs     uint64
	Quarantines uint64
	TierResyncs uint64
	Unrepaired  uint64
	// Findings is the bounded audit tail, oldest first.
	Findings []ScrubRecord
}

// tieredScrub is what the scrubber needs from a tiered device: the levels,
// the active front, the durable watermark, and the repair lever. It is
// satisfied by *storage.Tiered; a plain device simply has no tier pass.
type tieredScrub interface {
	TierReader
	Active() int
	Watermark() uint64
	ScheduleResync(level int) bool
	Status() []storage.TierStatus
}

// scrubber runs integrity sweeps over one engine. All sweeps — background
// and on-demand — serialize on mu, which also guards the status snapshot.
type scrubber struct {
	c   *Checkpointer
	cfg ScrubConfig

	stop chan struct{}
	done chan struct{}

	mu sync.Mutex
	st ScrubStatus
}

func newScrubber(c *Checkpointer, cfg ScrubConfig) *scrubber {
	return &scrubber{c: c, cfg: cfg.withDefaults()}
}

// start launches the background loop when an interval is configured.
func (s *scrubber) start() {
	if s.cfg.Interval <= 0 {
		return
	}
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	go s.loop()
}

func (s *scrubber) loop() {
	defer close(s.done)
	tick := time.NewTicker(s.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
			s.sweep()
		}
	}
}

// stopWait stops the background loop and waits for an in-flight sweep.
func (s *scrubber) stopWait() {
	if s.stop == nil {
		return
	}
	close(s.stop)
	<-s.done
	s.stop = nil
}

// ScrubNow runs one synchronous integrity sweep and returns how many
// damaged copies it found and how many it healed (repairs, quarantines and
// scheduled resyncs all count as healed — the damage is contained).
func (c *Checkpointer) ScrubNow() (found, healed int, err error) {
	if c.closed.Load() {
		return 0, 0, ErrClosed
	}
	t := c.scrub.sweep()
	return t.found, t.repaired + t.quarantined + t.resyncs, nil
}

// ScrubStatus returns a snapshot of the scrubber's counters and its recent
// findings.
func (c *Checkpointer) ScrubStatus() ScrubStatus {
	s := c.scrub
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.st
	st.Findings = append([]ScrubRecord(nil), s.st.Findings...)
	return st
}

// sweepTally accumulates one sweep's outcomes.
type sweepTally struct {
	bytes                                 int64
	found, repaired, quarantined, resyncs int
	unrepaired                            int
}

// sweep runs one full pass: pointer records, committed slots, black-box
// header, lower tiers. Sweeps serialize on s.mu.
func (s *scrubber) sweep() sweepTally {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.c
	start := c.obsNow()
	var t sweepTally
	s.scrubRecords(&t)
	if c.sb.deltaKeyframe > 0 {
		s.scrubChain(&t)
	} else {
		s.scrubPublished(&t)
	}
	s.scrubBlackBox(&t)
	s.scrubTiers(&t)

	s.st.Sweeps++
	s.st.LastSweep = time.Now()
	s.st.LastFindings = t.found
	s.st.BytesVerified += uint64(t.bytes)
	s.st.Corruptions += uint64(t.found)
	s.st.Repairs += uint64(t.repaired)
	s.st.Quarantines += uint64(t.quarantined)
	s.st.TierResyncs += uint64(t.resyncs)
	s.st.Unrepaired += uint64(t.unrepaired)
	c.span(obs.PhaseScrub, start, 0, -1, t.bytes, int64(t.found))
	if t.found > 0 && c.bbox != nil {
		// Eventful sweeps flush immediately: the finding and repair events
		// must survive a crash that follows the damage they describe.
		c.bbox.Flush() //nolint:errcheck // best-effort telemetry
	}
	return t
}

// note appends a finding to the bounded audit tail and mirrors it as an
// obs event.
func (s *scrubber) note(rec ScrubRecord) {
	rec.TS = time.Now().UnixNano()
	s.st.Findings = append(s.st.Findings, rec)
	if over := len(s.st.Findings) - s.cfg.HistoryCap; over > 0 {
		s.st.Findings = append(s.st.Findings[:0], s.st.Findings[over:]...)
	}
	var phase obs.Phase
	switch rec.Action {
	case ScrubRepaired, ScrubResynced:
		phase = obs.PhaseScrubRepair
	case ScrubQuarantined:
		phase = obs.PhaseQuarantine
	default:
		phase = obs.PhaseScrubCorrupt
	}
	s.c.instant(phase, rec.Counter, int(rec.Slot), 0, int64(rec.Tier))
}

// provenance records a repair decision with its rejected alternatives.
func (s *scrubber) provenance(chosen string, rejected []string, counter uint64, dur time.Duration, outcome string) {
	if s.c.dec == nil {
		return
	}
	alts := make([]decision.Alternative, 0, len(rejected))
	for _, a := range rejected {
		alts = append(alts, decision.Alternative{Action: a, Feasible: true})
	}
	s.c.dec.RecordScored(decision.KindRepair, decision.Outcome{
		Chosen:   decision.Alternative{Action: chosen, Feasible: true},
		Rejected: alts,
		Measured: dur.Seconds(),
		Outcome:  outcome,
		Counter:  counter,
		Rank:     -1,
	})
}

// read is a classified read: transient faults retry up to cfg.ReadRetry
// times, permanent faults and corruption return immediately.
func (s *scrubber) read(dev storage.Device, p []byte, off int64) error {
	var err error
	for i := 0; i <= s.cfg.ReadRetry; i++ {
		if err = dev.ReadAt(p, off); err == nil {
			return nil
		}
		if storage.Classify(err) != storage.ClassTransient {
			return err
		}
	}
	return err
}

// --- pointer records --------------------------------------------------------

// scrubRecords verifies both pointer-record locations under recordMu and
// rewrites damaged ones from the engine's published metadata. A location is
// damaged when it is unreadable, or holds bytes that neither decode nor are
// all-zero, or when no location decodes to the durable high-water counter
// (a zeroing fault wiped the current record — all-zero is only "legitimately
// empty" while it does not regress the durable floor).
func (s *scrubber) scrubRecords(t *sweepTally) {
	c := s.c
	c.recordMu.Lock()
	defer c.recordMu.Unlock()
	// The superblock first: it is immutable after format and the engine
	// holds the authoritative copy in memory, so damage (a zeroing fault on
	// sector 0 takes the superblock AND both records with it) is repaired
	// by simply re-persisting it.
	t.bytes += 64
	onDev, herr := readSuperblock(retryReader{s, c.dev})
	if herr != nil || onDev != c.sb {
		t.found++
		s.note(ScrubRecord{Tier: -1, Slot: -1, Region: RegionSuperblock, Action: ScrubDetected})
		repStart := time.Now()
		if err := c.dev.Persist(c.sb.encode(), superOff); err != nil {
			t.unrepaired++
			s.provenance("rewrite-superblock", []string{"ignore"}, 0, time.Since(repStart), "failed")
		} else {
			t.repaired++
			s.note(ScrubRecord{Tier: -1, Slot: -1, Region: RegionSuperblock, Action: ScrubRepaired})
			s.provenance("rewrite-superblock", []string{"ignore"}, 0, time.Since(repStart), "repaired")
		}
	}

	m := c.checkAddr.Load()
	if m == nil || c.recordHighest == 0 {
		return
	}
	zero := make([]byte, recordSize)
	var bestCtr uint64
	type locState struct {
		off     int64
		damaged bool
		zeroed  bool
	}
	locs := [2]locState{{off: recordAOff}, {off: recordBOff}}
	for i := range locs {
		buf := make([]byte, recordSize)
		t.bytes += recordSize
		if err := s.read(c.dev, buf, locs[i].off); err != nil {
			locs[i].damaged = true
			continue
		}
		if rec, ok := decodeRecord(buf); ok {
			if rec.counter > bestCtr {
				bestCtr = rec.counter
			}
			continue
		}
		if bytes.Equal(buf, zero) {
			locs[i].zeroed = true
		} else {
			locs[i].damaged = true
		}
	}
	floorLost := bestCtr < c.recordHighest
	for _, loc := range locs {
		if !loc.damaged && !(loc.zeroed && floorLost) {
			continue
		}
		t.found++
		s.note(ScrubRecord{Tier: -1, Slot: -1, Region: RegionRecord, Action: ScrubDetected, Counter: c.recordHighest})
		// Repair: the published meta's slot header is always durable before
		// checkAddr stores it, so a record naming it is always legal — and
		// m.counter >= recordHighest, so the floor never regresses.
		repStart := time.Now()
		if err := c.dev.Persist(encodeRecord(*m), loc.off); err != nil {
			t.unrepaired++
			s.provenance("rewrite-record", []string{"ignore"}, m.counter, time.Since(repStart), "failed")
			continue
		}
		t.repaired++
		s.note(ScrubRecord{Tier: -1, Slot: -1, Region: RegionRecord, Action: ScrubRepaired, Counter: m.counter})
		s.provenance("rewrite-record", []string{"ignore"}, m.counter, time.Since(repStart), "repaired")
	}
}

// --- committed slots --------------------------------------------------------

// retryReader routes verifySlot's reads through the scrubber's classified
// retry, so a transient fault is not mistaken for damage.
type retryReader struct {
	s   *scrubber
	dev storage.Device
}

func (r retryReader) ReadAt(p []byte, off int64) error { return r.s.read(r.dev, p, off) }

// healthyCopy searches the lower tiers of a tiered device for an intact
// copy of checkpoint m: same slot index (the drainer replays the front
// image verbatim), matching header, verifying payload. Tiers are probed
// nearest-first, so the newest healthy copy wins.
func (s *scrubber) healthyCopy(m checkMeta) (slotHeader, []byte, int, bool) {
	td, ok := s.c.dev.(tieredScrub)
	if !ok {
		return slotHeader{}, nil, 0, false
	}
	levels := td.Tiers()
	active := td.Active()
	for i, dev := range levels {
		if i <= active || dev == nil {
			continue
		}
		hdr, payload, err := verifySlot(retryReader{s, dev}, s.c.sb, m.slot, m.want(), levelPayload)
		if err == nil {
			return hdr, payload, i, true
		}
	}
	return slotHeader{}, nil, 0, false
}

// quarantineSlot tombstones slot m on dev: a reconstructed header with the
// quarantine flag set replaces whatever is there, so recovery skips the
// slot. The header is rebuilt from the engine's metadata (the on-device one
// may be unreadable).
func quarantineSlot(dev storage.Device, sb superblock, m checkMeta) error {
	hdr := slotHeader{
		counter: m.counter, size: m.size, epoch: sb.epoch,
		kind: m.kind, base: m.base, fullSize: m.fullSize,
		flags: slotFlagQuarantined,
	}
	return dev.Persist(encodeSlotHeader(hdr), slotBase(sb, m.slot))
}

// scrubChain verifies the pinned keyframe→delta chain in delta mode,
// keyframe first. deltaMu is held throughout: chain slots are pinned and
// saves serialize on the same mutex, so damaged links can be rewritten in
// place without racing a writer.
func (s *scrubber) scrubChain(t *sweepTally) {
	c := s.c
	c.deltaMu.Lock()
	defer c.deltaMu.Unlock()
	for _, m := range c.chain {
		_, _, verr := verifySlot(retryReader{s, c.dev}, c.sb, m.slot, m.want(), levelPayload)
		t.bytes += slotHeaderSize + m.size
		if verr == nil || errors.Is(verr, errSlotQuarantined) {
			continue // healthy, or already tombstoned in an earlier sweep
		}
		t.found++
		s.note(ScrubRecord{Tier: -1, Slot: int32(m.slot), Counter: m.counter, Region: RegionSlot, Action: ScrubDetected})
		repStart := time.Now()
		if hdr, payload, srcTier, ok := s.healthyCopy(m); ok {
			// Payload before header, matching the write protocol: a crash
			// mid-repair leaves a header that fails its CRC against the old
			// payload at worst, which is the state we started from.
			err := c.dev.Persist(payload, payloadBase(c.sb, m.slot))
			if err == nil {
				err = c.dev.Persist(encodeSlotHeader(hdr), slotBase(c.sb, m.slot))
			}
			if err == nil {
				t.repaired++
				s.note(ScrubRecord{Tier: int32(srcTier), Slot: int32(m.slot), Counter: m.counter, Region: RegionSlot, Action: ScrubRepaired})
				s.provenance("rewrite-from-tier", []string{"quarantine", "resync-tier"}, m.counter, time.Since(repStart), "repaired")
				continue
			}
			t.unrepaired++
			s.provenance("rewrite-from-tier", []string{"quarantine"}, m.counter, time.Since(repStart), "failed")
			continue
		}
		// No healthy source anywhere: tombstone the link so recovery falls
		// back past this chain, and force the next save to open a fresh
		// chain with a keyframe — extending a dead chain would pin more
		// saves to unrecoverable state.
		if err := quarantineSlot(c.dev, c.sb, m); err != nil {
			t.unrepaired++
			s.provenance("quarantine", []string{"ignore"}, m.counter, time.Since(repStart), "failed")
			continue
		}
		c.hashes = nil
		t.quarantined++
		s.note(ScrubRecord{Tier: -1, Slot: int32(m.slot), Counter: m.counter, Region: RegionSlot, Action: ScrubQuarantined})
		s.provenance("quarantine", []string{"rewrite-from-tier"}, m.counter, time.Since(repStart), "quarantined")
	}
}

// scrubPublished verifies the published slot in concurrent (non-delta)
// mode. The slot seqlock and checkAddr are sampled around the read so a
// concurrent recycle reads as "stale", never as damage.
func (s *scrubber) scrubPublished(t *sweepTally) {
	c := s.c
	m := c.checkAddr.Load()
	if m == nil {
		return
	}
	s1 := c.slotSeq[m.slot].Load()
	if s1%2 == 1 {
		return // slot being rewritten: m is already superseded
	}
	_, _, verr := verifySlot(retryReader{s, c.dev}, c.sb, m.slot, m.want(), levelPayload)
	if c.slotSeq[m.slot].Load() != s1 || c.checkAddr.Load() != m {
		return // recycled or superseded mid-verify: stale, not damage
	}
	t.bytes += slotHeaderSize + m.size
	if verr == nil || errors.Is(verr, errSlotQuarantined) {
		return
	}
	t.found++
	s.note(ScrubRecord{Tier: -1, Slot: int32(m.slot), Counter: m.counter, Region: RegionSlot, Action: ScrubDetected})
	repStart := time.Now()
	if hdr, payload, srcTier, ok := s.healthyCopy(*m); ok {
		switch err := s.republish(m, hdr, payload); {
		case err == nil:
			t.repaired++
			s.note(ScrubRecord{Tier: int32(srcTier), Slot: int32(m.slot), Counter: m.counter, Region: RegionSlot, Action: ScrubRepaired})
			s.provenance("republish-from-tier", []string{"quarantine", "rewrite-in-place"}, m.counter, time.Since(repStart), "repaired")
		case errors.Is(err, errRepairSuperseded):
			// A newer checkpoint published while we repaired: the damaged
			// slot is no longer referenced and rejoins the pool through the
			// normal supersede path. Damage contained, nothing to count.
			t.repaired++
			s.provenance("republish-from-tier", nil, m.counter, time.Since(repStart), "superseded")
		default:
			t.unrepaired++
			s.provenance("republish-from-tier", []string{"quarantine"}, m.counter, time.Since(repStart), "failed")
		}
		return
	}
	// No healthy source: tombstone in place. The seqlock goes odd around
	// the header write so concurrent readers retry instead of tearing, then
	// read the tombstone and fail classified-corrupt — never garbage.
	c.slotSeq[m.slot].Add(1)
	err := quarantineSlot(c.dev, c.sb, *m)
	c.slotSeq[m.slot].Add(1)
	if err != nil {
		t.unrepaired++
		s.provenance("quarantine", []string{"ignore"}, m.counter, time.Since(repStart), "failed")
		return
	}
	t.quarantined++
	s.note(ScrubRecord{Tier: -1, Slot: int32(m.slot), Counter: m.counter, Region: RegionSlot, Action: ScrubQuarantined})
	s.provenance("quarantine", []string{"republish-from-tier"}, m.counter, time.Since(repStart), "quarantined")
}

// errRepairSuperseded reports that a newer publication landed while a
// repair was in flight; the damage is moot.
var errRepairSuperseded = errors.New("core: repair superseded by a newer checkpoint")

// republish moves the damaged published checkpoint into a fresh slot
// rewritten from a healthy copy, then forces the pointer record to the new
// location. In-place repair is deliberately not attempted in concurrent
// mode: the damaged slot can be recycled by a racing save the instant a
// newer checkpoint publishes, and a scrubber write would then corrupt the
// new occupant.
func (s *scrubber) republish(old *checkMeta, hdr slotHeader, payload []byte) error {
	c := s.c
	slot, ok := c.freeSpace.Deq()
	if !ok {
		return errors.New("core: no free slot for repair")
	}
	c.slotSeq[slot].Add(1)
	nh := hdr
	nh.flags = 0
	err := c.dev.Persist(payload, payloadBase(c.sb, slot))
	if err == nil {
		err = c.dev.Persist(encodeSlotHeader(nh), slotBase(c.sb, slot))
	}
	c.slotSeq[slot].Add(1)
	if err != nil {
		c.freeSpace.Enq(slot)
		return err
	}
	nm := &checkMeta{slot: slot, counter: old.counter, size: old.size, kind: old.kind, base: old.base, fullSize: old.fullSize}
	if !c.checkAddr.CompareAndSwap(old, nm) {
		c.freeSpace.Enq(slot)
		return errRepairSuperseded
	}
	if err := c.forceRecord(context.Background(), *nm); err != nil {
		// The durable record may still name the damaged slot; park it until
		// a newer record lands. The in-memory publish stands — readers are
		// already served from the healthy copy.
		c.deferFree(old.slot)
		return err
	}
	c.freeSpace.Enq(old.slot)
	return nil
}

// --- black box --------------------------------------------------------------

// scrubBlackBox verifies the telemetry region header. Frames are left to
// the flusher (it overwrites them in sequence anyway, and verifying a slot
// mid-append would read torn frames as damage).
func (s *scrubber) scrubBlackBox(t *sweepTally) {
	c := s.c
	if c.sb.blackBoxBytes <= 0 {
		return
	}
	t.bytes += blackbox.SectorBytes
	if err := blackbox.CheckHeader(c.dev, blackBoxBase(c.sb), c.sb.blackBoxBytes, c.sb.epoch); err == nil {
		return
	}
	t.found++
	s.note(ScrubRecord{Tier: -1, Slot: -1, Region: RegionBlackBox, Action: ScrubDetected})
	repStart := time.Now()
	if c.bbox == nil {
		t.unrepaired++ // no journal open: nothing holds the true layout
		return
	}
	if err := c.bbox.RepairHeader(); err != nil {
		t.unrepaired++
		s.provenance("rewrite-blackbox-header", []string{"ignore"}, 0, time.Since(repStart), "failed")
		return
	}
	t.repaired++
	s.note(ScrubRecord{Tier: -1, Slot: -1, Region: RegionBlackBox, Action: ScrubRepaired})
	s.provenance("rewrite-blackbox-header", []string{"ignore"}, 0, time.Since(repStart), "repaired")
}

// --- lower tiers ------------------------------------------------------------

// scrubTiers verifies each lower tier's self-contained image against its
// durable watermark: the tier must recover a checkpoint at least as new as
// what the drainer acknowledged to it, with every CRC intact. Damage is
// healed by scheduling a full resync from the front — targeted writes into
// a lower tier would interleave with the drainer's journal replay, while
// the resync path is ordered by construction. Tiers mid-drain or mid-resync
// are skipped (their images are legitimately in flux).
func (s *scrubber) scrubTiers(t *sweepTally) {
	td, ok := s.c.dev.(tieredScrub)
	if !ok {
		return
	}
	levels := td.Tiers()
	sts := td.Status()
	active := td.Active()
	// A tier is measured against what the front can actually provide, not
	// the raw watermark: after a quarantine the front's best recoverable
	// checkpoint legitimately trails the watermark, and a tier matching the
	// front needs no resync. And when the front itself cannot recover
	// anything, no tier is resynced at all — a lower tier may then be the
	// last good copy, and a resync would replicate the broken image over it.
	var frontCtr uint64
	if active >= 0 && active < len(levels) && levels[active] != nil {
		if _, fc, err := recoverDevice(levels[active]); err == nil {
			frontCtr = fc
		}
	}
	for i, dev := range levels {
		if i <= active || dev == nil || i >= len(sts) {
			continue
		}
		st := sts[i]
		if st.Failed || st.Resyncing || st.PendingOps > 0 {
			continue
		}
		want := st.DurableCounter
		if frontCtr < want {
			want = frontCtr
		}
		if want == 0 {
			continue // nothing acknowledged here, or no healthy repair source
		}
		payload, ctr, err := recoverDevice(dev)
		t.bytes += int64(len(payload)) // what the verification actually read
		if err == nil && ctr >= want {
			continue
		}
		t.found++
		s.note(ScrubRecord{Tier: int32(i), Slot: -1, Counter: st.DurableCounter, Region: RegionTier, Action: ScrubDetected})
		repStart := time.Now()
		if td.ScheduleResync(i) {
			t.resyncs++
			s.note(ScrubRecord{Tier: int32(i), Slot: -1, Counter: st.DurableCounter, Region: RegionTier, Action: ScrubResynced})
			s.provenance("resync-tier", []string{"rewrite-slot-in-place", "quarantine"}, st.DurableCounter, time.Since(repStart), "resynced")
		} else {
			t.unrepaired++
			s.provenance("resync-tier", []string{"ignore"}, st.DurableCounter, time.Since(repStart), "failed")
		}
	}
}
