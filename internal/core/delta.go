// Delta checkpointing (ROADMAP: "incremental + delta checkpoints").
//
// Most of a training checkpoint is unchanged between adjacent iterations
// (GoCkpt, FastPersist make the same observation): the bytes pushed to the
// device per save, not the snapshot, gate the achievable frequency f* in
// the §3.4 model. When Config.DeltaKeyframe is set, the engine divides the
// payload into fixed-size chunks and persists only the chunks that changed
// since the previous checkpoint, as a self-describing delta record:
//
//	0   magic "PCDL" u32
//	4   version u32
//	8   baseCounter u64  — chain predecessor (must match the slot header)
//	16  fullSize u64     — logical payload length after applying the chain
//	24  granularity u32  — chunk size this record was diffed at
//	28  nchunk u32       — ceil(fullSize/granularity)
//	32  ndirty u32       — population count of the bitmap
//	36  hdrCRC u32       — CRC32 over bytes [0,36) + the bitmap
//	40  bitmap, ceil(nchunk/8) bytes, chunk i at byte i/8 bit i%8
//	..  dirty chunk payloads, ascending chunk index, each
//	    min(granularity, fullSize − i·granularity) bytes
//
// The header CRC is always present (independent of Config.VerifyPayload):
// a delta record that cannot be decoded poisons every later link of its
// chain, so decode failures must be detectable, not just torn-payload
// detectable. Chunk data is additionally covered by the slot payload CRC
// when VerifyPayload is on, and by the protocol ordering (payload persists
// before the header, the header before the pointer record) otherwise.
//
// Encoding is one pass through the save's chunk pipeline: each source
// range is read once into a DRAM chunk, its granules are hashed there
// (hash/maphash, engine-private seed) and only the dirty ones go to the
// writers, at their record offset; header and bitmap are written last.
// The 64-bit hashes live in memory only; a keyframe rebuilds them after
// Open. A collision (odds 2⁻⁶⁴ per changed granule, as for FNV-64) would
// drop a changed granule; a fed DirtyTracker needs no hashes.
//
// Every K-th save is forced to be a full keyframe, bounding recovery to
// one keyframe read plus at most K delta applications, and bounding the
// pinned slot set to K+1.
package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/maphash"
	"math"
	"math/bits"
	"sync"
	"time"

	"pccheck/internal/obs"
)

const (
	deltaMagic   = 0x4c444350 // "PCDL" little-endian
	deltaVersion = 1
	deltaHdrSize = 40

	// deltaMaxGran bounds the stored granularity field so a corrupt record
	// cannot make decode allocate absurd chunk geometry.
	deltaMaxGran = 1 << 30
)

// deltaGranularity picks the diff chunk size for a slot capacity: about
// 1/1024th of the slot, rounded up to a 64-byte multiple and clamped to
// [64 B, 64 KiB]. Small enough that scattered sparse updates (embedding
// rows, adapter blocks) don't dirty megabyte chunks, large enough that the
// bitmap and per-chunk hash state stay negligible (≤ 1024 chunks ⇒ 128 B
// bitmap, 8 KiB of hashes).
func deltaGranularity(slotBytes int64) int {
	return int(min(max((slotBytes/1024+63)/64*64, 64), 64<<10))
}

// ceilDiv returns ceil(a/b) for positive b.
func ceilDiv(a int64, b int) int {
	return int((a + int64(b) - 1) / int64(b))
}

// DirtyTracker accumulates the byte ranges a trainer touched since the
// last checkpoint, so the delta pass hashes only marked granules and takes
// the rest as clean. Unfed, it hashes every granule and compares the
// 64-bit hashes with the tip's in-memory table. The checkpointer consumes
// the accumulated marks at each save.
//
// Coherence contract: marks are trusted. Between two Checkpoint calls the
// trainer must MarkRange every byte it mutated, and must feed marks from
// the same serialization domain that mutates the state and captures the
// snapshot (e.g. the training goroutine marking before it hands the
// snapshot to Save). Saves against a fed tracker must themselves be
// serialized by the caller: marks taken by save n describe the diff from
// save n−1, which is only true when saves complete in mutation order. An
// unmarked mutated range silently disappears from the delta; an over-wide
// or stale mark merely persists extra chunks. When in doubt, don't feed
// the tracker — the engine then falls back to content hashes, which need
// no contract. Size changes need no marks either way: any save whose
// payload length differs from the previous one has its tail re-diffed
// unconditionally.
type DirtyTracker struct {
	mu     sync.Mutex
	ranges [][2]int64 // {offset, length}, unmerged
	all    bool
	fed    bool
}

// trackerMaxRanges caps the unmerged mark list; past it the tracker
// degrades to MarkAll (correct, just no longer sparse).
const trackerMaxRanges = 4096

// MarkRange records that [off, off+n) was mutated. Out-of-payload offsets
// are harmless (clamped at encode time).
func (t *DirtyTracker) MarkRange(off, n int64) {
	if n <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.fed = true
	if t.all {
		return
	}
	if len(t.ranges) >= trackerMaxRanges {
		t.all = true
		t.ranges = nil
		return
	}
	t.ranges = append(t.ranges, [2]int64{off, n})
}

// MarkAll records that the whole payload may have changed — the next save
// is a keyframe, taken without a diff.
func (t *DirtyTracker) MarkAll() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.fed = true
	t.all = true
	t.ranges = nil
}

// take drains the accumulated marks. fed reports whether the trainer said
// anything at all since the last take — false means "fall back to hashes".
func (t *DirtyTracker) take() (ranges [][2]int64, all, fed bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ranges, all, fed = t.ranges, t.all, t.fed
	t.ranges, t.all, t.fed = nil, false, false
	return ranges, all, fed
}

// restore re-merges marks a failed save took, so the retry still knows
// what was dirty. Marks fed concurrently since the take are kept too.
func (t *DirtyTracker) restore(ranges [][2]int64, all, fed bool) {
	if !fed {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.fed = true
	if all || t.all || len(t.ranges)+len(ranges) > trackerMaxRanges {
		t.all = true
		t.ranges = nil
		return
	}
	t.ranges = append(t.ranges, ranges...)
}

// errNotSmaller stops a delta pass whose record has grown to the payload
// size; the save restarts as a keyframe in the same unpublished slot.
var errNotSmaller = errors.New("core: delta record not smaller than a keyframe")

// deltaPass carries one delta-mode save through the writePayload producer,
// which calls encode on each chunk as it is read. A keyframe pass (old ==
// nil) stores chunks as read and only seeds the hash table; a delta pass
// keeps the dirty granules, at their record offsets, and seal finishes the
// header and bitmap once every chunk has passed.
type deltaPass struct {
	seed   maphash.Seed
	gran   int
	size   int64
	base   uint64   // the tip's counter, the record's chain predecessor
	old    []uint64 // the tip's hash table; nil makes the pass a keyframe
	forced []bool   // dirty whatever the content: marked, or past a size change
	marked bool     // fed tracker: unforced granules are clean and not hashed
	hashes []uint64 // the new hash table, filled as chunks pass
	head   []byte   // record header + bitmap
	pos    int64    // record length so far
	ndirty int
}

// diff turns the pass into a delta against the tip: counter base, hash
// table old, logical size lastSize. With a fed tracker the marks are
// trusted and only marked granules are hashed; otherwise every granule is
// hashed and compared.
//
// Boundary rule: when the payload length changed, every granule from
// min(size, lastSize)/gran onward is dirty regardless of marks or hashes.
// Growth appends bytes no mark covers (the old image simply ended), and
// shrinkage re-shapes the final partial granule; both tails must travel
// with the delta for apply to reconstruct the exact new length.
//
// The pass stays a keyframe when the forced granules alone already make
// the record at least as large as the payload.
func (p *deltaPass) diff(base uint64, old []uint64, lastSize int64, marks [][2]int64, all, fed bool) {
	n := len(p.hashes)
	forced := make([]bool, n)
	hdr := int64(deltaHdrSize + (n+7)/8)
	rec := hdr                     // the record's least length
	mark := func(from, to int64) { // every granule overlapping [from, to)
		for i := int(from / int64(p.gran)); from < to && i < n && int64(i)*int64(p.gran) < to; i++ {
			if !forced[i] {
				forced[i], rec = true, rec+int64(chunkLen(p.size, p.gran, i))
			}
		}
	}
	if all {
		mark(0, p.size)
	}
	if p.size != lastSize {
		mark(min(p.size, lastSize)/int64(p.gran)*int64(p.gran), p.size)
	}
	if fed && !all {
		for _, r := range marks {
			mark(max(r[0], 0), min(r[0]+r[1], p.size))
		}
	}
	if rec >= p.size {
		return
	}
	p.base, p.old, p.forced, p.marked, p.pos = base, old, forced, fed && !all, hdr
	p.head = make([]byte, hdr)
	binary.LittleEndian.PutUint32(p.head[0:], deltaMagic)
	binary.LittleEndian.PutUint32(p.head[4:], deltaVersion)
	binary.LittleEndian.PutUint64(p.head[8:], base)
	binary.LittleEndian.PutUint64(p.head[16:], uint64(p.size))
	binary.LittleEndian.PutUint32(p.head[24:], uint32(p.gran))
	binary.LittleEndian.PutUint32(p.head[28:], uint32(n))
}

// encode runs the pass over buf, the payload bytes at off, and returns
// the record offset and length of what the writers must store from the
// front of buf. A keyframe stores buf as read. A delta moves its dirty
// granules to the front and sets their bitmap bits; it fails with
// errNotSmaller before the record reaches the payload size, so no delta
// write ever lands past it.
func (p *deltaPass) encode(buf []byte, off int64) (int64, int, error) {
	n := 0
	for lo, i := 0, int(off/int64(p.gran)); lo < len(buf); lo, i = lo+p.gran, i+1 {
		g := buf[lo:min(lo+p.gran, len(buf))]
		if p.marked && !p.forced[i] {
			p.hashes[i] = p.old[i]
			continue
		}
		p.hashes[i] = maphash.Bytes(p.seed, g)
		if p.old == nil || (!p.forced[i] && i < len(p.old) && p.hashes[i] == p.old[i]) {
			continue
		}
		p.head[deltaHdrSize+i/8] |= 1 << (i % 8)
		p.ndirty++
		n += copy(buf[n:], g)
	}
	if p.old == nil {
		return off, len(buf), nil
	}
	if p.pos += int64(n); p.pos >= p.size {
		return 0, 0, errNotSmaller
	}
	return p.pos - int64(n), n, nil
}

// seal completes the record header once every chunk has passed.
func (p *deltaPass) seal() []byte {
	binary.LittleEndian.PutUint32(p.head[32:], uint32(p.ndirty))
	binary.LittleEndian.PutUint32(p.head[36:], deltaCRC(p.head))
	return p.head
}

// crc32Combine returns the IEEE CRC32 of a‖b from crcA = CRC32(a),
// crcB = CRC32(b) and lenB = len(b), as zlib's crc32_combine does: crcA
// times x^(8·lenB) modulo the polynomial, plus crcB. It lets the slot's
// payload CRC cover a record whose header is written after its data.
func crc32Combine(crcA, crcB uint32, lenB int64) uint32 {
	p, sq := uint32(1)<<31, uint32(1)<<23 // x^0 and x^8, bit-reflected
	for ; lenB > 0; lenB >>= 1 {
		if lenB&1 != 0 {
			p = gf2Mul(sq, p)
		}
		sq = gf2Mul(sq, sq)
	}
	return gf2Mul(p, crcA) ^ crcB
}

// gf2Mul multiplies two bit-reflected polynomials modulo the IEEE one.
func gf2Mul(a, b uint32) uint32 {
	var p uint32
	for m := uint32(1) << 31; m != 0; m >>= 1 {
		if a&m != 0 {
			p ^= b
		}
		if b&1 != 0 {
			b = b>>1 ^ crc32.IEEE
		} else {
			b >>= 1
		}
	}
	return p
}

// deltaCRC covers the header (minus the CRC field itself) and the bitmap.
func deltaCRC(rec []byte) uint32 {
	h := crc32.NewIEEE()
	h.Write(rec[:36])
	h.Write(rec[deltaHdrSize : deltaHdrSize+bitmapLen(rec)])
	return h.Sum32()
}

func bitmapLen(rec []byte) int {
	return (int(binary.LittleEndian.Uint32(rec[28:])) + 7) / 8
}

// chunkLen is the byte length of chunk i of a fullSize-byte payload.
func chunkLen(fullSize int64, gran, i int) int {
	return int(min(max(fullSize-int64(i)*int64(gran), 0), int64(gran)))
}

// deltaRecord is a decoded, validated delta record. chunks[j] is the
// payload of the j-th set bit of the bitmap (ascending chunk index).
type deltaRecord struct {
	base     uint64
	fullSize int64
	gran     int
	nchunk   int
	bitmap   []byte
	chunks   [][]byte
}

// dirtyAt reports whether chunk i is present in the record.
func (d deltaRecord) dirtyAt(i int) bool {
	return d.bitmap[i/8]&(1<<(i%8)) != 0
}

// decodeDelta parses and fully validates a delta record; every length is
// cross-checked before any slice is taken, so arbitrary input cannot
// panic (FuzzDeltaDecode holds it to that).
func decodeDelta(rec []byte) (deltaRecord, error) {
	if len(rec) < deltaHdrSize {
		return deltaRecord{}, fmt.Errorf("core: delta record truncated: %d bytes", len(rec))
	}
	if m := binary.LittleEndian.Uint32(rec[0:]); m != deltaMagic {
		return deltaRecord{}, fmt.Errorf("core: bad delta magic %#x", m)
	}
	if v := binary.LittleEndian.Uint32(rec[4:]); v != deltaVersion {
		return deltaRecord{}, fmt.Errorf("core: unsupported delta version %d", v)
	}
	d := deltaRecord{
		base:     binary.LittleEndian.Uint64(rec[8:]),
		fullSize: int64(binary.LittleEndian.Uint64(rec[16:])),
		gran:     int(binary.LittleEndian.Uint32(rec[24:])),
		nchunk:   int(binary.LittleEndian.Uint32(rec[28:])),
	}
	ndirty := int(binary.LittleEndian.Uint32(rec[32:]))
	if d.gran < 1 || d.gran > deltaMaxGran {
		return deltaRecord{}, fmt.Errorf("core: implausible delta granularity %d", d.gran)
	}
	if d.fullSize < 0 || d.fullSize > math.MaxInt64-int64(d.gran) {
		return deltaRecord{}, fmt.Errorf("core: implausible delta size %d", d.fullSize)
	}
	if d.nchunk != ceilDiv(d.fullSize, d.gran) {
		return deltaRecord{}, fmt.Errorf("core: delta chunk count %d does not cover %d bytes at granularity %d", d.nchunk, d.fullSize, d.gran)
	}
	bmLen := (d.nchunk + 7) / 8
	if len(rec) < deltaHdrSize+bmLen {
		return deltaRecord{}, fmt.Errorf("core: delta bitmap truncated")
	}
	d.bitmap = rec[deltaHdrSize : deltaHdrSize+bmLen]
	if got, want := binary.LittleEndian.Uint32(rec[36:]), deltaCRC(rec); got != want {
		return deltaRecord{}, fmt.Errorf("core: delta header checksum mismatch")
	}
	pop := 0
	for _, b := range d.bitmap {
		pop += bits.OnesCount8(b)
	}
	if pop != ndirty {
		return deltaRecord{}, fmt.Errorf("core: delta bitmap population %d != recorded %d", pop, ndirty)
	}
	pos := deltaHdrSize + bmLen
	d.chunks = make([][]byte, 0, ndirty)
	for i := 0; i < d.nchunk; i++ {
		if !d.dirtyAt(i) {
			continue
		}
		l := chunkLen(d.fullSize, d.gran, i)
		if pos+l > len(rec) {
			return deltaRecord{}, fmt.Errorf("core: delta chunk %d truncated", i)
		}
		d.chunks = append(d.chunks, rec[pos:pos+l])
		pos += l
	}
	if pos != len(rec) {
		return deltaRecord{}, fmt.Errorf("core: delta record has %d trailing bytes", len(rec)-pos)
	}
	return d, nil
}

// DirtyTracker returns the engine's dirty-range tracker, or nil when the
// engine is not in delta mode. Feeding it is optional (see its contract);
// an unfed tracker leaves the engine on content-hash fallback.
func (c *Checkpointer) DirtyTracker() *DirtyTracker { return c.tracker }

// checkpointDelta is the delta-mode save: the keyframe/delta decision and
// the chain publish around the slot steps every save shares. Saves are
// serialized under deltaMu — each one is diffed against the previous — so
// the CAS machinery of the concurrent path collapses to a plain publish:
// the tip only ever moves forward, one save at a time. Concurrent
// Checkpoint callers queue on the mutex (the paper's slot-wait, one level
// up).
func (c *Checkpointer) checkpointDelta(ctx context.Context, src Source) (uint64, error) {
	c.deltaMu.Lock()
	defer c.deltaMu.Unlock()

	start := time.Now()
	obsStart := c.obsNow()
	size := src.Size()
	marks, all, fed := c.tracker.take()
	counter := c.gCounter.Add(1)

	// A save is a delta candidate when there is hash state to diff against,
	// the chain has room under K, and the DeltaEvery cadence selects it;
	// the pass still restarts as a keyframe when the record would not
	// actually save bytes (e.g. a dense update, or a payload so small the
	// record overhead dominates).
	c.saveSeq++
	gran := deltaGranularity(c.sb.slotBytes)
	dp := &deltaPass{seed: c.hashSeed, gran: gran, size: size, hashes: make([]uint64, ceilDiv(size, gran))}
	if c.hashes != nil && c.deltasSince < c.cfg.DeltaKeyframe &&
		(c.cfg.DeltaEvery <= 1 || c.saveSeq%uint64(c.cfg.DeltaEvery) == 0) {
		dp.diff(c.chain[len(c.chain)-1].counter, c.hashes, c.lastSize, marks, all, fed)
	}
	cur, err := c.writeSlot(ctx, src, counter, dp)
	if err != nil {
		c.tracker.restore(marks, all, fed)
		return 0, err
	}

	// Publish. Serialized saves mean no CAS loop and no obsolete outcome:
	// the tip is ours by construction.
	oldChain := c.chain
	c.checkAddr.Store(cur)
	if cur.kind == slotKindDelta {
		c.chain = append(c.chain, *cur)
		c.deltasSince++
	} else {
		c.chain = []checkMeta{*cur}
		c.deltasSince = 0
	}
	// The tip moved, so the diff state follows it even if the pointer
	// record below fails — the next save diffs against what is in the
	// slots, not against what is durably pointed at.
	c.hashes = dp.hashes
	c.lastSize = size

	barrierStart := c.obsNow()
	rerr := c.persistRecord(ctx, *cur)
	c.span(obs.PhaseBarrier, barrierStart, counter, cur.slot, 0, 0)
	if cur.kind == slotKindFull {
		// A keyframe supersedes the whole previous chain. If the record
		// failed, the durable pointer may still reference the old chain —
		// park its slots until a newer record lands (same invariant as the
		// concurrent path's deferFree).
		for _, m := range oldChain {
			if rerr != nil {
				c.deferFree(m.slot)
			} else {
				c.freeSpace.Enq(m.slot)
			}
		}
	}
	if rerr != nil {
		// Delta case: nothing is freed — the old record points into a chain
		// prefix whose slots are all still pinned in c.chain.
		c.stats.FailedSaves.Add(1)
		c.instant(obs.PhaseSaveFailed, counter, cur.slot, 0, 0)
		return 0, rerr
	}

	c.stats.Checkpoints.Add(1)
	c.stats.BytesWritten.Add(size)
	c.stats.BytesPersisted.Add(cur.size)
	c.stats.PersistNanos.Add(int64(time.Since(start)))
	if cur.kind == slotKindDelta {
		c.stats.DeltaSaves.Add(1)
	} else {
		c.stats.KeyframeSaves.Add(1)
		c.instant(obs.PhaseKeyframe, counter, cur.slot, size, 0)
	}
	c.instant(obs.PhasePublish, counter, cur.slot, cur.size, size)
	c.span(obs.PhaseSave, obsStart, counter, cur.slot, cur.size, 0)
	return counter, nil
}

// readLatestDelta reconstructs the current chain into dst. deltaMu keeps
// the chain slots stable for the duration (no seqlock needed).
func (c *Checkpointer) readLatestDelta(dst []byte) (uint64, int64, error) {
	c.deltaMu.Lock()
	defer c.deltaMu.Unlock()
	m := c.checkAddr.Load()
	if m == nil {
		return 0, 0, ErrNoCheckpoint
	}
	if int64(len(dst)) < m.logicalSize() {
		return 0, 0, fmt.Errorf("%w: buffer %d < checkpoint %d", ErrBufferTooSmall, len(dst), m.logicalSize())
	}
	payloads := make([][]byte, len(c.chain))
	for i, link := range c.chain {
		var err error
		if _, payloads[i], err = verifySlot(c.dev, c.sb, link.slot, link.want(), levelPayload); err != nil {
			return 0, 0, err
		}
	}
	payload, err := applyChain(c.chain, payloads)
	if err != nil {
		return 0, 0, err
	}
	copy(dst, payload)
	return m.counter, int64(len(payload)), nil
}

// applyDelta reconstructs the new payload from its predecessor and a
// decoded record. A clean (absent) chunk that extends past the base
// payload means the chain is inconsistent — the encoder's boundary rule
// always marks grown tails dirty.
func applyDelta(base []byte, d deltaRecord) ([]byte, error) {
	out := make([]byte, d.fullSize)
	copy(out, base)
	j := 0
	for i := 0; i < d.nchunk; i++ {
		lo := i * d.gran
		hi := lo + chunkLen(d.fullSize, d.gran, i)
		if d.dirtyAt(i) {
			copy(out[lo:hi], d.chunks[j])
			j++
		} else if hi > len(base) {
			return nil, fmt.Errorf("core: delta leaves chunk %d (bytes %d–%d) undefined: base is only %d bytes", i, lo, hi, len(base))
		}
	}
	return out, nil
}
