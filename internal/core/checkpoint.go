package core

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/maphash"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pccheck/internal/chunkpool"
	"pccheck/internal/lfqueue"
	"pccheck/internal/obs"
	"pccheck/internal/obs/blackbox"
	"pccheck/internal/obs/decision"
	"pccheck/internal/storage"
)

// Source supplies a checkpoint payload. The engine pulls it range by range
// so that device→DRAM copies (the GPU snapshot) pipeline with DRAM→storage
// persists. Implementations must allow concurrent ReadInto calls on disjoint
// ranges.
type Source interface {
	// Size returns the payload length in bytes.
	Size() int64
	// ReadInto fills p with payload bytes starting at off.
	ReadInto(p []byte, off int64) error
}

// bytesSource adapts an in-memory payload.
type bytesSource struct{ b []byte }

// BytesSource wraps an in-memory payload as a Source. The engine reads the
// slice during Checkpoint; the caller must not mutate it until Checkpoint
// returns (the paper's equivalent: the GPU must not update weights being
// snapshotted, §3.1).
func BytesSource(b []byte) Source { return bytesSource{b} }

func (s bytesSource) Size() int64 { return int64(len(s.b)) }

func (s bytesSource) ReadInto(p []byte, off int64) error {
	if off < 0 || off+int64(len(p)) > int64(len(s.b)) {
		return fmt.Errorf("core: source range [%d,%d) outside payload of %d bytes", off, off+int64(len(p)), len(s.b))
	}
	copy(p, s.b[off:])
	return nil
}

// Checkpointer orchestrates concurrent checkpoints on one device. It is safe
// for concurrent use; up to Config.Concurrent Checkpoint calls proceed in
// parallel and additional calls wait for a free slot.
type Checkpointer struct {
	dev storage.Device
	cfg Config
	sb  superblock

	// committer is dev's optional tiered-durability hook (probed once at
	// attach): after each pointer record lands durably, the engine reports
	// the committed counter so a storage.Tiered can stamp its drain journal
	// and propagate per-tier durability watermarks.
	committer storage.CheckpointCommitter

	gCounter  atomic.Uint64
	checkAddr atomic.Pointer[checkMeta] // latest *persisted* checkpoint
	freeSpace *lfqueue.Queue[int]
	pool      *chunkpool.Pool
	closed    atomic.Bool

	// perWriterBW holds the float64 bits of the current per-writer pacing
	// rate; mutable at runtime via SetPerWriterBW so operators (or the
	// adaptive controller) can model or react to device contention.
	perWriterBW atomic.Uint64

	// slotSeq is a per-slot seqlock: odd while a checkpoint is writing the
	// slot, even when quiescent. Readers (ReadLatest/ReadVersion) use it to
	// detect that the slot they were reading was recycled and overwritten
	// mid-read — a published checkpoint's slot can be freed by a newer
	// publication and immediately reused while a stale reader still holds
	// its metadata.
	slotSeq []atomic.Uint64

	// recordMu serializes persistent pointer-record writes. Under it,
	// recordHighest enforces that records are persisted in strictly
	// increasing counter order (a delayed writer whose counter was already
	// superseded skips the write — the newer durable record subsumes it),
	// and recordSeq alternates the two on-device record locations so the
	// previous durable record is always intact while the next one is being
	// written, even when published counters share parity. pendingFree
	// parks slots that may still be referenced by the durable record after
	// a record-persist failure; they rejoin the free queue once a newer
	// record lands durably.
	recordMu      sync.Mutex
	recordHighest uint64
	recordSeq     uint64
	pendingFree   []int

	// obsv receives lifecycle events when observability is on. Every
	// probe is guarded by a nil check so a disabled observer costs one
	// predictable branch and no clock reads or allocations.
	obsv obs.Observer
	// dec is the decision recorder found in the observer chain (nil when
	// none); probed only on slow paths (contended admissions, faulted
	// I/O), each probe a single nil check. dec non-nil implies obsv
	// non-nil: it is discovered by walking obsv.
	dec *decision.Recorder
	// bbox is the black-box flusher persisting telemetry snapshots into
	// the device's reserved region (nil when the device has no region or
	// the observer chain has no flight recorder). It runs entirely off
	// the Emit hot path.
	bbox *blackbox.Flusher
	// scrub is the background integrity scrubber (see scrub.go); always
	// constructed by attach so ScrubNow works even when the periodic
	// goroutine is disabled.
	scrub *scrubber

	// Delta-mode state (sb.deltaKeyframe > 0), all under deltaMu: saves are
	// serialized because each delta is diffed against the save before it.
	// chain holds the pinned keyframe→delta slots, keyframe first, with the
	// tip also published through checkAddr; those slots stay out of the
	// free queue until the next keyframe supersedes the whole chain. hashes
	// is the per-granule hash table of the tip, keyed by hashSeed (nil
	// forces the next save to be a keyframe, e.g. right after Open),
	// lastSize the tip's logical size, saveSeq the DeltaEvery cadence
	// counter.
	deltaMu     sync.Mutex
	hashSeed    maphash.Seed
	chain       []checkMeta
	deltasSince int
	hashes      []uint64
	lastSize    int64
	saveSeq     uint64
	tracker     *DirtyTracker

	stats Stats
}

// emit forwards an event to the observer, if any.
func (c *Checkpointer) emit(ev obs.Event) {
	if c.obsv != nil {
		c.obsv.Emit(ev)
	}
}

// obsNow samples the wall clock only when an observer is attached; with
// observability off it is a nil check returning 0.
func (c *Checkpointer) obsNow() int64 {
	if c.obsv == nil {
		return 0
	}
	return time.Now().UnixNano()
}

// span emits a completed span that started at ts (an obsNow sample).
func (c *Checkpointer) span(phase obs.Phase, ts int64, counter uint64, slot int, bytes, value int64) {
	if c.obsv == nil {
		return
	}
	c.obsv.Emit(obs.Event{
		TS: ts, Dur: time.Now().UnixNano() - ts,
		Counter: counter, Bytes: bytes, Value: value,
		Phase: phase, Slot: int32(slot), Writer: -1, Rank: -1,
	})
}

// instant emits a point event.
func (c *Checkpointer) instant(phase obs.Phase, counter uint64, slot int, bytes, value int64) {
	if c.obsv == nil {
		return
	}
	c.obsv.Emit(obs.Event{
		TS: time.Now().UnixNano(), Counter: counter, Bytes: bytes, Value: value,
		Phase: phase, Slot: int32(slot), Writer: -1, Rank: -1,
	})
}

// Stats exposes engine counters. All fields are cumulative.
type Stats struct {
	Checkpoints atomic.Int64 // published checkpoints (won the CAS)
	Obsolete    atomic.Int64 // completed but superseded before publishing
	// CASRetries counts publish CAS attempts retried against older
	// registered values — contention on CHECK_ADDR, a different signal
	// from IORetries (device faults absorbed by the retry policy).
	CASRetries atomic.Int64
	// BytesWritten counts logical checkpoint bytes (payload sizes);
	// BytesPersisted counts what actually hit the device — equal for full
	// checkpoints, smaller for deltas. Persisted/written is the delta ratio.
	BytesWritten    atomic.Int64
	BytesPersisted  atomic.Int64
	DeltaSaves      atomic.Int64 // published checkpoints stored as delta records
	KeyframeSaves   atomic.Int64 // published full checkpoints in delta mode
	PersistNanos    atomic.Int64 // total wall time inside Checkpoint
	SlotWaits       atomic.Int64 // times a checkpoint had to wait for a slot
	TransientFaults atomic.Int64 // transient device faults absorbed on the persist path
	IORetries       atomic.Int64 // persist-path I/O retries taken after transient faults
	FailedSaves     atomic.Int64 // Checkpoint calls that returned an error after starting
}

// StatsSnapshot is a point-in-time plain-struct copy of Stats.
type StatsSnapshot struct {
	Checkpoints     int64
	Obsolete        int64
	CASRetries      int64
	BytesWritten    int64
	BytesPersisted  int64
	DeltaSaves      int64
	KeyframeSaves   int64
	Persist         time.Duration
	SlotWaits       int64
	TransientFaults int64
	IORetries       int64
	FailedSaves     int64
}

// Stats returns a point-in-time copy of the counters.
func (c *Checkpointer) Stats() StatsSnapshot {
	return StatsSnapshot{
		Checkpoints:     c.stats.Checkpoints.Load(),
		Obsolete:        c.stats.Obsolete.Load(),
		CASRetries:      c.stats.CASRetries.Load(),
		BytesWritten:    c.stats.BytesWritten.Load(),
		BytesPersisted:  c.stats.BytesPersisted.Load(),
		DeltaSaves:      c.stats.DeltaSaves.Load(),
		KeyframeSaves:   c.stats.KeyframeSaves.Load(),
		Persist:         time.Duration(c.stats.PersistNanos.Load()),
		SlotWaits:       c.stats.SlotWaits.Load(),
		TransientFaults: c.stats.TransientFaults.Load(),
		IORetries:       c.stats.IORetries.Load(),
		FailedSaves:     c.stats.FailedSaves.Load(),
	}
}

// New formats dev for the given configuration and returns a ready engine.
// Any previous contents are destroyed. Use Open to attach to a formatted
// device after a restart.
func New(dev storage.Device, cfg Config) (*Checkpointer, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	need := DeviceBytesFor(cfg)
	if dev.Size() < need {
		return nil, fmt.Errorf("core: device holds %d bytes, need %d for N=%d, m=%d, K=%d",
			dev.Size(), need, cfg.Concurrent, cfg.SlotBytes, cfg.DeltaKeyframe)
	}
	sb := superblock{
		slots:         cfg.Concurrent + 1 + cfg.DeltaKeyframe,
		slotBytes:     cfg.SlotBytes,
		epoch:         nextEpoch(dev),
		deltaKeyframe: cfg.DeltaKeyframe,
	}
	if cfg.BlackBox.Enabled() {
		sb.blackBoxBytes = cfg.BlackBox.Layout().RegionBytes()
	}
	// The new-epoch superblock goes durable FIRST: from that instant every
	// slot header still on the device carries a stale epoch and is rejected
	// by recovery, so neither a completed reformat nor a crash mid-format
	// can resurrect checkpoints from the previous image.
	if err := dev.Persist(sb.encode(), superOff); err != nil {
		return nil, err
	}
	// Then invalidate both pointer records — belt and suspenders on top of
	// the epoch check, and what keeps Open from chasing stale slots.
	zero := make([]byte, recordSize)
	if err := dev.Persist(zero, recordAOff); err != nil {
		return nil, err
	}
	if err := dev.Persist(zero, recordBOff); err != nil {
		return nil, err
	}
	if sb.blackBoxBytes > 0 {
		// The telemetry region header carries the same fresh epoch: frames
		// surviving from the previous image fail the epoch check, so a
		// reformat can no more resurrect stale telemetry than stale slots.
		if err := blackbox.Format(dev, blackBoxBase(sb), sb.epoch, cfg.BlackBox.Layout()); err != nil {
			return nil, err
		}
	}
	return attach(dev, cfg, sb, nil)
}

// nextEpoch picks the format generation for a fresh image: one past the
// previous superblock's epoch when the device already carried one, else 1.
// Deterministic (no clock or randomness), never 0 (the legacy value), and
// guaranteed to differ from every epoch the old image's slot headers carry.
func nextEpoch(dev storage.Device) uint64 {
	if old, err := readSuperblock(dev); err == nil {
		e := old.epoch + 1
		if e == 0 {
			e = 1
		}
		return e
	}
	return 1
}

// Open attaches to a previously formatted device, recovering the latest
// persisted checkpoint pointer (§4.2). The returned engine continues the
// counter sequence past the recovered checkpoint. The pointer resolves at
// header level, so attach cost does not grow with payload size; payload
// damage on a live engine is the scrubber's to find.
func Open(dev storage.Device, cfg Config) (*Checkpointer, error) {
	sb, err := readSuperblock(dev)
	if err != nil {
		return nil, err
	}
	// Geometry comes from the superblock, not the caller: a delta-formatted
	// device reserves K of its slots for the pinned chain.
	cfg.DeltaKeyframe = sb.deltaKeyframe
	cfg.Concurrent = sb.slots - 1 - sb.deltaKeyframe
	cfg.SlotBytes = sb.slotBytes
	cfg = cfg.withDefaults()
	latest, err := resolvePointer(dev, sb, levelHeader)
	if err != nil && err != ErrNoCheckpoint {
		return nil, err
	}
	return attach(dev, cfg, sb, latest)
}

func attach(dev storage.Device, cfg Config, sb superblock, latest *resolved) (*Checkpointer, error) {
	pool, err := chunkpool.ForBudget(cfg.DRAMBudget, int64(cfg.ChunkBytes))
	if err != nil {
		return nil, err
	}
	c := &Checkpointer{
		dev:       dev,
		cfg:       cfg,
		sb:        sb,
		freeSpace: lfqueue.New[int](),
		pool:      pool,
		slotSeq:   make([]atomic.Uint64, sb.slots),
		obsv:      cfg.Observer,
		dec:       decision.Find(cfg.Observer),
	}
	c.committer, _ = dev.(storage.CheckpointCommitter)
	c.perWriterBW.Store(math.Float64bits(cfg.PerWriterBW))
	pinned := make(map[int]bool)
	if latest != nil {
		// The published slot and, in delta mode, every link of the chain
		// it sits on are never free (§4.1 invariant).
		for _, m := range latest.chain {
			pinned[m.slot] = true
		}
		if sb.deltaKeyframe > 0 {
			c.chain = latest.chain
			c.deltasSince = len(latest.chain) - 1
		}
	}
	for i := 0; i < sb.slots; i++ {
		if !pinned[i] {
			c.freeSpace.Enq(i)
		}
	}
	if sb.deltaKeyframe > 0 {
		// hashes stays nil: the first save after attach is always a keyframe
		// (there is no in-memory hash state to diff against).
		c.tracker = &DirtyTracker{}
		c.hashSeed = maphash.MakeSeed()
	}
	if latest != nil {
		tip := latest.tip
		c.checkAddr.Store(&tip)
		c.gCounter.Store(tip.counter)
		c.recordHighest = tip.counter
		// Resume the location ping-pong so the next record does not
		// overwrite the one just recovered.
		c.recordSeq = uint64(latest.loc) + 1
	}
	if sb.blackBoxBytes > 0 && obs.FindRecorder(cfg.Observer) != nil {
		// The flusher appends after the newest surviving frame, so
		// telemetry written post-restart extends the pre-crash tail.
		j, err := blackbox.OpenJournal(dev, blackBoxBase(sb), sb.blackBoxBytes, sb.epoch)
		if err != nil {
			return nil, fmt.Errorf("core: open black box: %w", err)
		}
		fl, err := blackbox.NewFlusher(j, cfg.Observer, cfg.BlackBox)
		if err != nil {
			return nil, err
		}
		c.bbox = fl
		fl.Start()
	}
	c.scrub = newScrubber(c, cfg.Scrub)
	c.scrub.start()
	return c, nil
}

// Config returns the engine's effective configuration.
func (c *Checkpointer) Config() Config { return c.cfg }

// Observer returns the configured lifecycle observer (nil when
// observability is off).
func (c *Checkpointer) Observer() obs.Observer { return c.obsv }

// SetPerWriterBW changes the per-writer pacing rate (bytes/sec; 0 unpaces).
// It applies to checkpoints started after the call.
func (c *Checkpointer) SetPerWriterBW(bytesPerSec float64) {
	if bytesPerSec < 0 {
		bytesPerSec = 0
	}
	c.perWriterBW.Store(math.Float64bits(bytesPerSec))
}

// Close marks the engine closed. In-flight checkpoints finish; new ones
// fail. The device is not closed (the caller owns it). An attached
// black-box flusher is stopped after one final frame, so the telemetry
// tail at clean shutdown is durable.
func (c *Checkpointer) Close() error {
	c.closed.Store(true)
	if c.scrub != nil {
		c.scrub.stopWait()
	}
	if c.bbox != nil {
		c.bbox.Stop()
	}
	return nil
}

// FlushBlackBox forces one black-box frame now and returns its sequence
// number. It returns 0, nil when the engine has no black box attached.
func (c *Checkpointer) FlushBlackBox() (uint64, error) {
	if c.bbox == nil {
		return 0, nil
	}
	return c.bbox.Flush()
}

// BlackBox returns the attached black-box flusher (nil when the device
// has no telemetry region or no flight recorder is configured); useful
// for mounting its pccheck_blackbox_* metrics families.
func (c *Checkpointer) BlackBox() *blackbox.Flusher { return c.bbox }

// Checkpoint persists one checkpoint from src and returns its counter. It
// implements Listing 1 of the paper plus the chunked pipelining of §4.1.
//
// On return with nil error the checkpoint is either durably published, or
// was durably superseded by a concurrent checkpoint with a higher counter —
// in both cases the state at this counter or newer survives a crash.
func (c *Checkpointer) Checkpoint(ctx context.Context, src Source) (uint64, error) {
	if c.closed.Load() {
		return 0, ErrClosed
	}
	size := src.Size()
	if size > c.sb.slotBytes {
		return 0, fmt.Errorf("%w: %d > %d", ErrTooLarge, size, c.sb.slotBytes)
	}
	if c.sb.deltaKeyframe > 0 {
		return c.checkpointDelta(ctx, src)
	}
	start := time.Now()
	obsStart := c.obsNow()

	// Listing 1, line 3: sample the last published checkpoint BEFORE taking
	// a counter — this ordering is what makes every CAS attempt legal.
	lastCheck := c.checkAddr.Load()

	// Line 5: order this checkpoint.
	counter := c.gCounter.Add(1)

	// Lines 6–18: slot, payload, header.
	cur, err := c.writeSlot(ctx, src, counter, nil)
	if err != nil {
		return 0, err
	}
	slot := cur.slot

	// Lines 19–34: publish via CAS on CHECK_ADDR.
	for {
		if c.checkAddr.CompareAndSwap(lastCheck, cur) {
			// Success: persist the pointer (BARRIER), then free the old slot.
			barrierStart := c.obsNow()
			err := c.persistRecord(ctx, *cur)
			c.span(obs.PhaseBarrier, barrierStart, counter, slot, 0, 0)
			if lastCheck != nil {
				if err != nil {
					// The durable on-device record may still reference the
					// slot we were about to free; park it until a newer
					// record lands so recovery never chases a recycled slot.
					c.deferFree(lastCheck.slot)
				} else {
					c.freeSpace.Enq(lastCheck.slot)
				}
			}
			if err != nil {
				c.stats.FailedSaves.Add(1)
				c.instant(obs.PhaseSaveFailed, counter, slot, 0, 0)
				return 0, err
			}
			c.stats.Checkpoints.Add(1)
			c.stats.BytesWritten.Add(size)
			c.stats.BytesPersisted.Add(size)
			c.stats.PersistNanos.Add(int64(time.Since(start)))
			c.instant(obs.PhasePublish, counter, slot, size, size)
			c.span(obs.PhaseSave, obsStart, counter, slot, size, 0)
			return counter, nil
		}
		check := c.checkAddr.Load()
		if check == nil || check.counter < counter {
			// The registered checkpoint is older than ours: retry the CAS
			// with the fresher expected value.
			lastCheck = check
			c.stats.CASRetries.Add(1)
			c.instant(obs.PhaseCASRetry, counter, slot, 0, 0)
			continue
		}
		// A more recent checkpoint was registered (lines 29–31): make sure
		// its pointer is durable, then recycle our never-published slot.
		barrierStart := c.obsNow()
		if err := c.persistRecord(ctx, *check); err != nil {
			// Our slot was never published, so it is always safe to
			// recycle — failing the barrier must not leak it.
			c.freeSpace.Enq(slot)
			c.stats.FailedSaves.Add(1)
			c.instant(obs.PhaseSaveFailed, counter, slot, 0, 0)
			return 0, err
		}
		c.span(obs.PhaseBarrier, barrierStart, counter, slot, 0, 0)
		c.freeSpace.Enq(slot)
		c.stats.Obsolete.Add(1)
		c.stats.BytesWritten.Add(size)
		c.stats.BytesPersisted.Add(size)
		c.stats.PersistNanos.Add(int64(time.Since(start)))
		c.instant(obs.PhaseObsolete, counter, slot, size, size)
		c.span(obs.PhaseSave, obsStart, counter, slot, size, 0)
		return counter, nil
	}
}

// writeSlot runs the slot steps every save shares (Listing 1 lines 6–18):
// take a free slot, mark it unstable, stream the payload into it, persist
// its header, mark it stable. The returned checkpoint is not yet
// published. On error the slot is back in the free queue and the failure
// counted. dp carries a delta-mode save's pass and is nil in full mode.
func (c *Checkpointer) writeSlot(ctx context.Context, src Source, counter uint64, dp *deltaPass) (*checkMeta, error) {
	// Lines 6–11: obtain a free slot, spinning like the paper's deq loop.
	obsWait := c.obsNow()
	slot, waited, err := c.acquireSlot(ctx)
	if err != nil {
		c.stats.FailedSaves.Add(1)
		c.instant(obs.PhaseSaveFailed, counter, -1, 0, 0)
		return nil, err
	}
	var didWait int64
	if waited {
		didWait = 1
		c.stats.SlotWaits.Add(1)
		if c.dec != nil { // dec implies an observer, so obsWait was sampled
			c.recordSlotWait(counter, time.Duration(time.Now().UnixNano()-obsWait))
		}
	}
	c.span(obs.PhaseSlotWait, obsWait, counter, slot, 0, didWait)
	c.slotSeq[slot].Add(1) // odd: slot contents unstable

	// Lines 12–15: move the payload through DRAM chunks to the device with
	// p parallel writers, then make it durable.
	stored, payloadCRC, err := c.writePayload(ctx, slot, src, counter, dp)
	if err != nil {
		c.failSlot(slot, counter)
		return nil, err
	}
	cur := &checkMeta{slot: slot, counter: counter, size: stored}
	if dp != nil {
		cur.fullSize = src.Size()
		if dp.old != nil {
			cur.kind, cur.base = slotKindDelta, dp.base
		}
	}

	// Lines 16–18: persist this slot's header before publishing.
	hdrStart := c.obsNow()
	hdr := slotHeader{
		counter: counter, size: stored, payloadCRC: payloadCRC,
		hasCRC: c.cfg.VerifyPayload, epoch: c.sb.epoch,
		kind: cur.kind, base: cur.base, fullSize: cur.fullSize,
	}
	if err := c.retryIO(ctx, func() error {
		return c.dev.Persist(encodeSlotHeader(hdr), slotBase(c.sb, slot))
	}); err != nil {
		c.failSlot(slot, counter)
		return nil, err
	}
	c.span(obs.PhaseHeader, hdrStart, counter, slot, slotHeaderSize, 0)
	c.slotSeq[slot].Add(1) // even: slot stable until recycled
	return cur, nil
}

// failSlot abandons an unpublished slot after a persist failure: the seqlock
// returns to even (contents settled, albeit garbage), the slot rejoins the
// free queue, and the failure is counted. Slot accounting must balance on
// every error path — a leaked slot permanently lowers the engine's effective
// concurrency.
func (c *Checkpointer) failSlot(slot int, counter uint64) {
	c.slotSeq[slot].Add(1)
	c.freeSpace.Enq(slot)
	c.stats.FailedSaves.Add(1)
	c.instant(obs.PhaseSaveFailed, counter, slot, 0, 0)
}

// deferFree parks a slot that the durable pointer record may still
// reference. It is released by the next successful persistRecord, whose
// newer record subsumes any stale reference.
func (c *Checkpointer) deferFree(slot int) {
	c.recordMu.Lock()
	c.pendingFree = append(c.pendingFree, slot)
	c.recordMu.Unlock()
}

// acquireSlot dequeues a free slot, spinning until one appears (the paper's
// while-true deq loop) or ctx is cancelled. An empty queue can also mean a
// slot is parked behind a failed pointer-record barrier; in that case the
// barrier is re-driven so the spin either frees a slot or fails fast.
func (c *Checkpointer) acquireSlot(ctx context.Context) (slot int, waited bool, err error) {
	if s, ok := c.freeSpace.Deq(); ok {
		return s, false, nil
	}
	for spin := 0; ; spin++ {
		if s, ok := c.freeSpace.Deq(); ok {
			return s, true, nil
		}
		if err := ctx.Err(); err != nil {
			return 0, true, err
		}
		if err := c.redriveRecord(ctx); err != nil {
			return 0, true, err
		}
		if spin < 100 {
			runtime.Gosched()
		} else {
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// redriveRecord retries the pointer-record barrier for the currently
// published checkpoint when earlier failures left slots parked in
// pendingFree. Success releases those slots back to the free queue (via
// persistRecord); a device that still cannot persist records returns the
// error so a waiting Save fails fast instead of spinning forever —
// essential at Concurrent=1, where the parked slot is the only spare.
func (c *Checkpointer) redriveRecord(ctx context.Context) error {
	c.recordMu.Lock()
	parked := len(c.pendingFree) > 0
	c.recordMu.Unlock()
	if !parked {
		return nil
	}
	m := c.checkAddr.Load()
	if m == nil {
		return nil
	}
	return c.persistRecord(ctx, *m)
}

// writePayload streams src into the slot's payload area through the DRAM
// chunk pool, persisting with the configured number of writer goroutines,
// and returns the stored length and payload CRC (0 when verification is
// disabled).
//
// Pipelining (§4.1 "Pipelining and Using Chunks"): the source fill of chunk
// k+1 overlaps the device persist of chunk k, bounded by pool capacity — a
// full pool is exactly the "checkpoint waits for free chunks in DRAM"
// condition of §3.2. The producer fills chunks in payload order, so the
// payload CRC folds incrementally there, off the device critical path.
//
// In delta mode (dp non-nil) the same pass encodes the record: dp.encode
// hashes each chunk's whole granules and keeps what the record stores. A
// delta's header is written last, its CRC combined with the data's; a
// delta that stops beating a keyframe restarts as one once writes drain.
func (c *Checkpointer) writePayload(ctx context.Context, slot int, src Source, counter uint64, dp *deltaPass) (int64, uint32, error) {
	size := src.Size()
	base := payloadBase(c.sb, slot)

	type task struct {
		chunk *chunkpool.Chunk
		off   int64 // offset within the payload area
		n     int
	}

	writers := c.cfg.Writers
	tasks := make(chan task, writers)
	errCh := make(chan error, writers)
	var persisted atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup

	// p writer goroutines persist chunks to the device. Each paces itself
	// at the per-thread bandwidth, mirroring that one OS thread cannot
	// saturate a storage device (§3.3/§5.4.2). Transient device faults are
	// absorbed per the retry policy right here at the chunk granularity —
	// rewriting one chunk is idempotent and far cheaper than restarting
	// the whole checkpoint (the FastPersist lesson: per-write failure
	// handling belongs in the parallel-writer path).
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(writer int32) {
			defer wg.Done()
			lane := storage.NewThrottle(math.Float64frombits(c.perWriterBW.Load()))
			for t := range tasks {
				// The per-writer lane and the device's own pacing overlap:
				// reserve the lane, let the device pace the write, then
				// sleep out whatever lane budget remains. The chunk's
				// effective rate is min(laneBW, device share), as on real
				// hardware — not the series of the two.
				laneDeadline := lane.Reserve(t.n)
				persistStart := c.obsNow()
				err := c.retryIO(ctx, func() error { return c.writeRange(t.chunk.Bytes()[:t.n], base+t.off) })
				if c.obsv != nil {
					c.obsv.Emit(obs.Event{
						TS: persistStart, Dur: time.Now().UnixNano() - persistStart,
						Counter: counter, Bytes: int64(t.n), Value: t.off,
						Phase: obs.PhasePersist, Slot: int32(slot), Writer: writer, Rank: -1,
					})
				}
				if wait := time.Until(laneDeadline); wait > 0 {
					time.Sleep(wait)
				}
				c.pool.Release(t.chunk)
				if err != nil {
					failed.Store(true)
					select {
					case errCh <- err:
					default:
					}
					continue
				}
				persisted.Add(int64(t.n))
			}
		}(int32(w))
	}

	crc := crc32.NewIEEE()
	verify := c.cfg.VerifyPayload
	step := c.pool.ChunkSize()
	if dp != nil {
		step -= step % dp.gran // whole granules per chunk
	}
	stored := size
	var sent int64
	var produceErr error
	n := 0
	for off := int64(0); off < size; off += int64(n) {
		if failed.Load() {
			// A writer already failed past its retry budget; producing
			// more chunks would only burn device bandwidth. errCh carries
			// the error out.
			break
		}
		waitStart := c.obsNow()
		chunk, err := c.pool.Acquire(ctx)
		if err != nil {
			produceErr = err
			break
		}
		c.span(obs.PhaseChunkWait, waitStart, counter, slot, 0, off)
		n = int(min(int64(step), size-off))
		// The paper's step ③: the copy engine moves the range into the DRAM
		// chunk (for a GPU source this is the paced D2H copy).
		copyStart := c.obsNow()
		if err := src.ReadInto(chunk.Bytes()[:n], off); err != nil {
			c.pool.Release(chunk)
			produceErr = err
			break
		}
		at, m := off, n
		if dp == nil {
			if verify {
				crc.Write(chunk.Bytes()[:n]) //nolint:errcheck // hash.Write never fails
			}
			c.span(obs.PhaseCopy, copyStart, counter, slot, int64(n), off)
		} else {
			c.span(obs.PhaseCopy, copyStart, counter, slot, int64(n), off)
			encStart := c.obsNow()
			if at, m, err = dp.encode(chunk.Bytes()[:n], off); err == nil && verify {
				crc.Write(chunk.Bytes()[:m]) //nolint:errcheck // hash.Write never fails
			}
			c.span(obs.PhaseDeltaEncode, encStart, counter, slot, int64(m), int64(n))
			if err != nil || m == 0 {
				c.pool.Release(chunk)
				if produceErr = err; err != nil {
					break
				}
				continue
			}
		}
		tasks <- task{chunk: chunk, off: at, n: m}
		sent += int64(m)
	}
	close(tasks)
	wg.Wait()

	select {
	case err := <-errCh:
		return 0, 0, err
	default:
	}
	if errors.Is(produceErr, errNotSmaller) {
		dp.old, dp.marked = nil, false
		return c.writePayload(ctx, slot, src, counter, dp)
	}
	if produceErr != nil {
		return 0, 0, produceErr
	}
	if got := persisted.Load(); got != sent {
		return 0, 0, fmt.Errorf("core: persisted %d of %d bytes", got, sent)
	}
	sum := crc.Sum32() // 0 when not verifying: nothing was folded in
	if dp != nil && dp.old != nil {
		head := dp.seal()
		if err := c.retryIO(ctx, func() error { return c.writeRange(head, base) }); err != nil {
			return 0, 0, err
		}
		if stored = dp.pos; verify {
			sum = crc32Combine(crc32.ChecksumIEEE(head), sum, stored-int64(len(head)))
		}
	}

	// SSD path: a single sync covers all writers' chunks (§4.1: "the main
	// thread can call a single msync"). PMEM writers already fenced.
	if c.dev.Kind() != storage.KindPMEM {
		syncStart := c.obsNow()
		if err := c.retryIO(ctx, func() error { return c.dev.Sync(base, stored) }); err != nil {
			return 0, 0, err
		}
		c.span(obs.PhaseSync, syncStart, counter, slot, stored, 0)
	}
	return stored, sum, nil
}

// writeRange writes p at off; on PMEM each writer fences its own stores
// (§4.1).
func (c *Checkpointer) writeRange(p []byte, off int64) error {
	if err := c.dev.WriteAt(p, off); err != nil {
		return err
	}
	if c.dev.Kind() == storage.KindPMEM {
		return c.dev.Sync(off, int64(len(p)))
	}
	return nil
}

// persistRecord durably writes the pointer record for meta. Records are
// written in strictly increasing counter order, alternating between the two
// on-device locations; a call whose counter is already superseded by a
// durable record returns immediately (the newer record subsumes it). This is
// the BARRIER(CHECK_ADDR) of Listing 1: when it returns with nil, a pointer
// with counter ≥ meta.counter is durable. Transient device faults are
// retried per the policy; on success, slots parked by earlier record
// failures rejoin the free queue — the newer durable record subsumes any
// stale reference to them.
func (c *Checkpointer) persistRecord(ctx context.Context, meta checkMeta) error {
	c.recordMu.Lock()
	defer c.recordMu.Unlock()
	if meta.counter <= c.recordHighest {
		return nil
	}
	return c.persistRecordLocked(ctx, meta)
}

// forceRecord persists a pointer record even when its counter is already
// durable — the scrubber's repair path repoints an existing counter at a
// freshly rewritten slot. Only a strictly newer durable record makes the
// write unnecessary (it no longer references the repaired checkpoint).
func (c *Checkpointer) forceRecord(ctx context.Context, meta checkMeta) error {
	c.recordMu.Lock()
	defer c.recordMu.Unlock()
	if meta.counter < c.recordHighest {
		return nil
	}
	return c.persistRecordLocked(ctx, meta)
}

// persistRecordLocked is the shared record-write body; recordMu held.
func (c *Checkpointer) persistRecordLocked(ctx context.Context, meta checkMeta) error {
	off := int64(recordAOff)
	if c.recordSeq%2 == 1 {
		off = recordBOff
	}
	if err := c.retryIO(ctx, func() error {
		return c.dev.Persist(encodeRecord(meta), off)
	}); err != nil {
		return err
	}
	c.recordSeq++
	c.recordHighest = meta.counter
	for _, s := range c.pendingFree {
		c.freeSpace.Enq(s)
	}
	c.pendingFree = c.pendingFree[:0]
	// Commit notification: on tiered devices the drainer can only advance a
	// lower tier's durable counter past checkpoints whose pointer record is
	// durable at tier 0 — which is exactly now, still under recordMu so
	// marks land in counter order.
	if c.committer != nil {
		c.committer.CommitCheckpoint(meta.counter)
	}
	return nil
}

// FreeSlots reports how many checkpoint slots are currently in the free
// queue. With no checkpoint in flight it must equal
// TotalSlots()-PinnedSlots() — the slot-conservation invariant the fault
// tests and the bench's -faults mode check after every failure.
func (c *Checkpointer) FreeSlots() int { return c.freeSpace.Len() }

// TotalSlots reports the device's slot count: N+1, plus K in delta mode.
func (c *Checkpointer) TotalSlots() int { return c.sb.slots }

// PinnedSlots reports how many slots are held out of the free queue by
// published state: the keyframe→delta chain in delta mode, the single
// published slot otherwise (0 when nothing has been published).
func (c *Checkpointer) PinnedSlots() int {
	if c.sb.deltaKeyframe > 0 {
		c.deltaMu.Lock()
		defer c.deltaMu.Unlock()
		return len(c.chain)
	}
	if c.checkAddr.Load() != nil {
		return 1
	}
	return 0
}

// Latest returns the newest published checkpoint's counter and logical
// (reconstructed) size.
func (c *Checkpointer) Latest() (counter uint64, size int64, ok bool) {
	m := c.checkAddr.Load()
	if m == nil {
		return 0, 0, false
	}
	return m.counter, m.logicalSize(), true
}

// ReadLatest copies the newest published checkpoint's payload into dst and
// returns its counter and length. dst must be at least the checkpoint size.
//
// Reads are safe against concurrent checkpointing: the published slot can be
// recycled by newer publications while the read is in flight, so the read
// validates the slot's seqlock and retries with fresh metadata when the
// contents moved under it.
func (c *Checkpointer) ReadLatest(dst []byte) (uint64, int64, error) {
	if c.sb.deltaKeyframe > 0 {
		return c.readLatestDelta(dst)
	}
	for attempt := 0; attempt < 1000; attempt++ {
		m := c.checkAddr.Load()
		if m == nil {
			return 0, 0, ErrNoCheckpoint
		}
		if int64(len(dst)) < m.size {
			return 0, 0, fmt.Errorf("%w: buffer %d < checkpoint %d", ErrBufferTooSmall, len(dst), m.size)
		}
		s1 := c.slotSeq[m.slot].Load()
		if s1%2 == 1 {
			// The slot is being rewritten, so m is stale; a newer
			// publication exists — reload.
			runtime.Gosched()
			continue
		}
		_, _, err := verifySlot(c.dev, c.sb, m.slot, slotWant{counter: m.counter, size: m.size, dst: dst}, levelPayload)
		if c.slotSeq[m.slot].Load() != s1 {
			runtime.Gosched()
			continue // recycled mid-read; retry against the newer state
		}
		if err != nil {
			// The seqlock sample above happens after the checkAddr load, so
			// a full recycle of m's slot in that window leaves the seqlock
			// looking stable while the header holds a newer counter. If a
			// newer publication exists, m was simply stale — retry; with no
			// newer publication the mismatch is real on-device damage.
			if errors.Is(err, errSlotRecycled) && c.checkAddr.Load() != m {
				runtime.Gosched()
				continue
			}
			return 0, 0, err
		}
		return m.counter, m.size, nil
	}
	return 0, 0, fmt.Errorf("core: ReadLatest starved by concurrent checkpoint churn")
}

// ReadVersion reads the checkpoint with the given counter if one of the
// slots still holds it (see RecoverVersion). The per-slot seqlock rejects
// reads torn by a concurrent checkpoint recycling the slot; in delta mode
// deltaMu holds saves off for the whole chain walk, so the first read
// stands.
func (c *Checkpointer) ReadVersion(counter uint64) ([]byte, error) {
	if c.sb.deltaKeyframe > 0 {
		c.deltaMu.Lock()
		defer c.deltaMu.Unlock()
	}
	for attempt := 0; attempt < 1000; attempt++ {
		seqs := make([]uint64, len(c.slotSeq))
		for i := range c.slotSeq {
			seqs[i] = c.slotSeq[i].Load()
		}
		payload, slot, err := recoverVersion(c.dev, c.sb, counter)
		if err != nil {
			return nil, err
		}
		if seqs[slot]%2 == 0 && c.slotSeq[slot].Load() == seqs[slot] {
			return payload, nil
		}
		runtime.Gosched()
	}
	return nil, fmt.Errorf("core: ReadVersion starved by concurrent checkpoint churn")
}
