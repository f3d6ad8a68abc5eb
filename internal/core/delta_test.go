package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"pccheck/internal/storage"
)

func deltaEngine(t *testing.T, cfg Config) (*Checkpointer, storage.Device) {
	t.Helper()
	dev := storage.NewRAM(DeviceBytesFor(cfg))
	c, err := New(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, dev
}

// encodeDelta is the test oracle for the engine's one-pass encoder: it
// serializes payload's dirty granules as a whole delta record against the
// checkpoint baseCounter.
func encodeDelta(payload []byte, baseCounter uint64, gran int, dirty []bool) []byte {
	nchunk := len(dirty)
	bmLen := (nchunk + 7) / 8
	rec := make([]byte, deltaHdrSize+bmLen, deltaHdrSize+bmLen+len(payload))
	binary.LittleEndian.PutUint32(rec[0:], deltaMagic)
	binary.LittleEndian.PutUint32(rec[4:], deltaVersion)
	binary.LittleEndian.PutUint64(rec[8:], baseCounter)
	binary.LittleEndian.PutUint64(rec[16:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(rec[24:], uint32(gran))
	binary.LittleEndian.PutUint32(rec[28:], uint32(nchunk))
	ndirty := 0
	for i, d := range dirty {
		if !d {
			continue
		}
		ndirty++
		rec[deltaHdrSize+i/8] |= 1 << (i % 8)
		lo := i * gran
		rec = append(rec, payload[lo:min(lo+gran, len(payload))]...)
	}
	binary.LittleEndian.PutUint32(rec[32:], uint32(ndirty))
	binary.LittleEndian.PutUint32(rec[36:], deltaCRC(rec))
	return rec
}

// oracleDirty is the diff rule by direct comparison rather than hashes:
// every granule past a size change, every granule on MarkAll, and the rest
// by marks when the tracker was fed, by comparing bytes with prev when not.
func oracleDirty(prev, next []byte, gran int, marks [][2]int64, all, fed bool) []bool {
	size := len(next)
	dirty := make([]bool, ceilDiv(int64(size), gran))
	for i := range dirty {
		lo, hi := i*gran, min((i+1)*gran, size)
		switch {
		case all || len(prev) != size && hi > min(len(prev), size)/gran*gran:
			dirty[i] = true
		case fed:
			for _, r := range marks {
				dirty[i] = dirty[i] || r[1] > 0 && r[0] < int64(hi) && r[0]+r[1] > int64(lo)
			}
		default:
			dirty[i] = !bytes.Equal(prev[lo:hi], next[lo:hi])
		}
	}
	return dirty
}

func TestDeltaGranularityBounds(t *testing.T) {
	cases := []struct {
		slotBytes int64
		want      int
	}{
		{64, 64},              // floor
		{4096, 64},            // 4 rounds up to 64
		{1 << 20, 1024},       // exactly 1/1024th
		{100 << 20, 64 << 10}, // ceiling (102400 clamps)
		{1 << 16, 64},
	}
	for _, c := range cases {
		if got := deltaGranularity(c.slotBytes); got != c.want {
			t.Errorf("deltaGranularity(%d) = %d, want %d", c.slotBytes, got, c.want)
		}
		if g := deltaGranularity(c.slotBytes); g%64 != 0 {
			t.Errorf("deltaGranularity(%d) = %d, not a 64-byte multiple", c.slotBytes, g)
		}
	}
}

func TestDeltaEncodeDecodeApply(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		gran := 64 * (1 + rng.Intn(4))
		n := 1 + rng.Intn(4000)
		base := payload(int64(trial), n)
		next := append([]byte(nil), base...)
		// Mutate a few scattered ranges.
		for r := 0; r < 1+rng.Intn(5); r++ {
			off := rng.Intn(n)
			span := 1 + rng.Intn(min(64, n-off))
			rng.Read(next[off : off+span])
		}
		rec := encodeDelta(next, 7, gran, oracleDirty(base, next, gran, nil, false, false))
		d, err := decodeDelta(rec)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if d.base != 7 || d.fullSize != int64(n) || d.gran != gran {
			t.Fatalf("trial %d: decoded header %+v", trial, d)
		}
		got, err := applyDelta(base, d)
		if err != nil {
			t.Fatalf("trial %d: apply: %v", trial, err)
		}
		if !bytes.Equal(got, next) {
			t.Fatalf("trial %d: apply did not reconstruct the mutated payload", trial)
		}
	}
}

func TestDeltaApplyAcrossSizeChange(t *testing.T) {
	const gran = 64
	for _, sizes := range [][2]int{{1000, 1500}, {1500, 1000}, {64, 65}, {65, 64}, {1, 4000}, {4000, 1}} {
		base := payload(1, sizes[0])
		next := payload(2, sizes[1])
		d, err := decodeDelta(encodeDelta(next, 3, gran, oracleDirty(base, next, gran, nil, false, false)))
		if err != nil {
			t.Fatalf("%v: decode: %v", sizes, err)
		}
		got, err := applyDelta(base, d)
		if err != nil {
			t.Fatalf("%v: apply: %v", sizes, err)
		}
		if !bytes.Equal(got, next) {
			t.Fatalf("%v: reconstruction mismatch", sizes)
		}
	}
}

func TestDeltaDecodeRejectsCorruption(t *testing.T) {
	p := payload(9, 1000)
	rec := encodeDelta(p, 1, 64, oracleDirty(nil, p, 64, nil, true, false))
	if _, err := decodeDelta(rec); err != nil {
		t.Fatalf("pristine record rejected: %v", err)
	}
	for _, off := range []int{0, 4, 8, 16, 24, 28, 32, 40} {
		mut := append([]byte(nil), rec...)
		mut[off] ^= 0xff
		if _, err := decodeDelta(mut); err == nil {
			t.Errorf("corruption at byte %d not detected", off)
		}
	}
	if _, err := decodeDelta(rec[:len(rec)-1]); err == nil {
		t.Error("truncated record not detected")
	}
	if _, err := decodeDelta(append(append([]byte(nil), rec...), 0)); err == nil {
		t.Error("trailing byte not detected")
	}
}

// TestDeltaCheckpointRecoverSequence drives the engine save path across
// several keyframe cycles, checking Recover and ReadLatest after every save.
func TestDeltaCheckpointRecoverSequence(t *testing.T) {
	cfg := Config{Concurrent: 1, SlotBytes: 8192, DeltaEvery: 1, DeltaKeyframe: 3}
	c, dev := deltaEngine(t, cfg)
	ctx := context.Background()

	p := sparsePayload(77, 0, 6000)
	var lastCtr uint64
	for i := 0; i < 10; i++ {
		if i > 0 {
			mutateSparse(p, 77, uint64(i))
		}
		ctr, err := c.Checkpoint(ctx, BytesSource(p))
		if err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
		if ctr <= lastCtr {
			t.Fatalf("save %d: counter %d did not advance past %d", i, ctr, lastCtr)
		}
		lastCtr = ctr

		got, rc, err := Recover(dev)
		if err != nil {
			t.Fatalf("save %d: recover: %v", i, err)
		}
		if rc != ctr || !bytes.Equal(got, p) {
			t.Fatalf("save %d: recover returned counter %d (want %d), equal=%v", i, rc, ctr, bytes.Equal(got, p))
		}
		dst := make([]byte, len(p))
		rctr, n, err := c.ReadLatest(dst)
		if err != nil {
			t.Fatalf("save %d: ReadLatest: %v", i, err)
		}
		if rctr != ctr || n != int64(len(p)) || !bytes.Equal(dst[:n], p) {
			t.Fatalf("save %d: ReadLatest mismatch", i)
		}
	}
	st := c.Stats()
	if st.DeltaSaves == 0 || st.KeyframeSaves < 2 {
		t.Fatalf("expected mixed delta/keyframe saves, got deltas=%d keyframes=%d", st.DeltaSaves, st.KeyframeSaves)
	}
	if st.BytesPersisted >= st.BytesWritten {
		t.Fatalf("sparse workload persisted %d bytes for %d logical — no reduction", st.BytesPersisted, st.BytesWritten)
	}
}

// TestDeltaTrackerFed exercises trusted-marks mode: the trainer feeds exact
// mutated ranges and the engine skips hashing entirely.
func TestDeltaTrackerFed(t *testing.T) {
	cfg := Config{Concurrent: 1, SlotBytes: 8192, DeltaEvery: 1, DeltaKeyframe: 4}
	c, dev := deltaEngine(t, cfg)
	ctx := context.Background()
	tr := c.DirtyTracker()
	if tr == nil {
		t.Fatal("delta engine has no tracker")
	}

	p := sparsePayload(5, 0, 5000)
	for i := 0; i < 9; i++ {
		if i > 0 {
			for _, r := range mutateSparse(p, 5, uint64(i)) {
				tr.MarkRange(r[0], r[1])
			}
		}
		if _, err := c.Checkpoint(ctx, BytesSource(p)); err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
		got, _, err := Recover(dev)
		if err != nil {
			t.Fatalf("save %d: recover: %v", i, err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("save %d: tracked delta recovery mismatch", i)
		}
	}
	if st := c.Stats(); st.DeltaSaves == 0 {
		t.Fatal("tracked workload produced no delta saves")
	}
}

// TestDeltaOpenReattach crashes (drops) the engine after a mid-chain save
// and re-attaches with Open: the chain must be rebuilt and pinned, saving
// must continue, and the pre-crash checkpoint must stay recoverable.
func TestDeltaOpenReattach(t *testing.T) {
	cfg := Config{Concurrent: 1, SlotBytes: 8192, DeltaEvery: 1, DeltaKeyframe: 3}
	c, dev := deltaEngine(t, cfg)
	ctx := context.Background()

	p := sparsePayload(11, 0, 4000)
	var last uint64
	for i := 0; i < 5; i++ { // 5 saves: keyframe + 3 deltas + keyframe
		if i > 0 {
			mutateSparse(p, 11, uint64(i))
		}
		ctr, err := c.Checkpoint(ctx, BytesSource(p))
		if err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
		last = ctr
	}

	c2, err := Open(dev, Config{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if got := c2.Config().DeltaKeyframe; got != 3 {
		t.Fatalf("Open recovered DeltaKeyframe %d, want 3", got)
	}
	if free, want := c2.FreeSlots(), c2.TotalSlots()-c2.PinnedSlots(); free != want {
		t.Fatalf("after reattach: %d free slots, want %d", free, want)
	}
	dst := make([]byte, 4000)
	rctr, _, err := c2.ReadLatest(dst)
	if err != nil || rctr != last || !bytes.Equal(dst, p) {
		t.Fatalf("reattach ReadLatest: ctr=%d want=%d err=%v", rctr, last, err)
	}
	for i := 5; i < 9; i++ {
		mutateSparse(p, 11, uint64(i))
		ctr, err := c2.Checkpoint(ctx, BytesSource(p))
		if err != nil {
			t.Fatalf("post-reattach save %d: %v", i, err)
		}
		if ctr <= last {
			t.Fatalf("post-reattach counter %d did not advance past %d", ctr, last)
		}
		last = ctr
	}
	got, rc, err := Recover(dev)
	if err != nil || rc != last || !bytes.Equal(got, p) {
		t.Fatalf("recover after reattach saves: rc=%d want=%d err=%v", rc, last, err)
	}
}

// TestDeltaRecoveryIterator streams a delta-tip checkpoint through the
// persistent iterator.
func TestDeltaRecoveryIterator(t *testing.T) {
	cfg := Config{Concurrent: 1, SlotBytes: 8192, DeltaEvery: 1, DeltaKeyframe: 4}
	c, dev := deltaEngine(t, cfg)
	ctx := context.Background()

	p := sparsePayload(21, 0, 6500)
	for i := 0; i < 3; i++ { // keyframe + 2 deltas: tip is a delta
		if i > 0 {
			mutateSparse(p, 21, uint64(i))
		}
		if _, err := c.Checkpoint(ctx, BytesSource(p)); err != nil {
			t.Fatal(err)
		}
	}
	it, err := NewRecoveryIterator(dev, 1000, 0)
	if err != nil {
		t.Fatalf("NewRecoveryIterator: %v", err)
	}
	if it.Size() != int64(len(p)) {
		t.Fatalf("iterator size %d, want logical %d", it.Size(), len(p))
	}
	var out []byte
	buf := make([]byte, 1000)
	for !it.Done() {
		n, err := it.Next(buf)
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		out = append(out, buf[:n]...)
	}
	if !bytes.Equal(out, p) {
		t.Fatal("iterator did not reconstruct the delta chain")
	}
}

// TestDeltaBytesPersistedReduction is the issue's acceptance bar: on a
// sparse workload, delta mode must cut bytes persisted per iteration by at
// least 5× versus full checkpoints.
func TestDeltaBytesPersistedReduction(t *testing.T) {
	const (
		size  = 32 << 10
		iters = 40
	)
	run := func(cfg Config) StatsSnapshot {
		c, _ := deltaEngine(t, cfg)
		ctx := context.Background()
		p := sparsePayload(99, 0, size)
		for i := 0; i < iters; i++ {
			if i > 0 {
				mutateSparse(p, 99, uint64(i))
			}
			if _, err := c.Checkpoint(ctx, BytesSource(p)); err != nil {
				t.Fatal(err)
			}
		}
		return c.Stats()
	}
	full := run(Config{Concurrent: 1, SlotBytes: size + 64})
	delta := run(Config{Concurrent: 1, SlotBytes: size + 64, DeltaEvery: 1, DeltaKeyframe: 10})
	if full.BytesPersisted != full.BytesWritten {
		t.Fatalf("baseline persisted %d != logical %d", full.BytesPersisted, full.BytesWritten)
	}
	ratio := float64(full.BytesPersisted) / float64(delta.BytesPersisted)
	t.Logf("bytes persisted: full=%d delta=%d reduction=%.1fx (deltas=%d keyframes=%d)",
		full.BytesPersisted, delta.BytesPersisted, ratio, delta.DeltaSaves, delta.KeyframeSaves)
	if ratio < 5 {
		t.Fatalf("delta reduction %.2fx < required 5x", ratio)
	}
}

// TestDeltaRecordMatchesOracle saves a sequence that takes every diff
// path — sparse updates, growth, shrink, an all-dirty update that falls
// back to a keyframe — over chunk/granule geometries that do not line up,
// with the tracker fed and unfed and payload CRCs on and off. The bytes in
// each published slot must be exactly the whole-record oracle's.
func TestDeltaRecordMatchesOracle(t *testing.T) {
	geoms := []struct {
		slot  int64
		chunk int
	}{
		{64 << 10, 1000},    // granule 64; chunk not a multiple of it
		{64 << 10, 32},      // chunk smaller than the granule
		{1 << 20, 512},      // granule 1024, chunk smaller
		{1 << 20, 3000},     // granule 1024, chunk not a multiple
		{64 << 10, 1 << 20}, // chunk larger than the payload
		{64 << 10, 0},       // unchunked
	}
	for _, g := range geoms {
		for _, fed := range []bool{false, true} {
			for _, verify := range []bool{false, true} {
				name := fmt.Sprintf("slot=%d/chunk=%d/fed=%v/verify=%v", g.slot, g.chunk, fed, verify)
				t.Run(name, func(t *testing.T) {
					checkOracleSequence(t, Config{
						Concurrent: 1, SlotBytes: g.slot, Writers: 3, ChunkBytes: g.chunk,
						VerifyPayload: verify, DeltaEvery: 1, DeltaKeyframe: 8,
					}, fed)
				})
			}
		}
	}
}

func checkOracleSequence(t *testing.T, cfg Config, fed bool) {
	c, dev := deltaEngine(t, cfg)
	defer c.Close()
	ctx := context.Background()
	gran := deltaGranularity(cfg.SlotBytes)
	rng := rand.New(rand.NewSource(cfg.SlotBytes + int64(cfg.ChunkBytes)))
	var marks [][2]int64
	all := false
	mutate := func(p []byte, off, n int) {
		rng.Read(p[off : off+n])
		marks = append(marks, [2]int64{int64(off), int64(n)})
	}
	steps := []struct {
		name string
		next func(p []byte) []byte
	}{
		{"sparse", func(p []byte) []byte { mutate(p, 17, 5); mutate(p, len(p)/2, 300); return p }},
		{"grow", func(p []byte) []byte { mutate(p, 3*gran+1, 2); return append(p, payload(5, 1537)...) }},
		{"shrink", func(p []byte) []byte { mutate(p, 0, 1); return p[:len(p)-2501] }},
		{"all-dirty", func(p []byte) []byte { all = true; rng.Read(p); return p }},
		{"tail", func(p []byte) []byte { mutate(p, len(p)-3, 3); return p }},
		{"untouched", func(p []byte) []byte { return p }},
	}
	p := payload(1, int(cfg.SlotBytes/6)+7)
	prevCtr, err := c.Checkpoint(ctx, BytesSource(p))
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range steps {
		prev := append([]byte(nil), p...)
		marks, all = nil, false
		p = st.next(p)
		if fed {
			for _, r := range marks {
				c.DirtyTracker().MarkRange(r[0], r[1])
			}
			if all {
				c.DirtyTracker().MarkAll()
			}
		}
		ctr, err := c.Checkpoint(ctx, BytesSource(p))
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		want := encodeDelta(p, prevCtr, gran, oracleDirty(prev, p, gran, marks, all, fed && (len(marks) > 0 || all)))
		wantKind := uint8(slotKindDelta)
		if len(want) >= len(p) {
			want, wantKind = p, slotKindFull
		}
		m := c.checkAddr.Load()
		hb := make([]byte, slotHeaderSize)
		got := make([]byte, m.size)
		if err := dev.ReadAt(hb, slotBase(c.sb, m.slot)); err != nil {
			t.Fatal(err)
		}
		if err := dev.ReadAt(got, payloadBase(c.sb, m.slot)); err != nil {
			t.Fatal(err)
		}
		hdr, ok := decodeSlotHeader(hb)
		switch {
		case !ok || hdr.counter != ctr || m.kind != wantKind || hdr.kind != wantKind:
			t.Fatalf("%s: slot header %+v ok=%v, meta kind %d, want kind %d", st.name, hdr, ok, m.kind, wantKind)
		case !bytes.Equal(got, want):
			t.Fatalf("%s: stored %d bytes differ from the oracle's %d", st.name, len(got), len(want))
		case cfg.VerifyPayload && hdr.payloadCRC != crc32.ChecksumIEEE(want):
			t.Fatalf("%s: payload CRC %#x, want %#x", st.name, hdr.payloadCRC, crc32.ChecksumIEEE(want))
		}
		rec, _, err := Recover(dev)
		if err != nil || !bytes.Equal(rec, p) {
			t.Fatalf("%s: recover: %v", st.name, err)
		}
		prevCtr = ctr
	}
	if st := c.Stats(); st.DeltaSaves == 0 || st.KeyframeSaves < 2 {
		t.Fatalf("deltas=%d keyframes=%d: the sequence should take both paths", st.DeltaSaves, st.KeyframeSaves)
	}
}

// boundedDev fails writes that cross the end of a slot's payload area.
type boundedDev struct {
	storage.Device
	slotBytes int64
	mu        sync.Mutex
	bad       []string
}

func (d *boundedDev) check(off int64, n int) {
	limit := int64(headerSize)
	if off >= headerSize {
		stride := slotStride(d.slotBytes)
		limit = headerSize + (off-headerSize)/stride*stride + slotHeaderSize + d.slotBytes
	}
	if off+int64(n) > limit {
		d.mu.Lock()
		d.bad = append(d.bad, fmt.Sprintf("write [%d,%d) past %d", off, off+int64(n), limit))
		d.mu.Unlock()
	}
}

func (d *boundedDev) WriteAt(p []byte, off int64) error {
	d.check(off, len(p))
	return d.Device.WriteAt(p, off)
}

func (d *boundedDev) Persist(p []byte, off int64) error {
	d.check(off, len(p))
	return d.Device.Persist(p, off)
}

// TestDeltaFallbackStaysInSlot: an all-dirty delta at size == SlotBytes
// restarts as a keyframe, and neither pass writes past the slot.
func TestDeltaFallbackStaysInSlot(t *testing.T) {
	for _, verify := range []bool{false, true} {
		cfg := Config{Concurrent: 1, SlotBytes: 40_000, Writers: 2, ChunkBytes: 4096, VerifyPayload: verify, DeltaEvery: 1, DeltaKeyframe: 4}
		dev := &boundedDev{Device: storage.NewRAM(DeviceBytesFor(cfg)), slotBytes: cfg.SlotBytes}
		c, err := New(dev, cfg)
		if err != nil {
			t.Fatal(err)
		}
		p := payload(1, int(cfg.SlotBytes))
		for i := 0; i < 3; i++ {
			if i > 0 {
				rand.New(rand.NewSource(int64(100 + i))).Read(p)
			}
			if _, err := c.Checkpoint(context.Background(), BytesSource(p)); err != nil {
				t.Fatal(err)
			}
			if len(dev.bad) > 0 {
				t.Fatalf("save %d: %v", i, dev.bad)
			}
			if got, _, err := Recover(dev); err != nil || !bytes.Equal(got, p) {
				t.Fatalf("save %d: recover: %v", i, err)
			}
		}
		if st := c.Stats(); st.KeyframeSaves != 3 || st.DeltaSaves != 0 {
			t.Fatalf("keyframes=%d deltas=%d, want 3 keyframes", st.KeyframeSaves, st.DeltaSaves)
		}
		c.Close()
	}
}

// TestDeltaSaveAllocations bounds the Go heap a delta save allocates: a
// small fraction of the payload, never a staging copy of it.
func TestDeltaSaveAllocations(t *testing.T) {
	const (
		size  = 4 << 20
		saves = 20
	)
	cfg := Config{
		Concurrent: 1, SlotBytes: size, Writers: 2, ChunkBytes: 1 << 20,
		VerifyPayload: true, DeltaEvery: 1, DeltaKeyframe: 8,
	}
	c, _ := deltaEngine(t, cfg)
	defer c.Close()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))
	p := make([]byte, size)
	rng.Read(p)
	if _, err := c.Checkpoint(ctx, BytesSource(p)); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < saves; i++ {
		for r := 0; r < 32; r++ { // 5% of the state in 32 ranges
			off := rng.Intn(size - size/20/32)
			for j := off; j < off+size/20/32; j++ {
				p[j] ^= byte(i + 1)
			}
		}
		if _, err := c.Checkpoint(ctx, BytesSource(p)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / saves
	t.Logf("%d B allocated per save of a %d B payload", per, size)
	if per > size/16 {
		t.Fatalf("a delta save allocates %d B, more than payload/16 = %d B", per, size/16)
	}
	if st := c.Stats(); st.DeltaSaves == 0 {
		t.Fatal("no delta saves")
	}
}

// TestCRC32Combine: combining the CRCs of two pieces equals the CRC of
// their concatenation, for every split of random inputs.
func TestCRC32Combine(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		buf := make([]byte, rng.Intn(3000))
		rng.Read(buf)
		cut := 0
		if len(buf) > 0 {
			cut = rng.Intn(len(buf) + 1)
		}
		a, b := buf[:cut], buf[cut:]
		got := crc32Combine(crc32.ChecksumIEEE(a), crc32.ChecksumIEEE(b), int64(len(b)))
		if want := crc32.ChecksumIEEE(buf); got != want {
			t.Fatalf("split %d|%d: combined %#x, want %#x", len(a), len(b), got, want)
		}
	}
}

// TestDeltaCrashSweep runs the delta workloads of the sweep matrix under
// simulated power cuts: the durable floor must never regress past the last
// acknowledged checkpoint — which for a delta tip means the last complete
// keyframe+chain — and recovery must reproduce acknowledged bytes exactly.
func TestDeltaCrashSweep(t *testing.T) {
	stride := 3
	samples := 24
	if testing.Short() {
		stride, samples = 7, 8
	}
	for _, w := range CrashSweepConfigs(3) {
		if w.DeltaKeyframe == 0 {
			continue
		}
		w := w
		t.Run(w.String(), func(t *testing.T) {
			t.Parallel()
			res, err := ExploreCrashes(CrashExploreOptions{
				Workload: w,
				Stride:   stride,
				Samples:  samples,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range res.Violations {
				t.Error(v)
			}
			if res.Acked != w.Checkpoints {
				t.Errorf("acked %d checkpoints, want %d", res.Acked, w.Checkpoints)
			}
			if res.Recovered == 0 {
				t.Error("no case recovered a checkpoint")
			}
		})
	}
}

func FuzzDeltaDecode(f *testing.F) {
	p := payload(1, 700)
	f.Add(encodeDelta(p, 3, 64, oracleDirty(nil, p, 64, nil, true, false)))
	base := payload(2, 700)
	next := append([]byte(nil), base...)
	copy(next[100:], payload(3, 80))
	f.Add(encodeDelta(next, 9, 64, oracleDirty(base, next, 64, nil, false, false)))
	f.Add([]byte{})
	f.Add(make([]byte, deltaHdrSize))
	f.Fuzz(func(t *testing.T, rec []byte) {
		d, err := decodeDelta(rec)
		if err != nil {
			return
		}
		// A record that decodes must also apply without panicking (bounded
		// to keep the fuzzer from allocating multi-GiB reconstructions).
		if d.fullSize <= 1<<20 {
			if out, err := applyDelta(base, d); err == nil && int64(len(out)) != d.fullSize {
				t.Fatalf("apply returned %d bytes, record claims %d", len(out), d.fullSize)
			}
		}
	})
}
