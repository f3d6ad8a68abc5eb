package core

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"pccheck/internal/obs"
	"pccheck/internal/obs/blackbox"
	"pccheck/internal/obs/decision"
	"pccheck/internal/storage"
)

func newObservedEngine(t *testing.T, rec *obs.Recorder) *Checkpointer {
	t.Helper()
	cfg := Config{
		Concurrent: 2,
		SlotBytes:  4096,
		Writers:    2,
		ChunkBytes: 1024,
		Observer:   rec,
	}
	dev := storage.NewRAM(DeviceBytes(cfg.Concurrent, cfg.SlotBytes))
	ck, err := New(dev, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return ck
}

// TestObservedCheckpointEvents drives a few saves through an instrumented
// engine and checks the flight recorder saw the full phase pipeline.
func TestObservedCheckpointEvents(t *testing.T) {
	rec := obs.NewRecorder(obs.DefaultCapacity)
	ck := newObservedEngine(t, rec)
	defer ck.Close()

	payload := make([]byte, 3000)
	for i := range payload {
		payload[i] = byte(i)
	}
	for i := 0; i < 5; i++ {
		if _, err := ck.Checkpoint(context.Background(), BytesSource(payload)); err != nil {
			t.Fatalf("Checkpoint %d: %v", i, err)
		}
	}

	snap := rec.Snapshot()
	if snap.Published == 0 {
		t.Fatalf("recorder saw no published checkpoints: %+v", snap)
	}
	if got := snap.Phase(obs.PhaseSave).Count; got != 5 {
		t.Errorf("save span count = %d, want 5", got)
	}
	if snap.Phase(obs.PhaseSlotWait).Count != 5 {
		t.Errorf("slot-wait span count = %d, want 5 (one per save)", snap.Phase(obs.PhaseSlotWait).Count)
	}
	// 3000-byte payload through 1024-byte chunks = 3 copy spans per save.
	if got := snap.Phase(obs.PhaseCopy).Count; got != 15 {
		t.Errorf("copy span count = %d, want 15", got)
	}
	if snap.Phase(obs.PhasePersist).Count != 15 {
		t.Errorf("persist span count = %d, want 15", snap.Phase(obs.PhasePersist).Count)
	}
	if snap.Phase(obs.PhaseBarrier).Count == 0 {
		t.Error("no barrier spans recorded")
	}
	if snap.Phase(obs.PhaseHeader).Count != 5 {
		t.Errorf("header span count = %d, want 5", snap.Phase(obs.PhaseHeader).Count)
	}

	events := rec.TakeEvents()
	var persistBytes int64
	for _, ev := range events {
		if ev.Phase == obs.PhasePersist {
			persistBytes += ev.Bytes
			if ev.Writer < 0 {
				t.Errorf("persist event missing writer index: %+v", ev)
			}
		}
	}
	if persistBytes != 5*3000 {
		t.Errorf("persist spans cover %d bytes, want %d", persistBytes, 5*3000)
	}
}

// TestObservedTraceExport checks the end-to-end path from engine events to
// parseable Chrome trace JSON with the expected span names.
func TestObservedTraceExport(t *testing.T) {
	rec := obs.NewRecorder(obs.DefaultCapacity)
	ck := newObservedEngine(t, rec)
	defer ck.Close()

	payload := make([]byte, 2048)
	if _, err := ck.Checkpoint(context.Background(), BytesSource(payload)); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}

	var sb strings.Builder
	if err := rec.WriteTrace(&sb); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	want := map[string]bool{
		"save": false, "slot-wait": false, "copy": false,
		"persist": false, "barrier": false, "publish": false,
	}
	for _, ev := range doc.TraceEvents {
		if _, ok := want[ev.Name]; ok {
			want[ev.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("trace missing %q events", name)
		}
	}
}

// TestObservedConcurrentSaves hammers an instrumented engine from many
// goroutines while a reader drains the ring and scrapes snapshots — the
// race detector is the real assertion here.
func TestObservedConcurrentSaves(t *testing.T) {
	rec := obs.NewRecorder(1 << 10)
	ck := newObservedEngine(t, rec)
	defer ck.Close()

	const goroutines = 4
	const saves = 20
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed byte) {
			defer wg.Done()
			payload := make([]byte, 2500)
			for i := range payload {
				payload[i] = seed + byte(i)
			}
			for i := 0; i < saves; i++ {
				if _, err := ck.Checkpoint(context.Background(), BytesSource(payload)); err != nil {
					t.Errorf("Checkpoint: %v", err)
					return
				}
			}
		}(byte(g))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			rec.Snapshot()
			rec.TakeEvents()
		}
	}()
	wg.Wait()
	<-done

	snap := rec.Snapshot()
	if snap.Published+snap.Obsolete != goroutines*saves {
		t.Errorf("published %d + obsolete %d != %d total saves",
			snap.Published, snap.Obsolete, goroutines*saves)
	}
}

// TestNilObserverAddsNoAllocations is the zero-overhead-when-off regression
// gate, now a parity table: every observability attachment — recorder,
// recorder+ledger, the full chain with a black-box region formatted and a
// flusher attached — must not add heap allocations to Checkpoint relative
// to the nil-observer baseline. The black-box flusher only ever touches
// the ring from its own goroutine (manual-flush here so AllocsPerRun sees
// nothing of it); Emit stays branch + atomics into preallocated memory.
func TestNilObserverAddsNoAllocations(t *testing.T) {
	mk := func(o obs.Observer, bb blackbox.Config) *Checkpointer {
		cfg := Config{Concurrent: 1, SlotBytes: 1024, Writers: 1, Observer: o, BlackBox: bb}
		dev := storage.NewRAM(DeviceBytesFor(cfg))
		ck, err := New(dev, cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return ck
	}
	payload := make([]byte, 512)
	ctx := context.Background()

	run := func(ck *Checkpointer) float64 {
		src := BytesSource(payload)
		// Warm up chunk pool and slot cycling before measuring.
		for i := 0; i < 3; i++ {
			if _, err := ck.Checkpoint(ctx, src); err != nil {
				t.Fatalf("warmup Checkpoint: %v", err)
			}
		}
		return testing.AllocsPerRun(50, func() {
			if _, err := ck.Checkpoint(ctx, src); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
		})
	}

	off := mk(nil, blackbox.Config{})
	defer off.Close()
	baseline := run(off)

	cases := []struct {
		name     string
		observer func() obs.Observer
		bb       blackbox.Config
	}{
		{"recorder", func() obs.Observer { return obs.NewRecorder(1 << 12) }, blackbox.Config{}},
		{"recorder+ledger", func() obs.Observer {
			return obs.NewLedger(obs.LedgerConfig{SlowdownBudget: 1.05}, obs.NewRecorder(1<<12))
		}, blackbox.Config{}},
		{"recorder+ledger+blackbox", func() obs.Observer {
			return obs.NewLedger(obs.LedgerConfig{SlowdownBudget: 1.05},
				decision.New(decision.Config{}, obs.NewRecorder(1<<12)))
		}, blackbox.Config{
			Bytes:      blackbox.SectorBytes + 4*4096,
			FrameBytes: 4096,
			FlushEvery: -1, // manual: keep AllocsPerRun free of goroutine noise
		}},
	}
	for _, tc := range cases {
		ck := mk(tc.observer(), tc.bb)
		got := run(ck)
		if tc.bb.Enabled() && ck.BlackBox() == nil {
			t.Fatalf("%s: flusher did not attach", tc.name)
		}
		ck.Close()
		if got > baseline {
			t.Errorf("%s added allocations: %v vs %v baseline", tc.name, got, baseline)
		}
	}
}

// TestDeltaSaveAttribution: a delta-mode save reads its payload through
// per-chunk copy spans exactly as a full save does, and its hashing and
// diffing land in delta-encode spans — for the keyframe and the delta.
func TestDeltaSaveAttribution(t *testing.T) {
	rec := obs.NewRecorder(obs.DefaultCapacity)
	cfg := Config{
		Concurrent: 1, SlotBytes: 64 << 10, Writers: 2, ChunkBytes: 4096,
		VerifyPayload: true, DeltaEvery: 1, DeltaKeyframe: 4, Observer: rec,
	}
	ck, err := New(storage.NewRAM(DeviceBytesFor(cfg)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()

	payload := sparsePayload(3, 0, 50_000)
	for i, kind := range []string{"keyframe", "delta"} {
		if i > 0 {
			mutateSparse(payload, 3, uint64(i))
		}
		rec.TakeEvents()
		if _, err := ck.Checkpoint(context.Background(), BytesSource(payload)); err != nil {
			t.Fatalf("%s save: %v", kind, err)
		}
		var copied int64
		encodes := 0
		for _, ev := range rec.TakeEvents() {
			switch ev.Phase {
			case obs.PhaseCopy:
				copied += ev.Bytes
			case obs.PhaseDeltaEncode:
				encodes++
			}
		}
		if copied != int64(len(payload)) {
			t.Errorf("%s save: copy spans cover %d bytes, want the %d-byte payload", kind, copied, len(payload))
		}
		if encodes == 0 {
			t.Errorf("%s save: no delta-encode span", kind)
		}
	}
	if st := ck.Stats(); st.KeyframeSaves != 1 || st.DeltaSaves != 1 {
		t.Fatalf("saved %d keyframes and %d deltas, want one of each", st.KeyframeSaves, st.DeltaSaves)
	}
}
