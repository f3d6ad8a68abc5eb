package main

import (
	"bytes"
	"context"
	"testing"
	"time"

	"pccheck"
	"pccheck/internal/core"
	"pccheck/internal/dist"
	"pccheck/internal/storage"
)

// outcome is what a deterministic drive of one workload leaves behind.
// The timing wrappers must not change any of it.
type outcome struct {
	stats      []pccheck.Stats
	watermarks []uint64
	recovered  [][]byte
	counters   []uint64
}

// deterministic keeps the Stats fields that depend only on the operations
// run, not on their timing.
func deterministic(s pccheck.Stats) pccheck.Stats {
	return pccheck.Stats{
		Published: s.Published, Obsolete: s.Obsolete,
		BytesWritten: s.BytesWritten, BytesPersisted: s.BytesPersisted,
		DeltaSaves: s.DeltaSaves, KeyframeSaves: s.KeyframeSaves,
		SlotWaits: s.SlotWaits, CASRetries: s.CASRetries, FailedSaves: s.FailedSaves,
	}
}

func (o *outcome) recover(t *testing.T, dev storage.Device) {
	t.Helper()
	p, c, err := core.Recover(dev)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	o.recovered = append(o.recovered, p)
	o.counters = append(o.counters, c)
}

func driveSaveFull(t *testing.T, tr *tracer) outcome {
	e := &env{seed: 3, tr: tr}
	inst, err := setupSaveFull(e)
	if err != nil {
		t.Fatal(err)
	}
	w := inst.(*saveFull)
	for i := 0; i < 7; i++ {
		if err := w.saveOne(context.Background(), w.sv); err != nil {
			t.Fatal(err)
		}
	}
	var o outcome
	o.stats = append(o.stats, deterministic(w.ck.Stats()))
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	o.recover(t, w.level)
	if !bytes.Equal(o.recovered[0], w.pl.version(w.ackVer)) {
		t.Errorf("recovered bytes are not version %d", w.ackVer)
	}
	return o
}

func driveTrainSparse(t *testing.T, tr *tracer) outcome {
	e := &env{seed: 3, tr: tr}
	inst, err := setupTrainSparse(e)
	if err != nil {
		t.Fatal(err)
	}
	w := inst.(*trainSparse)
	for round := 0; round < trainKeyframe+2; round++ {
		w.round(e, w.m)
	}
	if f := e.failed.Load(); f != 0 {
		t.Fatalf("%d failed operations: %v", f, e.errs)
	}
	var o outcome
	for _, rk := range w.ranks {
		o.stats = append(o.stats, deterministic(rk.ck.Stats()))
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	for i, rk := range w.ranks {
		o.recover(t, rk.level)
		if !bytes.Equal(o.recovered[i], rk.lastSnap) {
			t.Errorf("rank %d recovered other bytes than its last snapshot", i)
		}
	}
	return o
}

func driveRestoreTiered(t *testing.T, tr *tracer) outcome {
	e := &env{seed: 3, tr: tr}
	inst, err := setupRestoreTiered(e)
	if err != nil {
		t.Fatal(err)
	}
	w := inst.(*restoreTiered)
	for i := 0; i < 6; i++ {
		if _, err := w.saveNext(context.Background(), w.sv); err != nil {
			t.Fatal(err)
		}
	}
	if !w.ck.WaitDrained(30 * time.Second) {
		t.Fatal("replica did not drain")
	}
	var o outcome
	o.stats = append(o.stats, deterministic(w.ck.Stats()))
	for _, st := range w.ck.TierStatus() {
		o.watermarks = append(o.watermarks, st.DurableCounter)
	}
	p, _, err := w.ck.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	o.recovered = append(o.recovered, p)
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	o.recover(t, w.tier1)
	return o
}

// TestWrappersTransparent drives every workload the same way with and
// without the timing wrappers and requires the same engine counters, tier
// watermarks and recovered bytes.
func TestWrappersTransparent(t *testing.T) {
	for name, drive := range map[string]func(*testing.T, *tracer) outcome{
		"save-full":      driveSaveFull,
		"train-sparse":   driveTrainSparse,
		"restore-tiered": driveRestoreTiered,
	} {
		t.Run(name, func(t *testing.T) {
			plain := drive(t, nil)
			traced := drive(t, newTracer())
			for i := range plain.stats {
				if plain.stats[i] != traced.stats[i] {
					t.Errorf("stats[%d]: plain %+v, traced %+v", i, plain.stats[i], traced.stats[i])
				}
			}
			if len(plain.watermarks) != len(traced.watermarks) {
				t.Fatalf("watermarks: plain %v, traced %v", plain.watermarks, traced.watermarks)
			}
			for i := range plain.watermarks {
				if plain.watermarks[i] != traced.watermarks[i] || plain.watermarks[i] == 0 {
					t.Errorf("watermarks: plain %v, traced %v", plain.watermarks, traced.watermarks)
				}
			}
			for i := range plain.recovered {
				if !bytes.Equal(plain.recovered[i], traced.recovered[i]) {
					t.Errorf("recovered[%d] differs between plain and traced runs", i)
				}
			}
			for i := range plain.counters {
				if plain.counters[i] != traced.counters[i] {
					t.Errorf("recovered counter[%d]: plain %d, traced %d", i, plain.counters[i], traced.counters[i])
				}
			}
		})
	}
}

func isMarker(d storage.Device) bool {
	_, ok := d.(storage.Marker)
	return ok
}

type peerFake struct {
	dist.Transport
	hooked bool
}

func (p *peerFake) SetPeerHook(func(int, bool)) { p.hooked = true }

// TestWrappersKeepOptionalInterfaces checks that the wrappers forward the
// optional interfaces the program finds by type assertion.
func TestWrappersKeepOptionalInterfaces(t *testing.T) {
	tr := newTracer()
	crash := storage.NewCrashDevice(1<<16, storage.KindSSD)
	dev, _ := wrapDev(tr, crash, "storage", false)
	m, ok := dev.(storage.Marker)
	if !ok {
		t.Fatal("wrapped device hides storage.Marker")
	}
	m.Mark(7)
	if got := crash.HighestMark(crash.Ops()); got != 7 {
		t.Errorf("mark forwarded as %d, want 7", got)
	}
	if d, _ := wrapDev(tr, storage.NewRAM(64), "storage", false); isMarker(d) {
		t.Error("wrapped RAM device claims storage.Marker")
	}

	fake := &peerFake{Transport: pccheck.NewLocalTransports(1)[0]}
	wrapped, _ := wrapTransport(tr, fake)
	pe, ok := wrapped.(dist.PeerEvents)
	if !ok {
		t.Fatal("wrapped transport hides dist.PeerEvents")
	}
	pe.SetPeerHook(func(int, bool) {})
	if !fake.hooked {
		t.Error("SetPeerHook not forwarded")
	}
}
