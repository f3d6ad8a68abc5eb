package core

import (
	"context"
	"testing"

	"pccheck/internal/storage"
)

func TestInspectEmptyFormatted(t *testing.T) {
	dev := storage.NewRAM(DeviceBytes(2, 1024))
	if _, err := New(dev, Config{Concurrent: 2, SlotBytes: 1024}); err != nil {
		t.Fatal(err)
	}
	rep, err := Inspect(dev, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Slots != 3 || rep.SlotBytes != 1024 {
		t.Fatalf("geometry: %d × %d", rep.Slots, rep.SlotBytes)
	}
	if rep.Recoverable {
		t.Fatal("empty device reported recoverable")
	}
	if rep.Records[0].Valid || rep.Records[1].Valid {
		t.Fatal("empty device has valid records")
	}
	if len(rep.SlotInfos) != 3 {
		t.Fatalf("slot infos: %d", len(rep.SlotInfos))
	}
	if rep.Cursor != nil {
		t.Fatal("phantom cursor")
	}
}

func TestInspectAfterCheckpoints(t *testing.T) {
	dev := storage.NewRAM(DeviceBytes(1, 2048))
	c, err := New(dev, Config{Concurrent: 1, SlotBytes: 2048, VerifyPayload: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.Checkpoint(context.Background(), BytesSource(payload(int64(i), 1500))); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := Inspect(dev, true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Recoverable || rep.Latest.Counter != 3 {
		t.Fatalf("latest: %+v", rep.Latest)
	}
	// Exactly one slot is marked published, and it matches the pointer.
	published := 0
	for _, s := range rep.SlotInfos {
		if s.Published {
			published++
			if s.Counter != 3 {
				t.Fatalf("published slot holds counter %d", s.Counter)
			}
			if s.PayloadOK == nil || !*s.PayloadOK {
				t.Fatal("published payload failed verification")
			}
		}
	}
	if published != 1 {
		t.Fatalf("published slots = %d", published)
	}
	// Both record locations are in use after 3 checkpoints.
	if !rep.Records[0].Valid || !rep.Records[1].Valid {
		t.Fatalf("records: %+v", rep.Records)
	}
}

func TestInspectDetectsCorruptPayload(t *testing.T) {
	dev := storage.NewRAM(DeviceBytes(1, 1024))
	c, err := New(dev, Config{Concurrent: 1, SlotBytes: 1024, VerifyPayload: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Checkpoint(context.Background(), BytesSource(payload(1, 800))); err != nil {
		t.Fatal(err)
	}
	rep, err := Inspect(dev, true)
	if err != nil {
		t.Fatal(err)
	}
	slot := rep.Latest.Slot
	// Corrupt one payload byte behind the engine's back.
	if err := dev.WriteAt([]byte{0xEE}, payloadBase(superblock{slots: 2, slotBytes: 1024}, slot)+10); err != nil {
		t.Fatal(err)
	}
	rep2, err := Inspect(dev, true)
	if err != nil {
		t.Fatal(err)
	}
	info := rep2.SlotInfos[slot]
	if info.PayloadOK == nil || *info.PayloadOK {
		t.Fatal("corruption not flagged")
	}
}

func TestInspectReportsCursor(t *testing.T) {
	dev, _ := iteratorFixture(t, 4096)
	it, err := NewRecoveryIterator(dev, 1024, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := it.Next(make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	rep, err := Inspect(dev, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cursor == nil || rep.Cursor.Position != 1024 || rep.Cursor.Counter != 1 {
		t.Fatalf("cursor: %+v", rep.Cursor)
	}
}

func TestInspectUnformatted(t *testing.T) {
	if _, err := Inspect(storage.NewRAM(4096), false); err == nil {
		t.Fatal("unformatted device accepted")
	}
}

func TestInspectDeltaChain(t *testing.T) {
	cfg := Config{Concurrent: 1, SlotBytes: 8192, DeltaEvery: 1, DeltaKeyframe: 4, VerifyPayload: true}
	c, dev := deltaEngine(t, cfg)
	p := sparsePayload(8, 0, 6000)
	for i := 0; i < 3; i++ { // keyframe + 2 deltas
		if i > 0 {
			mutateSparse(p, 8, uint64(i))
		}
		if _, err := c.Checkpoint(context.Background(), BytesSource(p)); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := Inspect(dev, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeltaKeyframe != 4 {
		t.Fatalf("DeltaKeyframe = %d, want 4", rep.DeltaKeyframe)
	}
	if !rep.Recoverable || rep.LatestFullSize != 6000 {
		t.Fatalf("latest: %+v full=%d", rep.Latest, rep.LatestFullSize)
	}
	if len(rep.Chain) != 3 || rep.Chain[0].Kind != 0 || rep.Chain[1].Kind != 1 || rep.Chain[2].Kind != 1 {
		t.Fatalf("chain: %+v", rep.Chain)
	}
	inChain := 0
	for _, s := range rep.SlotInfos {
		if s.InChain {
			inChain++
			if s.PayloadOK == nil || !*s.PayloadOK {
				t.Fatalf("chain slot %d payload not verified OK", s.Index)
			}
		}
		if s.HeaderValid && s.Kind == slotKindDelta && s.InChain && s.FullSize != 6000 {
			t.Fatalf("delta slot %d fullSize=%d", s.Index, s.FullSize)
		}
	}
	if inChain != 3 {
		t.Fatalf("%d slots in chain, want 3", inChain)
	}
	if !rep.Healthy() {
		t.Fatal("intact delta device reported unhealthy")
	}
}

// TestReportHealthy covers the exit-status contract pccheck-inspect builds
// on: intact devices are healthy, devices whose records exist but cannot
// serve recovery (or whose published payload is corrupt) are not.
func TestReportHealthy(t *testing.T) {
	// Intact device.
	dev := storage.NewRAM(DeviceBytes(1, 1024))
	c, err := New(dev, Config{Concurrent: 1, SlotBytes: 1024, VerifyPayload: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Checkpoint(context.Background(), BytesSource(payload(1, 800))); err != nil {
		t.Fatal(err)
	}
	rep, err := Inspect(dev, true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy() {
		t.Fatal("intact device reported unhealthy")
	}
	// Corrupt the published payload: unhealthy (only when verified).
	if err := dev.WriteAt([]byte{0x5A}, payloadBase(superblock{slots: 2, slotBytes: 1024}, rep.Latest.Slot)+3); err != nil {
		t.Fatal(err)
	}
	if rep2, _ := Inspect(dev, true); rep2.Healthy() {
		t.Fatal("corrupt published payload reported healthy")
	}
	if rep2, _ := Inspect(dev, false); !rep2.Healthy() {
		t.Fatal("unverified inspect cannot see payload corruption, must stay healthy")
	}
	// Smash the published slot header instead: the pointer record is valid
	// but recovery rejects it → unhealthy even without -verify.
	if err := dev.WriteAt(make([]byte, slotHeaderSize), slotBase(superblock{slots: 2, slotBytes: 1024}, rep.Latest.Slot)); err != nil {
		t.Fatal(err)
	}
	if rep3, _ := Inspect(dev, false); rep3.Healthy() {
		t.Fatal("record pointing at a dead slot reported healthy")
	}
	// Empty-but-formatted is healthy: no record claims anything.
	dev2 := storage.NewRAM(DeviceBytes(1, 1024))
	if _, err := New(dev2, Config{Concurrent: 1, SlotBytes: 1024}); err != nil {
		t.Fatal(err)
	}
	if rep4, _ := Inspect(dev2, false); !rep4.Healthy() {
		t.Fatal("empty formatted device reported unhealthy")
	}
}

// An unreadable published payload is damage verify must surface: the slot
// reports PayloadOK=false and the device is unhealthy (pccheck-inspect
// exits 3), matching Recover, which cannot serve it.
func TestInspectFlagsUnreadablePublishedPayload(t *testing.T) {
	fd := storage.NewFaultDevice(storage.NewRAM(DeviceBytes(1, 1024)))
	c, err := New(fd, Config{Concurrent: 1, SlotBytes: 1024, VerifyPayload: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Checkpoint(context.Background(), BytesSource(payload(1, 800))); err != nil {
		t.Fatal(err)
	}
	slot := c.checkAddr.Load().slot
	fd.PoisonRead(payloadBase(c.sb, slot)+512, 64)
	if _, _, err := Recover(fd); err == nil {
		t.Fatal("Recover served an unreadable payload")
	}
	rep, err := Inspect(fd, true)
	if err != nil {
		t.Fatal(err)
	}
	if ok := rep.SlotInfos[slot].PayloadOK; ok == nil || *ok {
		t.Fatalf("unreadable published payload: PayloadOK = %v, want false", ok)
	}
	if rep.Healthy() {
		t.Fatal("unreadable published payload reported healthy")
	}
	if rep, _ := Inspect(fd, false); !rep.Healthy() {
		t.Fatal("unverified inspect cannot see payload damage, must stay healthy")
	}
}

// With an older record to fall back to, a corrupt tip payload makes
// verified inspection report what Recover serves — the fallback — and
// flag the lost newest checkpoint as unhealthy.
func TestInspectCorruptTipFallsBackUnhealthy(t *testing.T) {
	dev := storage.NewRAM(DeviceBytes(1, 1024))
	c, err := New(dev, Config{Concurrent: 1, SlotBytes: 1024, VerifyPayload: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := c.Checkpoint(context.Background(), BytesSource(payload(int64(i), 800))); err != nil {
			t.Fatal(err)
		}
	}
	tip := *c.checkAddr.Load()
	if err := dev.WriteAt([]byte{0xEE}, payloadBase(c.sb, tip.slot)+10); err != nil {
		t.Fatal(err)
	}
	rep, err := Inspect(dev, true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Recoverable || rep.Latest.Counter != 1 {
		t.Fatalf("latest = %+v, want the fallback to checkpoint 1", rep.Latest)
	}
	if ok := rep.SlotInfos[tip.slot].PayloadOK; ok == nil || *ok {
		t.Fatalf("corrupt tip: PayloadOK = %v, want false", ok)
	}
	if rep.Healthy() {
		t.Fatal("device that lost its newest checkpoint reported healthy")
	}
}
