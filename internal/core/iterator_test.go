package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"pccheck/internal/pmem"
	"pccheck/internal/storage"
)

func iteratorFixture(t *testing.T, payloadLen int) (storage.Device, []byte) {
	t.Helper()
	dev := storage.NewPMEM(pmem.NewRegion(int(DeviceBytes(1, int64(payloadLen)))))
	c, err := New(dev, Config{Concurrent: 1, SlotBytes: int64(payloadLen), VerifyPayload: true})
	if err != nil {
		t.Fatal(err)
	}
	want := payload(99, payloadLen)
	if _, err := c.Checkpoint(context.Background(), BytesSource(want)); err != nil {
		t.Fatal(err)
	}
	return dev, want
}

func TestRecoveryIteratorStreamsWholePayload(t *testing.T) {
	dev, want := iteratorFixture(t, 10_000)
	it, err := NewRecoveryIterator(dev, 1024, 0)
	if err != nil {
		t.Fatal(err)
	}
	if it.Size() != 10_000 || it.Counter() != 1 || it.Position() != 0 {
		t.Fatalf("geometry: size=%d counter=%d pos=%d", it.Size(), it.Counter(), it.Position())
	}
	var got []byte
	buf := make([]byte, 4096)
	for !it.Done() {
		n, err := it.Next(buf)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, buf[:n]...)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("streamed payload mismatch")
	}
	// Exhausted iterator returns 0, nil.
	if n, err := it.Next(buf); n != 0 || err != nil {
		t.Fatalf("post-done Next: %d, %v", n, err)
	}
	if err := it.ClearCursor(); err != nil {
		t.Fatal(err)
	}
}

// The headline feature: a crash mid-restore resumes from the logged cursor
// rather than byte zero.
func TestRecoveryIteratorResumesAfterCrash(t *testing.T) {
	dev, want := iteratorFixture(t, 20_000)
	it, err := NewRecoveryIterator(dev, 2048, 0)
	if err != nil {
		t.Fatal(err)
	}
	var restored []byte
	buf := make([]byte, 2048)
	for i := 0; i < 4; i++ { // deliver 8 KB, logging each chunk
		n, err := it.Next(buf)
		if err != nil {
			t.Fatal(err)
		}
		restored = append(restored, buf[:n]...)
	}
	// "Crash" of the recovering process: a fresh iterator over the same
	// device must pick up at the durable cursor.
	it2, err := NewRecoveryIterator(dev, 2048, 0)
	if err != nil {
		t.Fatal(err)
	}
	if it2.Position() != int64(len(restored)) {
		t.Fatalf("resumed at %d, want %d", it2.Position(), len(restored))
	}
	for !it2.Done() {
		n, err := it2.Next(buf)
		if err != nil {
			t.Fatal(err)
		}
		restored = append(restored, buf[:n]...)
	}
	if !bytes.Equal(restored, want) {
		t.Fatal("resumed restore produced wrong payload")
	}
}

// A cursor logged for an older checkpoint must be ignored once a newer one
// is published.
func TestRecoveryIteratorIgnoresStaleCursor(t *testing.T) {
	const size = 8_000
	dev := storage.NewPMEM(pmem.NewRegion(int(DeviceBytes(1, size))))
	c, err := New(dev, Config{Concurrent: 1, SlotBytes: size})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Checkpoint(context.Background(), BytesSource(payload(1, size))); err != nil {
		t.Fatal(err)
	}
	it, err := NewRecoveryIterator(dev, 1024, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := it.Next(make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	// New checkpoint supersedes the one being restored.
	want2 := payload(2, size)
	if _, err := c.Checkpoint(context.Background(), BytesSource(want2)); err != nil {
		t.Fatal(err)
	}
	it2, err := NewRecoveryIterator(dev, 1024, 0)
	if err != nil {
		t.Fatal(err)
	}
	if it2.Counter() != 2 || it2.Position() != 0 {
		t.Fatalf("stale cursor applied: counter=%d pos=%d", it2.Counter(), it2.Position())
	}
	got := make([]byte, 0, size)
	buf := make([]byte, 4096)
	for !it2.Done() {
		n, err := it2.Next(buf)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, buf[:n]...)
	}
	if !bytes.Equal(got, want2) {
		t.Fatal("payload mismatch after supersession")
	}
}

func TestRecoveryIteratorReset(t *testing.T) {
	dev, want := iteratorFixture(t, 5_000)
	it, err := NewRecoveryIterator(dev, 512, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	for i := 0; i < 3; i++ {
		if _, err := it.Next(buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := it.Reset(); err != nil {
		t.Fatal(err)
	}
	if it.Position() != 0 {
		t.Fatalf("position after reset = %d", it.Position())
	}
	// And the durable cursor rewound too.
	it2, err := NewRecoveryIterator(dev, 512, 0)
	if err != nil {
		t.Fatal(err)
	}
	if it2.Position() != 0 {
		t.Fatalf("durable cursor after reset = %d", it2.Position())
	}
	var got []byte
	for !it2.Done() {
		n, err := it2.Next(buf)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, buf[:n]...)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("payload mismatch after reset")
	}
}

func TestRecoveryIteratorNoCheckpoint(t *testing.T) {
	dev := storage.NewRAM(DeviceBytes(1, 1024))
	if _, err := New(dev, Config{Concurrent: 1, SlotBytes: 1024}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewRecoveryIterator(dev, 0, 0); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("err = %v", err)
	}
}

func TestRecoveryIteratorZeroBuffer(t *testing.T) {
	dev, _ := iteratorFixture(t, 1000)
	it, err := NewRecoveryIterator(dev, 128, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := it.Next(nil); err == nil {
		t.Fatal("nil buffer accepted")
	}
}

// The cursor survives a power failure mid-recovery (it is written with
// Persist): fork the durable state after some progress and resume there.
func TestRecoveryIteratorCursorDurable(t *testing.T) {
	const size = 12_000
	region := pmem.NewRegion(int(DeviceBytes(1, size)))
	dev := storage.NewPMEM(region)
	c, err := New(dev, Config{Concurrent: 1, SlotBytes: size})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Checkpoint(context.Background(), BytesSource(payload(5, size))); err != nil {
		t.Fatal(err)
	}
	it, err := NewRecoveryIterator(dev, 3000, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3000)
	if _, err := it.Next(buf); err != nil {
		t.Fatal(err)
	}
	crashed := storage.NewPMEM(region.CloneDurable())
	it2, err := NewRecoveryIterator(crashed, 3000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if it2.Position() != 3000 {
		t.Fatalf("cursor lost in crash: position %d", it2.Position())
	}
}

// A streamed full-mode payload that fails its CRC must never complete: the
// Next that would finish delivery fails classified corrupt, whether the
// bad byte streams in this run or sat in a prefix a previous run delivered.
func TestRecoveryIteratorRejectsCorruptPayload(t *testing.T) {
	for _, resume := range []bool{false, true} {
		t.Run(fmt.Sprintf("resume=%v", resume), func(t *testing.T) {
			dev, _ := iteratorFixture(t, 3000)
			first, err := NewRecoveryIterator(dev, 1024, 0)
			if err != nil {
				t.Fatal(err)
			}
			if resume {
				if _, err := first.Next(make([]byte, 1024)); err != nil {
					t.Fatal(err)
				}
			}
			// Flip a bit inside the first KiB: already delivered when resuming.
			off := payloadBase(first.sb, first.meta.slot) + 100
			b := make([]byte, 1)
			if err := dev.ReadAt(b, off); err != nil {
				t.Fatal(err)
			}
			b[0] ^= 0x04
			if err := dev.Persist(b, off); err != nil {
				t.Fatal(err)
			}
			it, err := NewRecoveryIterator(dev, 1024, 0)
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 1024)
			for i := 0; i < 8 && !it.Done(); i++ {
				if _, err = it.Next(buf); err != nil {
					break
				}
			}
			if !storage.IsCorrupt(err) {
				t.Fatalf("streamed a bit-flipped payload: err = %v, delivered %d of %d", err, it.Position(), it.Size())
			}
			if it.Done() {
				t.Fatal("iterator reports a corrupt payload fully delivered")
			}
		})
	}
}
