package core

import (
	"bytes"
	"context"
	"hash/crc32"
	"testing"

	"pccheck/internal/storage"
)

// countingDevice counts ReadAt calls, pinning how many device reads a
// recovery makes.
type countingDevice struct {
	storage.Device
	reads int
}

func (d *countingDevice) ReadAt(p []byte, off int64) error {
	d.reads++
	return d.Device.ReadAt(p, off)
}

// Recovery resolves the pointer once, at payload level, and reuses what it
// verified: a full checkpoint costs superblock + two records + header +
// payload, and a delta chain one pass over the slot headers plus one
// payload read per link.
func TestRecoverReadCount(t *testing.T) {
	t.Run("full", func(t *testing.T) {
		cfg := Config{Concurrent: 1, SlotBytes: 4096, VerifyPayload: true}
		c, dev := deltaEngine(t, cfg)
		var want []byte
		for i := 0; i < 3; i++ {
			want = payload(int64(i), 3000)
			if _, err := c.Checkpoint(context.Background(), BytesSource(want)); err != nil {
				t.Fatal(err)
			}
		}
		cd := &countingDevice{Device: dev}
		got, ctr, err := Recover(cd)
		if err != nil || ctr != 3 || !bytes.Equal(got, want) {
			t.Fatalf("Recover = %d, %v (payload intact: %v)", ctr, err, bytes.Equal(got, want))
		}
		if cd.reads > 5 {
			t.Fatalf("full-mode Recover made %d reads, want at most 5", cd.reads)
		}
	})
	t.Run("delta", func(t *testing.T) {
		cfg := Config{Concurrent: 1, SlotBytes: 8192, DeltaEvery: 1, DeltaKeyframe: 4, VerifyPayload: true}
		c, dev := deltaEngine(t, cfg)
		p := sparsePayload(5, 0, 6000)
		for i := 0; i < 4; i++ { // keyframe + 3 deltas
			if i > 0 {
				mutateSparse(p, 5, uint64(i))
			}
			if _, err := c.Checkpoint(context.Background(), BytesSource(p)); err != nil {
				t.Fatal(err)
			}
		}
		links := len(c.chain)
		if links != 4 || c.sb.slots != 6 {
			t.Fatalf("fixture: %d links on %d slots, want 4 on 6", links, c.sb.slots)
		}
		cd := &countingDevice{Device: dev}
		got, ctr, err := Recover(cd)
		if err != nil || ctr != 4 || !bytes.Equal(got, p) {
			t.Fatalf("Recover = %d, %v (payload intact: %v)", ctr, err, bytes.Equal(got, p))
		}
		if limit := 3 + c.sb.slots + links; cd.reads > limit {
			t.Fatalf("delta-chain Recover made %d reads, want at most %d", cd.reads, limit)
		}
	})
}

// FuzzVerifySlot feeds arbitrary header and payload bytes into a slot of a
// formatted device. verifySlot must never panic, and whatever it accepts
// at payload level must satisfy every slot invariant: live epoch, the
// wanted counter and size within the slot, a known kind, no tombstone, a
// matching CRC when one is present and a decodable delta record.
func FuzzVerifySlot(f *testing.F) {
	const slotBytes = 1024
	seed := func(cfg Config, saves int) {
		c, dev := deltaEngine(f, cfg)
		p := sparsePayload(7, 0, 700)
		for i := 0; i < saves; i++ {
			if i > 0 {
				mutateSparse(p, 7, uint64(i))
			}
			if _, err := c.Checkpoint(context.Background(), BytesSource(p)); err != nil {
				f.Fatal(err)
			}
		}
		m := *c.checkAddr.Load()
		hdr := make([]byte, slotHeaderSize)
		body := make([]byte, m.size)
		if err := dev.ReadAt(hdr, slotBase(c.sb, m.slot)); err != nil {
			f.Fatal(err)
		}
		if err := dev.ReadAt(body, payloadBase(c.sb, m.slot)); err != nil {
			f.Fatal(err)
		}
		f.Add(hdr, body, m.counter, m.size, c.sb.epoch)
		h, _ := decodeSlotHeader(hdr)
		h.flags = slotFlagQuarantined
		f.Add(encodeSlotHeader(h), body, m.counter, int64(anySize), c.sb.epoch)
	}
	seed(Config{Concurrent: 1, SlotBytes: slotBytes, VerifyPayload: true}, 2)
	seed(Config{Concurrent: 1, SlotBytes: slotBytes, DeltaEvery: 1, DeltaKeyframe: 2, VerifyPayload: true}, 2)
	f.Add([]byte{}, []byte{}, uint64(0), int64(0), uint64(0))

	f.Fuzz(func(t *testing.T, hdr, body []byte, counter uint64, size int64, epoch uint64) {
		sb := superblock{slots: 2, slotBytes: slotBytes, epoch: epoch}
		dev := storage.NewRAM(headerSize + 2*slotStride(slotBytes))
		if len(hdr) > slotHeaderSize {
			hdr = hdr[:slotHeaderSize]
		}
		if len(body) > slotBytes {
			body = body[:slotBytes]
		}
		if err := dev.WriteAt(hdr, slotBase(sb, 1)); err != nil {
			t.Fatal(err)
		}
		if err := dev.WriteAt(body, payloadBase(sb, 1)); err != nil {
			t.Fatal(err)
		}
		want := slotWant{counter: counter, size: size}
		_, _, herr := verifySlot(dev, sb, 1, want, levelHeader)
		h, p, err := verifySlot(dev, sb, 1, want, levelPayload)
		if err != nil {
			return
		}
		if herr != nil {
			t.Fatalf("accepted at payload level, rejected at header level: %v", herr)
		}
		switch {
		case h.epoch != sb.epoch:
			t.Fatalf("accepted epoch %d on an epoch-%d device", h.epoch, sb.epoch)
		case h.counter != counter:
			t.Fatalf("accepted counter %d, wanted %d", h.counter, counter)
		case size != anySize && h.size != size, h.size < 0, h.size > slotBytes, int64(len(p)) != h.size:
			t.Fatalf("accepted size %d (payload %d bytes), wanted %d within %d", h.size, len(p), size, slotBytes)
		case h.kind > slotKindDelta:
			t.Fatalf("accepted unknown kind %d", h.kind)
		case h.quarantined():
			t.Fatal("accepted a tombstone")
		case h.hasCRC && crc32.ChecksumIEEE(p) != h.payloadCRC:
			t.Fatal("accepted a payload that fails its CRC")
		}
		if h.kind == slotKindDelta {
			if _, err := decodeDelta(p); err != nil {
				t.Fatalf("accepted an undecodable delta record: %v", err)
			}
		}
	})
}
