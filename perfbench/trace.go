package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pccheck/internal/dist"
	"pccheck/internal/storage"
)

// The traced run wraps the benchmark's own objects around the program —
// the storage devices under the tiered composite, the SaveFrom read func
// and the coordination transport — and times every call into them from
// outside. Nothing inside the program is instrumented.

// maxSpans caps the spans kept for the trace file; metrics are computed
// on the fly and do not depend on it.
const maxSpans = 500_000

// span is one timed interval, in nanoseconds since the tracer started.
type span struct {
	name       string
	start, end int64
	id, parent int64
	counter    uint64
}

// tracer keeps spans in memory and writes them out at exit.
type tracer struct {
	t0      time.Time
	nextID  atomic.Int64
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) keep(sp ...span) {
	t.mu.Lock()
	for _, s := range sp {
		if len(t.spans) >= maxSpans {
			t.dropped++
			continue
		}
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

// op is a parent span in flight: a save, a load or a recovery. Its
// children are held until it ends so that they can
// carry the save's counter, which is known only then.
type op struct {
	tr        *tracer
	name      string
	id        int64
	start     int64
	mu        sync.Mutex
	firstRead int64 // first source read, for saves; -1 before it
	children  []span
	devReads  int
	lo, hi    int64 // device range this save wrote, for attributing barriers; guarded by the device's mu
}

func (t *tracer) begin(name string) *op {
	return &op{tr: t, name: name, id: t.nextID.Add(1), start: t.now(), firstRead: -1, lo: -1}
}

func (o *op) child(name string, start, end int64) {
	o.mu.Lock()
	o.children = append(o.children, span{name: name, start: start, end: end, id: o.tr.nextID.Add(1), parent: o.id})
	o.mu.Unlock()
}

// end closes the op and returns its self time: its duration minus the
// part of it its children cover.
func (o *op) end(counter uint64) time.Duration {
	end := o.tr.now()
	o.mu.Lock()
	kids := o.children
	o.children = nil
	o.mu.Unlock()
	ivs := make([][2]int64, 0, len(kids))
	for i := range kids {
		kids[i].counter = counter
		ivs = append(ivs, [2]int64{max(kids[i].start, o.start), min(kids[i].end, end)})
	}
	covered := unionLen(ivs)
	o.tr.keep(append(kids, span{name: o.name, start: o.start, end: end, id: o.id, counter: counter})...)
	return time.Duration(end - o.start - covered)
}

// unionLen is the total length covered by a set of intervals.
func unionLen(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curLo, curHi := int64(0), int64(-1)
	for _, iv := range ivs {
		if iv[1] <= iv[0] {
			continue
		}
		if iv[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = iv[0], iv[1]
		} else if iv[1] > curHi {
			curHi = iv[1]
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// devCounters accumulate every call into one wrapped device.
type devCounters struct {
	writeCalls, writeBytes, writeNs atomic.Int64
	syncCalls, syncNs               atomic.Int64
	persistCalls, persistNs         atomic.Int64
	readCalls, readBytes, readNs    atomic.Int64
}

type devTotals struct {
	writeCalls, writeBytes, writeNs int64
	syncCalls, syncNs               int64
	persistCalls, persistNs         int64
	readCalls, readBytes, readNs    int64
}

func (c *devCounters) totals() devTotals {
	return devTotals{
		c.writeCalls.Load(), c.writeBytes.Load(), c.writeNs.Load(),
		c.syncCalls.Load(), c.syncNs.Load(),
		c.persistCalls.Load(), c.persistNs.Load(),
		c.readCalls.Load(), c.readBytes.Load(), c.readNs.Load(),
	}
}

func (a devTotals) plus(b devTotals) devTotals {
	return devTotals{
		a.writeCalls + b.writeCalls, a.writeBytes + b.writeBytes, a.writeNs + b.writeNs,
		a.syncCalls + b.syncCalls, a.syncNs + b.syncNs,
		a.persistCalls + b.persistCalls, a.persistNs + b.persistNs,
		a.readCalls + b.readCalls, a.readBytes + b.readBytes, a.readNs + b.readNs,
	}
}

func (a devTotals) minus(b devTotals) devTotals {
	return devTotals{
		a.writeCalls - b.writeCalls, a.writeBytes - b.writeBytes, a.writeNs - b.writeNs,
		a.syncCalls - b.syncCalls, a.syncNs - b.syncNs,
		a.persistCalls - b.persistCalls, a.persistNs - b.persistNs,
		a.readCalls - b.readCalls, a.readBytes - b.readBytes, a.readNs - b.readNs,
	}
}

// traceDev times every call into one storage level and attributes it to
// the save or read that caused it. Payload writes are matched to their
// save by the staging buffer the save's read func just filled; barriers
// by the device range the save wrote. With serial set (delta mode, where
// the engine runs one save at a time per device) every call belongs to
// the save that is reading its source.
type traceDev struct {
	storage.Device
	tr     *tracer
	layer  string
	serial bool
	c      devCounters

	mu       sync.Mutex
	active   []*op
	chunks   map[*byte]*op
	serialOp *op
	header   *op
	reader   *op
}

// markedDev is a traceDev over a level that implements storage.Marker:
// the tiered drainer finds Marker by type assertion, so the wrapper must
// keep it visible.
type markedDev struct{ *traceDev }

func (d markedDev) Mark(v uint64) { d.Device.(storage.Marker).Mark(v) }

// wrapDev returns dev itself when tr is nil (the untraced run).
func wrapDev(tr *tracer, dev storage.Device, layer string, serial bool) (storage.Device, *traceDev) {
	if tr == nil {
		return dev, nil
	}
	d := &traceDev{Device: dev, tr: tr, layer: layer, serial: serial, chunks: map[*byte]*op{}}
	if _, ok := dev.(storage.Marker); ok {
		return markedDev{d}, d
	}
	return d, d
}

// headerSlack is how far below a save's first payload write its slot
// header may sit.
const headerSlack = 4096

func (d *traceDev) beginSave(o *op) {
	d.mu.Lock()
	d.active = append(d.active, o)
	d.mu.Unlock()
}

func (d *traceDev) endSave(o *op) {
	d.mu.Lock()
	for i, a := range d.active {
		if a == o {
			d.active = append(d.active[:i], d.active[i+1:]...)
			break
		}
	}
	for k, v := range d.chunks {
		if v == o {
			delete(d.chunks, k)
		}
	}
	if d.serialOp == o {
		d.serialOp = nil
	}
	if d.header == o {
		d.header = nil
	}
	d.mu.Unlock()
}

// sourceRead records that o's read func filled p, so the device write of
// p is o's.
func (d *traceDev) sourceRead(o *op, p []byte) {
	d.mu.Lock()
	if d.serial {
		d.serialOp = o
	} else if len(p) > 0 {
		d.chunks[&p[0]] = o
	}
	d.mu.Unlock()
}

func (d *traceDev) setReader(o *op) {
	d.mu.Lock()
	d.reader = o
	d.mu.Unlock()
}

func (d *traceDev) inRange(off int64) *op {
	for _, o := range d.active {
		if o.lo >= 0 && o.lo-headerSlack <= off && off < o.hi {
			return o
		}
	}
	return nil
}

func (d *traceDev) ownerOfWrite(p []byte, off int64) *op {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.serial {
		return d.serialOp
	}
	if len(p) == 0 {
		return nil
	}
	o := d.chunks[&p[0]]
	if o != nil {
		if o.lo < 0 || off < o.lo {
			o.lo = off
		}
		o.hi = max(o.hi, off+int64(len(p)))
	}
	return o
}

func (d *traceDev) ownerOfBarrier(off int64, persist bool) *op {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.serial {
		return d.serialOp
	}
	if o := d.inRange(off); o != nil {
		if persist {
			d.header = o // the pointer record follows its slot header
		}
		return o
	}
	return d.header
}

func (d *traceDev) readerOp() *op {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.reader
}

func (d *traceDev) note(o *op, name string, start int64) {
	end := d.tr.now()
	if o != nil {
		o.child(name, start, end)
		return
	}
	d.tr.keep(span{name: name, start: start, end: end, id: d.tr.nextID.Add(1)})
}

func (d *traceDev) WriteAt(p []byte, off int64) error {
	start := d.tr.now()
	err := d.Device.WriteAt(p, off)
	d.c.writeCalls.Add(1)
	d.c.writeBytes.Add(int64(len(p)))
	d.c.writeNs.Add(d.tr.now() - start)
	d.note(d.ownerOfWrite(p, off), d.layer+".write", start)
	return err
}

func (d *traceDev) Sync(off, n int64) error {
	start := d.tr.now()
	err := d.Device.Sync(off, n)
	d.c.syncCalls.Add(1)
	d.c.syncNs.Add(d.tr.now() - start)
	d.note(d.ownerOfBarrier(off, false), d.layer+".sync", start)
	return err
}

func (d *traceDev) Persist(p []byte, off int64) error {
	start := d.tr.now()
	err := d.Device.Persist(p, off)
	d.c.persistCalls.Add(1)
	d.c.persistNs.Add(d.tr.now() - start)
	d.note(d.ownerOfBarrier(off, true), d.layer+".persist", start)
	return err
}

func (d *traceDev) ReadAt(p []byte, off int64) error {
	start := d.tr.now()
	err := d.Device.ReadAt(p, off)
	d.c.readCalls.Add(1)
	d.c.readBytes.Add(int64(len(p)))
	d.c.readNs.Add(d.tr.now() - start)
	o := d.readerOp()
	if o != nil {
		o.mu.Lock()
		o.devReads++
		o.mu.Unlock()
	}
	d.note(o, d.layer+".read", start)
	return err
}

// traceTransport counts and times every Send into the coordination layer.
type traceTransport struct {
	dist.Transport
	tr    *tracer
	sends atomic.Int64
}

// peerTransport keeps dist.PeerEvents visible through the wrapper: the
// coordinator finds it by type assertion.
type peerTransport struct{ *traceTransport }

func (t peerTransport) SetPeerHook(h func(rank int, up bool)) {
	t.Transport.(dist.PeerEvents).SetPeerHook(h)
}

// wrapTransport returns tr itself when the tracer is nil.
func wrapTransport(t *tracer, tr dist.Transport) (dist.Transport, *traceTransport) {
	if t == nil {
		return tr, nil
	}
	w := &traceTransport{Transport: tr, tr: t}
	if _, ok := tr.(dist.PeerEvents); ok {
		return peerTransport{w}, w
	}
	return w, w
}

func (t *traceTransport) Send(ctx context.Context, to int, msg dist.Message) error {
	start := t.tr.now()
	err := t.Transport.Send(ctx, to, msg)
	t.sends.Add(1)
	t.tr.keep(span{name: "dist.send", start: start, end: t.tr.now(), id: t.tr.nextID.Add(1), counter: msg.CheckpointID})
	return err
}

// writeChrome writes the kept spans as Chrome trace-event JSON, which
// Perfetto opens. Spans are packed onto the fewest lanes on which none
// overlap, since a viewer nests complete events by time on each lane.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	dropped := t.dropped
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].start != spans[j].start {
			return spans[i].start < spans[j].start
		}
		return spans[i].end > spans[j].end
	})
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"otherData\":{\"dropped_spans\":%d},\"traceEvents\":[\n", dropped)
	var laneEnd []int64
	for i, s := range spans {
		lane := -1
		for l, e := range laneEnd {
			if e <= s.start {
				lane = l
				break
			}
		}
		if lane < 0 {
			lane = len(laneEnd)
			laneEnd = append(laneEnd, 0)
		}
		laneEnd[lane] = s.end
		name, _ := json.Marshal(s.name)
		sep := ","
		if i == len(spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, "{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"counter\":%d}}%s\n",
			name, lane, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.id, s.parent, s.counter, sep)
	}
	fmt.Fprintln(w, "]}")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
