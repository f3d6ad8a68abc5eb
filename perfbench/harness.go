package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pccheck"
	"pccheck/internal/core"
	"pccheck/internal/storage"
)

// env carries one measured phase: its seed and length, the tracer (nil in
// the untraced run), the metrics it reports and its failure accounting.
// An operation is a save, a read or a recovery; a failed one either
// returned an error or produced bytes that did not check out.
type env struct {
	seed   int64
	runFor time.Duration
	tr     *tracer
	e2e    results // end-to-end figures other than timings
	timing results // end-to-end timings; e2eNames says which are gated
	layer  results

	mem0 memSnap
	t0   time.Time

	attempted atomic.Int64
	failed    atomic.Int64
	errMu     sync.Mutex
	errs      []string
}

// done counts one operation and reports whether it succeeded.
func (e *env) done(err error) bool {
	e.attempted.Add(1)
	if err == nil {
		return true
	}
	e.failed.Add(1)
	e.errMu.Lock()
	if len(e.errs) < 8 {
		e.errs = append(e.errs, err.Error())
	}
	e.errMu.Unlock()
	return false
}

// engineBytes is the device size CreateTiered needs for cfg.
func engineBytes(cfg pccheck.Config) int64 {
	return core.DeviceBytesFor(core.Config{
		Concurrent: cfg.Concurrent, SlotBytes: cfg.MaxBytes, DeltaKeyframe: cfg.Delta.Keyframe,
	})
}

// saveMetrics are the traced figures of one workload's saves.
type saveMetrics struct {
	self, admit        samples
	srcNs, srcBytes    atomic.Int64
	srcCalls, srcSaves atomic.Int64
}

// saver runs one checkpointer's saves. Traced, it wraps the read func and
// records the save's span, its admission wait and its self time.
type saver struct {
	ck  *pccheck.Checkpointer
	tr  *tracer
	dev *traceDev
	m   *saveMetrics
}

func (s *saver) save(ctx context.Context, size int64, fill func(p []byte, off int64) error) (uint64, error) {
	if s.tr == nil {
		return s.ck.SaveFrom(ctx, size, fill)
	}
	m := s.m
	o := s.tr.begin("core.save")
	s.dev.beginSave(o)
	read := func(p []byte, off int64) error {
		start := s.tr.now()
		o.mu.Lock()
		if o.firstRead < 0 {
			o.firstRead = start
		}
		o.mu.Unlock()
		s.dev.sourceRead(o, p)
		err := fill(p, off)
		end := s.tr.now()
		o.child("src.read", start, end)
		m.srcNs.Add(end - start)
		m.srcBytes.Add(int64(len(p)))
		m.srcCalls.Add(1)
		return err
	}
	counter, err := s.ck.SaveFrom(ctx, size, read)
	self := o.end(counter)
	s.dev.endSave(o)
	if err == nil {
		m.srcSaves.Add(1)
		m.self.add(self)
		o.mu.Lock()
		if o.firstRead >= 0 {
			m.admit.add(time.Duration(o.firstRead - o.start))
		}
		o.mu.Unlock()
	}
	return counter, err
}

// report adds the core.* save figures and the src.* staging-copy figures.
func (m *saveMetrics) report(l *results) {
	l.set("core.save_self_ms", m.self.quantile(0.5), "ms", m.self.n())
	l.set("core.admit_p99_ms", m.admit.p99(), "ms", m.admit.n())
	saves := float64(m.srcSaves.Load())
	l.set("src.copy_ms_per_save", ratio(float64(m.srcNs.Load())/1e6, saves), "ms", int(saves))
	l.set("src.copy_gbps", ratio(float64(m.srcBytes.Load()), float64(m.srcNs.Load())), "GB/s", int(m.srcCalls.Load()))
}

// reader times loads and recoveries; traced, it attributes device reads.
type reader struct {
	tr       *tracer
	self     samples
	devReads atomic.Int64
	ops      atomic.Int64
}

func (r *reader) do(name string, td *traceDev, f func() ([]byte, uint64, error)) ([]byte, uint64, error) {
	if r.tr == nil || td == nil {
		return f()
	}
	o := r.tr.begin(name)
	td.setReader(o)
	p, counter, err := f()
	td.setReader(nil)
	self := o.end(counter)
	r.self.add(self)
	o.mu.Lock()
	r.devReads.Add(int64(o.devReads))
	o.mu.Unlock()
	r.ops.Add(1)
	return p, counter, err
}

// recoverLoop runs cold recoveries of dev for about d (at least minRuns
// of them), checks each with check and returns the latencies.
func recoverLoop(e *env, r *reader, dev storage.Device, td *traceDev, d time.Duration, minRuns int, check func([]byte, uint64) error) *samples {
	var lat samples
	start := time.Now()
	for i := 0; i < minRuns || time.Since(start) < d; i++ {
		t0 := time.Now()
		p, counter, err := r.do("core.recover", td, func() ([]byte, uint64, error) { return core.Recover(dev) })
		el := time.Since(t0)
		if err == nil {
			err = check(p, counter)
		}
		if e.done(err) {
			lat.add(el)
		}
	}
	return &lat
}

// devReport adds the front device's per-save and per-load figures.
func devReport(l *results, t devTotals, saves, loads int64) {
	s, n := float64(saves), int(saves)
	l.set("storage.write_ms_per_save", ratio(float64(t.writeNs)/1e6, s), "ms", n)
	l.set("storage.write_calls_per_save", ratio(float64(t.writeCalls), s), "count", n)
	l.set("storage.write_bytes_per_save", ratio(float64(t.writeBytes), s), "B", n)
	l.set("storage.sync_ms_per_save", ratio(float64(t.syncNs)/1e6, s), "ms", n)
	l.set("storage.persist_calls_per_save", ratio(float64(t.persistCalls), s), "count", n)
	l.set("storage.persist_ms_per_save", ratio(float64(t.persistNs)/1e6, s), "ms", n)
	l.set("storage.read_ms_per_load", ratio(float64(t.readNs)/1e6, float64(loads)), "ms", int(loads))
	l.set("storage.read_bytes_per_load", ratio(float64(t.readBytes), float64(loads)), "B", int(loads))
}

// engineReport adds the engine's counters over a phase: device bytes per
// logical byte, and in the traced run the core.* counters.
func (e *env) engineReport(a, b pccheck.Stats) {
	saves := float64(b.Published + b.Obsolete - a.Published - a.Obsolete)
	n := int(saves)
	e.e2e.set("persisted_bytes_per_byte", ratio(float64(b.BytesPersisted-a.BytesPersisted), float64(b.BytesWritten-a.BytesWritten)), "B/B", n)
	if e.tr == nil {
		return
	}
	l := &e.layer
	l.set("core.slot_waits_per_save", ratio(float64(b.SlotWaits-a.SlotWaits), saves), "count", n)
	l.set("core.cas_retries_per_save", ratio(float64(b.CASRetries-a.CASRetries), saves), "count", n)
	l.set("core.obsolete_ratio", ratio(float64(b.Obsolete-a.Obsolete), saves), "ratio", n)
}

func sumStats(ss ...pccheck.Stats) pccheck.Stats {
	var t pccheck.Stats
	for _, s := range ss {
		t.Published += s.Published
		t.Obsolete += s.Obsolete
		t.BytesWritten += s.BytesWritten
		t.BytesPersisted += s.BytesPersisted
		t.SlotWaits += s.SlotWaits
		t.CASRetries += s.CASRetries
	}
	return t
}

// checkExact builds a recovery check: the recovered bytes must be exactly
// want and carry the counter of the last acknowledged save.
func checkExact(want []byte, counter uint64) func([]byte, uint64) error {
	return func(p []byte, c uint64) error {
		if c != counter {
			return fmt.Errorf("recovered checkpoint %d, last acknowledged was %d", c, counter)
		}
		if !bytes.Equal(p, want) {
			return fmt.Errorf("recovered checkpoint %d differs from the bytes saved", c)
		}
		return nil
	}
}
