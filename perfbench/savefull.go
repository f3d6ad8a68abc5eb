package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pccheck"
	"pccheck/internal/storage"
)

// save-full: two clients save a seeded 16 MiB payload back to back into
// one full-mode checkpointer on an unpaced RAM device. It is the
// CPU-bound engine path — staging copy, CRC, chunk pipeline, slot header,
// CAS publish, pointer barrier — with nothing else in the way: delta
// encoding, the tier drainer, coordination and the PMEM model are all
// bypassed, so an optimisation of those must leave it flat.

const (
	saveFullBytes   = 16 << 20
	saveFullClients = 2
)

func saveFullConfig() pccheck.Config {
	return pccheck.Config{MaxBytes: saveFullBytes, Concurrent: 2, Writers: 2, ChunkBytes: 1 << 20, Verify: true}
}

type saveFull struct {
	pl    payload
	level storage.Device
	td    *traceDev
	ck    *pccheck.Checkpointer
	sv    *saver

	next     atomic.Uint64 // last version handed out
	ackMu    sync.Mutex
	ackCtr   uint64 // highest counter acknowledged
	ackVer   uint64 // the version saved under it
	closed   bool
	closeErr error
}

func setupSaveFull(e *env) (instance, error) {
	cfg := saveFullConfig()
	w := &saveFull{pl: newPayload(e.seed, saveFullBytes)}
	w.level, w.td = wrapDev(e.tr, storage.NewRAM(engineBytes(cfg)), "storage", false)
	ck, err := pccheck.CreateTiered(cfg, w.level)
	if err != nil {
		return nil, err
	}
	w.ck = ck
	w.sv = &saver{ck: ck, tr: e.tr, dev: w.td, m: &saveMetrics{}}
	return w, nil
}

// warm fills every slot once so that timed saves find the device pages
// and the staging pool already touched.
func (w *saveFull) warm(e *env) error {
	for i := 0; i < saveFullConfig().Concurrent+2; i++ {
		if err := w.saveOne(context.Background(), nil); err != nil {
			return fmt.Errorf("warm-up save: %w", err)
		}
	}
	return nil
}

// saveOne saves the next version, through s unless s is nil, and records
// its acknowledgement.
func (w *saveFull) saveOne(ctx context.Context, s *saver) error {
	v := w.next.Add(1)
	fill := func(p []byte, off int64) error { return w.pl.fill(p, off, v) }
	var counter uint64
	var err error
	if s == nil {
		counter, err = w.ck.SaveFrom(ctx, w.pl.size(), fill)
	} else {
		counter, err = s.save(ctx, w.pl.size(), fill)
	}
	if err != nil {
		return err
	}
	w.ackMu.Lock()
	if counter > w.ackCtr {
		w.ackCtr, w.ackVer = counter, v
	}
	w.ackMu.Unlock()
	return nil
}

func (w *saveFull) run(e *env) error {
	ctx := context.Background()
	st0 := w.ck.Stats()
	var dev0 devTotals
	if w.td != nil {
		dev0 = w.td.c.totals()
	}
	var saves stream
	e.beginStream()
	start := time.Now()
	saves.begin()
	var wg sync.WaitGroup
	for c := 0; c < saveFullClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < e.runFor {
				t0 := time.Now()
				err := w.saveOne(ctx, w.sv)
				if e.done(err) {
					saves.add(time.Since(t0))
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	n := int64(saves.n())
	e.endStream(n)
	st1 := w.ck.Stats()

	saves.report(&e.timing, elapsed, saveFullBytes)
	e.engineReport(st0, st1)
	if w.td != nil {
		w.sv.m.report(&e.layer)
		devReport(&e.layer, w.td.c.totals().minus(dev0), n, 0)
	}

	// Output check: after the stream, cold recovery must return exactly
	// the newest acknowledged version.
	if err := w.close(); err != nil {
		return err
	}
	want := w.pl.version(w.ackVer)
	r := &reader{tr: e.tr}
	rec := recoverLoop(e, r, w.level, w.td, 2*time.Second, 20, checkExact(want, w.ackCtr))
	e.timing.set("recover_p50_ms", rec.quantile(0.5), "ms", rec.n())
	if w.td != nil {
		e.layer.set("core.recover_self_ms", r.self.quantile(0.5), "ms", r.self.n())
	}
	return nil
}

func (w *saveFull) close() error {
	if !w.closed {
		w.closed = true
		w.closeErr = w.ck.Close()
	}
	return w.closeErr
}
