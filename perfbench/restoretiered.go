package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pccheck"
	"pccheck/internal/pmem"
	"pccheck/internal/storage"
)

// restore-tiered: writes beside reads on one device stack. A tiered
// device composes an emulated PMEM tier 0 (the paper's device and its
// per-writer fence path) with a remote tier 1 behind a round trip and a
// bandwidth cap. One goroutine saves a seeded, self-verifying 4 MiB
// payload on a fixed schedule while a second reads the newest checkpoint
// in a closed loop and checks every payload. After the stream the replica is
// drained and recovered cold, alone, again and again. It is the one
// workload that exercises the PMEM model, the tier drainer, the
// seqlock-guarded live read and recovery's read and verify.

// The schedule is set from shares measured on a 2-vCPU Xeon VM (traced
// run, seed 1), not from a device data sheet:
//   - A save to the PMEM model takes 15 to 22 ms from when it is due
//     (save_p50_ms), nearly all of it the model's per-line bookkeeping in
//     Sync (storage.sync_ms_per_save). A save every restorePeriod, three
//     times that, keeps the saver a third busy: with Concurrent 2 the open
//     loop does not queue, and a slower save path shows as latency.
//   - Tier 1 pays remoteRTT, a round trip within one datacenter region, on
//     every operation and moves bytes at remoteBW. The drainer is then busy
//     about 21 ms per save (tier1.busy_ms_per_save), a third of the
//     period: a slower drain shows in replica_lag_p99_ms, and the drainer
//     keeps up (tier.resyncs is 0) until it is three times slower.
//   - The reader pauses readThink, a third of the period, between loads.
//     It loads about three times per save and, with a save in flight a
//     third of the time, about one load in three overlaps a save, the case
//     the seqlock guards (core.reads_per_load). With no pause the reader
//     takes a whole core, and the 4 MiB it allocates per load made
//     alloc_mb_per_save vary by a third from run to run.
const (
	restoreBytes  = 4 << 20
	restorePeriod = 60 * time.Millisecond
	remoteRTT     = 200 * time.Microsecond
	remoteBW      = 800e6
	readThink     = restorePeriod / 3
	// lagPoll is how often the replica's durable counter is sampled while
	// a save awaits replication.
	lagPoll = time.Millisecond
)

func restoreConfig() pccheck.Config {
	return pccheck.Config{MaxBytes: restoreBytes, Concurrent: 2, Writers: 2, ChunkBytes: 1 << 20, Verify: true}
}

type restoreTiered struct {
	pl       payload
	front    storage.Device
	ftd      *traceDev
	tier1    storage.Device
	t1td     *traceDev
	ck       *pccheck.Checkpointer
	sv       *saver
	next     uint64 // last version saved
	ackCtr   uint64
	closed   bool
	closeErr error
}

func setupRestoreTiered(e *env) (instance, error) {
	cfg := restoreConfig()
	size := engineBytes(cfg)
	w := &restoreTiered{pl: newPayload(e.seed, restoreBytes)}
	w.front, w.ftd = wrapDev(e.tr, storage.NewPMEM(pmem.NewRegion(int(size))), "storage", false)
	remote := storage.NewRemoteStore(size, storage.WithRemoteRTT(remoteRTT),
		storage.WithRemoteThrottle(storage.NewThrottle(remoteBW)))
	w.tier1, w.t1td = wrapDev(e.tr, remote, "tier1", false)
	ck, err := pccheck.CreateTiered(cfg, w.front, w.tier1)
	if err != nil {
		return nil, err
	}
	w.ck = ck
	w.sv = &saver{ck: ck, tr: e.tr, dev: w.ftd, m: &saveMetrics{}}
	return w, nil
}

// warm fills every slot once and drains them to the replica.
func (w *restoreTiered) warm(e *env) error {
	for i := 0; i < restoreConfig().Concurrent+2; i++ {
		if _, err := w.saveNext(context.Background(), nil); err != nil {
			return fmt.Errorf("warm-up save: %w", err)
		}
	}
	if !w.ck.WaitDrained(30 * time.Second) {
		return fmt.Errorf("warm-up: replica did not drain")
	}
	return nil
}

// saveNext saves the next version, through s unless s is nil.
func (w *restoreTiered) saveNext(ctx context.Context, s *saver) (uint64, error) {
	w.next++
	v := w.next
	fill := func(p []byte, off int64) error { return w.pl.fill(p, off, v) }
	var counter uint64
	var err error
	if s == nil {
		counter, err = w.ck.SaveFrom(ctx, w.pl.size(), fill)
	} else {
		counter, err = s.save(ctx, w.pl.size(), fill)
	}
	if err == nil {
		w.ackCtr = counter
	}
	return counter, err
}

type ack struct {
	counter uint64
	at      time.Time
}

func (w *restoreTiered) run(e *env) error {
	ctx := context.Background()
	st0 := w.ck.Stats()
	var dev0, t1dev0 devTotals
	if w.ftd != nil {
		dev0, t1dev0 = w.ftd.c.totals(), w.t1td.c.totals()
	}
	var saveLat stream
	var late, readLat, lag samples
	var saves int64
	var stop atomic.Bool
	// One ack per scheduled save at most; sized so the saver never waits
	// on the lag poller.
	acks := make(chan ack, int(e.runFor/restorePeriod)+1)
	rd := &reader{tr: e.tr}
	var wg sync.WaitGroup

	e.beginStream()
	start := time.Now()
	saveLat.begin()
	wg.Add(2)
	go func() { // reader: closed loop, every payload checked
		defer wg.Done()
		var lastCtr, lastVer uint64
		for !stop.Load() {
			t0 := time.Now()
			p, counter, err := rd.do("core.load", w.ftd, w.ck.LoadLatest)
			el := time.Since(t0)
			if err == nil {
				var v uint64
				if v, err = w.pl.check(p); err == nil && (counter < lastCtr || v < lastVer) {
					err = fmt.Errorf("read checkpoint %d (version %d) after %d (version %d)", counter, v, lastCtr, lastVer)
				}
				lastCtr, lastVer = counter, v
			}
			if e.done(err) {
				readLat.add(el)
			}
			time.Sleep(readThink)
		}
	}()
	go func() { // replica lag: ack until tier 1 is durable at the counter
		defer wg.Done()
		for a := range acks {
			for {
				st := w.ck.TierStatus()
				if len(st) > 1 && st[1].DurableCounter >= a.counter {
					lag.add(time.Since(a.at))
					break
				}
				if time.Since(a.at) > 30*time.Second {
					e.done(fmt.Errorf("checkpoint %d not durable on tier 1 after 30s", a.counter))
					break
				}
				time.Sleep(lagPoll)
			}
		}
	}()
	// Saver: open loop, one save due every restorePeriod, each timed from
	// when it was due.
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * restorePeriod)
		if due.Sub(start) >= e.runFor {
			break
		}
		time.Sleep(time.Until(due))
		late.add(time.Since(due))
		counter, err := w.saveNext(ctx, w.sv)
		if e.done(err) {
			acks <- ack{counter: counter, at: time.Now()}
			saveLat.add(time.Since(due))
			saves++
		}
	}
	elapsed := time.Since(start)
	stop.Store(true)
	close(acks)
	wg.Wait()
	e.endStream(saves)
	st1 := w.ck.Stats()

	saveLat.report(&e.timing, elapsed, restoreBytes)
	e.engineReport(st0, st1)
	e.timing.set("read_p50_ms", readLat.quantile(0.5), "ms", readLat.n())
	e.timing.set("read_p99_ms", readLat.p99(), "ms", readLat.n())
	e.timing.set("replica_lag_p99_ms", lag.p99(), "ms", lag.n())

	if !w.ck.WaitDrained(30 * time.Second) {
		e.done(fmt.Errorf("replica did not drain within 30s"))
	}
	if e.tr != nil {
		loads := rd.ops.Load()
		w.sv.m.report(&e.layer)
		devReport(&e.layer, w.ftd.c.totals().minus(dev0), saves, loads)
		e.layer.set("core.reads_per_load", ratio(float64(rd.devReads.Load()), float64(loads)), "count", int(loads))
		t1 := w.t1td.c.totals().minus(t1dev0)
		e.layer.set("tier1.busy_ms_per_save", ratio(float64(t1.writeNs+t1.syncNs+t1.persistNs)/1e6, float64(saves)), "ms", int(saves))
		e.layer.set("tier1.write_bytes_per_save_byte", ratio(float64(t1.writeBytes), float64(saves)*restoreBytes), "B/B", int(saves))
		st := w.ck.TierStatus()
		e.layer.set("tier.resyncs", float64(st[1].Resyncs), "count", 0)
		e.layer.set("tier.drain_errors", float64(st[1].Errors), "count", 0)
		e.layer.set("gen.late_p99_ms", late.p99(), "ms", late.n())
	}

	// Output checks: cold recovery returns exactly the newest
	// acknowledged checkpoint, from tier 0 and from tier 1 alone.
	if err := w.close(); err != nil {
		return err
	}
	want := w.pl.version(w.next)
	check := checkExact(want, w.ackCtr)
	recoverLoop(e, &reader{}, w.front, nil, 0, 1, check)
	r := &reader{tr: e.tr}
	rec := recoverLoop(e, r, w.tier1, w.t1td, 2*time.Second, 20, check)
	e.timing.set("recover_p50_ms", rec.quantile(0.5), "ms", rec.n())
	if e.tr != nil {
		e.layer.set("core.recover_self_ms", r.self.quantile(0.5), "ms", r.self.n())
	}
	return nil
}

func (w *restoreTiered) close() error {
	if !w.closed {
		w.closed = true
		w.closeErr = w.ck.Close()
	}
	return w.closeErr
}
