package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"pccheck"
	"pccheck/internal/dist"
	"pccheck/internal/storage"
	"pccheck/internal/workload"
)

// train-sparse: data-parallel training on an iteration clock, two rank
// goroutines over local transports. Each rank owns half of the model state
// and checkpoints it in delta mode to its own RAM device, paced per writer
// to stand in for a slow SSD. An iteration is a sparse update of the
// rank's half (the lora-adapters pattern, ~5% of it dirty per checkpoint
// interval), a modelled accelerator step (a timer: the compute runs on the
// accelerator and the host CPU belongs to checkpointing) and a barrier
// standing in for the all-reduce. Every trainEvery iterations a rank
// snapshots its half and runs Save then AgreeRaw in the background, as
// Loop and SaveConsistent do; the iteration stalls only while the rank
// already has Concurrent checkpoints in flight (§3.2/§3.4). It is the
// workload where delta encoding and the agree round do most of the work.

const (
	trainStateBytes = 16 << 20
	trainRanks      = 2
	trainRankBytes  = trainStateBytes / trainRanks
	// trainEvery, trainStep and trainWriterBW are sized so that
	// checkpointing costs a tenth to a fifth of the iterations: a faster
	// save path then shows as more iterations per second and a slower one
	// as fewer. With two CPUs the cost is mostly the CPU the saves take
	// from the ranks; the N-in-flight stall stays near zero.
	trainEvery    = 8
	trainStep     = 10 * time.Millisecond
	trainWriterBW = 50e6
	trainKeyframe = 8
)

func trainConfig() pccheck.Config {
	return pccheck.Config{
		MaxBytes: trainRankBytes, Concurrent: 2, Writers: 2, ChunkBytes: 1 << 20,
		Verify: true, PerWriterBW: trainWriterBW, Delta: pccheck.DeltaConfig{Keyframe: trainKeyframe},
	}
}

// trainMetrics are shared by both ranks.
type trainMetrics struct {
	save                              stream
	consistent, agree, snapshot, late samples
	stallNs                           atomic.Int64
	roundsAgreed                      atomic.Int64
}

type trainRank struct {
	rank   int
	state  []byte
	free   chan []byte // snapshot buffers; empty means Concurrent in flight
	ram    *storage.RAM
	level  storage.Device
	td     *traceDev
	tt     *traceTransport
	ck     *pccheck.Checkpointer
	w      *pccheck.Worker
	sv     *saver
	mutate workload.SparsePattern
	rng    *rand.Rand

	inflight sync.WaitGroup
	prevDone chan struct{} // closed when the previous checkpoint's agree returned
	lastSnap []byte        // bytes of the newest checkpoint launched
	ctrMu    sync.Mutex
	lastCtr  uint64 // its counter, once acknowledged
}

type trainSparse struct {
	ranks []*trainRank
	trs   []pccheck.Transport
	m     *trainMetrics
	k     uint64 // checkpoints launched per rank so far
	saves atomic.Int64
	// agreed[r][i] is rank r's agreed ID for round i.
	agreedMu sync.Mutex
	agreed   [trainRanks]map[uint64]uint64
	closed   bool
	closeErr error
}

func setupTrainSparse(e *env) (instance, error) {
	lora, err := workload.SparseByName("lora-adapters")
	if err != nil {
		return nil, err
	}
	// The pattern's dirty fraction is per checkpoint interval; each
	// iteration applies its share of it.
	perIter := workload.SparsePattern{
		Name:          lora.Name,
		DirtyFraction: lora.DirtyFraction / trainEvery,
		Ranges:        max(1, lora.Ranges/trainEvery),
	}
	cfg := trainConfig()
	w := &trainSparse{m: &trainMetrics{}, trs: pccheck.NewLocalTransports(trainRanks)}
	for r := 0; r < trainRanks; r++ {
		w.agreed[r] = map[uint64]uint64{}
	}
	sm := &saveMetrics{}
	for r := 0; r < trainRanks; r++ {
		off, n, err := pccheck.PartitionRange(trainStateBytes, r, trainRanks)
		if err != nil || n != trainRankBytes {
			w.close()
			return nil, fmt.Errorf("partition rank %d: [%d,+%d) %v", r, off, n, err)
		}
		rk := &trainRank{
			rank: r, state: make([]byte, n), free: make(chan []byte, cfg.Concurrent),
			ram: storage.NewRAM(engineBytes(cfg)), mutate: perIter,
			rng: rand.New(rand.NewSource(e.seed*trainRanks + int64(r))), prevDone: make(chan struct{}),
		}
		close(rk.prevDone)
		rk.rng.Read(rk.state) //nolint:errcheck // math/rand Read never fails
		for i := 0; i < cfg.Concurrent; i++ {
			rk.free <- make([]byte, n)
		}
		rk.level, rk.td = wrapDev(e.tr, rk.ram, "storage", true)
		if rk.ck, err = pccheck.CreateTiered(cfg, rk.level); err != nil {
			w.close()
			return nil, err
		}
		var tr dist.Transport
		tr, rk.tt = wrapTransport(e.tr, w.trs[r])
		if rk.w, err = pccheck.NewWorker(rk.ck, tr); err != nil {
			rk.ck.Close()
			w.close()
			return nil, err
		}
		rk.sv = &saver{ck: rk.ck, tr: e.tr, dev: rk.td, m: sm}
		w.ranks = append(w.ranks, rk)
	}
	return w, nil
}

// warm runs a keyframe and a delta round, so timed saves find the device
// pages, staging pool and hash state in place.
func (w *trainSparse) warm(e *env) error {
	w.round(e, nil)
	w.round(e, nil)
	if f := e.failed.Load(); f != 0 {
		return fmt.Errorf("warm-up: %d failed operations: %v", f, e.errs)
	}
	e.attempted.Store(0)
	return nil
}

func (rk *trainRank) mutateOnce() {
	rk.mutate.Mutate(rk.state, rk.rng.Intn)
}

// round runs one checkpoint interval without the iteration clock: every
// rank applies trainEvery updates and checkpoints, and the round returns
// once both checkpoints are agreed.
func (w *trainSparse) round(e *env, m *trainMetrics) {
	w.k++
	var wg sync.WaitGroup
	for _, rk := range w.ranks {
		wg.Add(1)
		go func(rk *trainRank) {
			defer wg.Done()
			for i := 0; i < trainEvery; i++ {
				rk.mutateOnce()
			}
			w.checkpoint(e, rk, w.k, time.Now(), m)
		}(rk)
	}
	wg.Wait()
	for _, rk := range w.ranks {
		rk.inflight.Wait()
	}
}

// checkpoint snapshots rk's state as checkpoint k, due at due, and runs
// Save then AgreeRaw in the background. It blocks while rk already has
// Concurrent checkpoints in flight. m is nil during warm-up.
func (w *trainSparse) checkpoint(e *env, rk *trainRank, k uint64, due time.Time, m *trainMetrics) {
	buf := <-rk.free
	launch := time.Now()
	copy(buf, rk.state)
	snap := time.Since(launch)
	if m != nil {
		m.stallNs.Add(int64(launch.Sub(due)))
		m.late.add(launch.Sub(due))
		m.snapshot.add(snap)
	}
	rk.lastSnap = buf
	prev, done := rk.prevDone, make(chan struct{})
	rk.prevDone = done
	rk.inflight.Add(1)
	go func() {
		defer rk.inflight.Done()
		defer func() { rk.free <- buf }()
		defer close(done)
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		fill := func(p []byte, off int64) error { copy(p, buf[off:]); return nil }
		var counter uint64
		var err error
		if m == nil {
			counter, err = rk.ck.SaveFrom(ctx, int64(len(buf)), fill)
		} else {
			counter, err = rk.sv.save(ctx, int64(len(buf)), fill)
		}
		saved := time.Now()
		if e.done(err) {
			rk.ctrMu.Lock()
			rk.lastCtr = counter
			rk.ctrMu.Unlock()
			if m != nil {
				m.save.add(saved.Sub(due))
				w.saves.Add(1)
			}
		}
		// Rounds are matched by order on every rank, so agree in launch
		// order. A failed save still takes part, offering 0, so that the
		// peer's round completes and the mismatch is reported.
		<-prev
		id := k
		if err != nil {
			id = 0
		}
		t0 := time.Now()
		agreed, aerr := rk.w.AgreeRaw(ctx, id)
		if aerr == nil && agreed != k {
			aerr = fmt.Errorf("rank %d: round %d agreed on %d", rk.rank, k, agreed)
		}
		if aerr != nil {
			e.done(aerr)
			return
		}
		if m != nil {
			m.agree.add(time.Since(t0))
			m.consistent.add(time.Since(due))
			if rk.rank == 0 {
				m.roundsAgreed.Add(1)
			}
		}
		w.agreedMu.Lock()
		w.agreed[rk.rank][k] = agreed
		w.agreedMu.Unlock()
	}()
}

// barrier is the all-reduce stand-in. The last rank to arrive decides,
// for all of them, whether the run is over.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n, gen  int
	waiting int
	stop    bool
	until   time.Time
}

func newBarrier(n int, until time.Time) *barrier {
	b := &barrier{n: n, until: until}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) wait() (stop bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	gen := b.gen
	b.waiting++
	if b.waiting == b.n {
		b.waiting = 0
		b.gen++
		b.stop = !time.Now().Before(b.until)
		b.cond.Broadcast()
		return b.stop
	}
	for gen == b.gen {
		b.cond.Wait()
	}
	return b.stop
}

func (w *trainSparse) run(e *env) error {
	st0 := w.stats()
	dev0, sends0 := w.devTotals()
	m := w.m
	e.beginStream()
	start := time.Now()
	m.save.begin()
	bar := newBarrier(trainRanks, start.Add(e.runFor))
	iters := make([]int, trainRanks)
	var wg sync.WaitGroup
	for _, rk := range w.ranks {
		wg.Add(1)
		go func(rk *trainRank) {
			defer wg.Done()
			k := w.k
			for it := 1; ; it++ {
				rk.mutateOnce()
				time.Sleep(trainStep)
				if bar.wait() {
					return
				}
				iters[rk.rank]++
				if it%trainEvery == 0 {
					k++
					w.checkpoint(e, rk, k, time.Now(), m)
				}
			}
		}(rk)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, rk := range w.ranks {
		rk.inflight.Wait()
	}
	n := w.saves.Load()
	e.endStream(n)
	if iters[0] != iters[1] {
		return fmt.Errorf("ranks ran %d and %d iterations", iters[0], iters[1])
	}
	w.k += uint64(iters[0] / trainEvery)
	st1 := w.stats()

	m.save.report(&e.timing, elapsed, trainRankBytes)
	e.engineReport(st0, st1)
	e.timing.set("train_iters_per_s", float64(iters[0])/elapsed.Seconds(), "1/s", iters[0])
	e.timing.set("consistent_p99_ms", m.consistent.p99(), "ms", m.consistent.n())
	if e.tr != nil {
		w.ranks[0].sv.m.report(&e.layer)
		dev1, sends1 := w.devTotals()
		devReport(&e.layer, dev1.minus(dev0), n, 0)
		rounds := m.roundsAgreed.Load()
		e.layer.set("dist.agree_p99_ms", m.agree.p99(), "ms", m.agree.n())
		e.layer.set("dist.msgs_per_round", ratio(float64(sends1-sends0), float64(rounds)), "count", int(rounds))
		e.layer.set("loop.snapshot_ms", m.snapshot.quantile(0.5), "ms", m.snapshot.n())
		e.layer.set("loop.stall_ms_per_iter", ratio(float64(m.stallNs.Load())/1e6, float64(iters[0]*trainRanks)), "ms", iters[0]*trainRanks)
		e.layer.set("gen.late_p99_ms", m.late.p99(), "ms", m.late.n())
	}

	// Recovery reads the newest keyframe and every delta after it, so its
	// cost depends on where in the chain the stream stopped. Untimed rounds
	// bring the chain to its full length first: recovery is then measured
	// at the deepest chain Keyframe allows. Ranks save in lockstep, so rank
	// 0's keyframes mark both chains.
	for depth, i := -1, 0; depth < trainKeyframe && i < 2*(trainKeyframe+1); i++ {
		kf := w.ranks[0].ck.Stats().KeyframeSaves
		w.round(e, nil)
		if w.ranks[0].ck.Stats().KeyframeSaves > kf {
			depth = 0
		} else if depth >= 0 {
			depth++
		}
	}
	// Output checks: both ranks agreed on the same ID every round, and
	// each rank's device recovers exactly the bytes of its newest
	// checkpoint.
	w.agreedMu.Lock()
	for k, id := range w.agreed[0] {
		if w.agreed[1][k] != id {
			e.done(fmt.Errorf("round %d: rank 0 agreed on %d, rank 1 on %d", k, id, w.agreed[1][k]))
		}
	}
	if len(w.agreed[0]) != len(w.agreed[1]) {
		e.done(fmt.Errorf("ranks completed %d and %d rounds", len(w.agreed[0]), len(w.agreed[1])))
	}
	w.agreedMu.Unlock()
	if err := w.close(); err != nil {
		return err
	}
	r := &reader{tr: e.tr}
	var rec samples
	for _, rk := range w.ranks {
		lat := recoverLoop(e, r, rk.level, rk.td, time.Second, 10, checkExact(rk.lastSnap, rk.lastCtr))
		rec.merge(lat)
	}
	e.timing.set("recover_p50_ms", rec.quantile(0.5), "ms", rec.n())
	if e.tr != nil {
		e.layer.set("core.recover_self_ms", r.self.quantile(0.5), "ms", r.self.n())
	}
	return nil
}

func (w *trainSparse) stats() pccheck.Stats {
	var ss []pccheck.Stats
	for _, rk := range w.ranks {
		ss = append(ss, rk.ck.Stats())
	}
	return sumStats(ss...)
}

func (w *trainSparse) devTotals() (devTotals, int64) {
	var t devTotals
	var sends int64
	for _, rk := range w.ranks {
		if rk.td != nil {
			d := rk.td.c.totals()
			t = t.plus(d)
		}
		if rk.tt != nil {
			sends += rk.tt.sends.Load()
		}
	}
	return t, sends
}

func (w *trainSparse) close() error {
	if w.closed {
		return w.closeErr
	}
	w.closed = true
	for _, rk := range w.ranks {
		rk.inflight.Wait()
		if rk.w != nil {
			rk.w.Close()
		}
		if err := rk.ck.Close(); err != nil && w.closeErr == nil {
			w.closeErr = err
		}
	}
	for _, tr := range w.trs {
		if err := tr.Close(); err != nil && w.closeErr == nil {
			w.closeErr = err
		}
	}
	return w.closeErr
}
