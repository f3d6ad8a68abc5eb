package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// samples is a concurrency-safe list of latencies in milliseconds, in
// completion order.
type samples struct {
	mu sync.Mutex
	ms []float64
}

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	s.ms = append(s.ms, ms(d))
	s.mu.Unlock()
}

func (s *samples) merge(o *samples) {
	v := o.values()
	s.mu.Lock()
	s.ms = append(s.ms, v...)
	s.mu.Unlock()
}

func (s *samples) values() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.ms...)
}

func (s *samples) n() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ms)
}

func (s *samples) quantile(q float64) float64 { return quantile(s.values(), q) }

// p99 is the 99th percentile of the samples.
func (s *samples) p99() float64 { return s.quantile(0.99) }

// streamWindow is the window length of the stream figures. Each is the
// median over the run's whole windows, so a burst of interference from
// outside the process moves the windows it falls in, not the result.
const streamWindow = time.Second

// stream records the saves of a timed stream as they complete: when, how
// long each took and the CPU time the process had used by then.
type stream struct {
	mu    sync.Mutex
	start time.Time
	cpu0  time.Duration
	ops   []streamOp
}

type streamOp struct {
	at, lat, cpu time.Duration
}

// begin starts the stream's clock.
func (s *stream) begin() {
	s.mu.Lock()
	s.start, s.cpu0, s.ops = time.Now(), cpuTime(), nil
	s.mu.Unlock()
}

func (s *stream) add(lat time.Duration) {
	s.mu.Lock()
	s.ops = append(s.ops, streamOp{at: time.Since(s.start), lat: lat, cpu: cpuTime()})
	s.mu.Unlock()
}

func (s *stream) n() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ops)
}

// report sets the stream's figures for saves of opBytes each over span.
// Per one-second window it takes the bytes saved per second (between the
// window's first and last completion, so that the figure is not rounded to
// whole saves per window), the median save latency and the process CPU
// time per save (from the previous window's last save to this window's
// last); each figure is the median over windows. The p99 latency is taken
// over all saves.
func (s *stream) report(r *results, span time.Duration, opBytes float64) {
	s.mu.Lock()
	ops := append([]streamOp(nil), s.ops...)
	cpu0 := s.cpu0
	s.mu.Unlock()
	w := streamWindow
	if span < w {
		w = span
	}
	nw := max(1, int(span/w))
	win := make([][]streamOp, nw)
	var all []float64
	for _, op := range ops {
		all = append(all, ms(op.lat))
		if k := int(op.at / w); k < nw {
			win[k] = append(win[k], op)
		}
	}
	var rates, p50s, cpus []float64
	prev := cpu0
	for _, ops := range win {
		if len(ops) == 0 {
			continue
		}
		first, last := ops[0].at, ops[0].at
		cpu := prev
		var lats []float64
		for _, op := range ops {
			first, last, cpu = min(first, op.at), max(last, op.at), max(cpu, op.cpu)
			lats = append(lats, ms(op.lat))
		}
		if last > first {
			rates = append(rates, float64(len(ops)-1)*opBytes/(last-first).Seconds()/1e9)
		}
		p50s = append(p50s, quantile(lats, 0.5))
		cpus = append(cpus, ms(cpu-prev)/float64(len(ops)))
		prev = cpu
	}
	n := len(ops)
	r.set("save_gbps", quantile(rates, 0.5), "GB/s", n)
	r.set("save_p50_ms", quantile(p50s, 0.5), "ms", n)
	r.set("save_p99_ms", quantile(all, 0.99), "ms", n)
	r.set("cpu_ms_per_save", quantile(cpus, 0.5), "ms", n)
}

// quantile interpolates linearly between order statistics, so a median
// over an even count is the mean of the middle pair.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(pos)
	if lo+1 >= len(v) {
		return v[len(v)-1]
	}
	return v[lo] + (pos-float64(lo))*(v[lo+1]-v[lo])
}

// value is one reported metric: its value, unit and how many samples it
// was computed from (0 for a single measured quantity or a ratio of sums).
type value struct {
	v       float64
	unit    string
	samples int
}

// results collects a run's metrics in report order.
type results struct {
	names []string
	vals  map[string]value
}

func (r *results) set(name string, v float64, unit string, n int) {
	if r.vals == nil {
		r.vals = map[string]value{}
	}
	if _, ok := r.vals[name]; !ok {
		r.names = append(r.names, name)
	}
	r.vals[name] = value{v: v, unit: unit, samples: n}
}

func (r *results) get(name string) float64 { return r.vals[name].v }

// print writes one human-readable line per metric.
func (r *results) print(w io.Writer, prefix string) {
	for _, name := range r.names {
		v := r.vals[name]
		fmt.Fprintf(w, "%-7s %-34s %14s %-6s n=%d\n", prefix, name, strconv.FormatFloat(v.v, 'g', 6, 64), v.unit, v.samples)
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM missing from /proc/self/status")
}

// cpuTime is the CPU time the process has used, user and system. Time
// the host takes from the machine is not charged to it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuTicks reads the machine's steal and total CPU time from /proc/stat.
// The share stolen by the host during a run is reported beside the
// results: on a shared virtual machine it is the main source of
// run-to-run spread.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// cpuModel names this machine's processor for the report header.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// memSnap is the Go runtime state a timed phase is measured against.
type memSnap struct {
	totalAlloc uint64
	numGC      uint32
	pauseNs    uint64
}

func readMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{totalAlloc: m.TotalAlloc, numGC: m.NumGC, pauseNs: m.PauseTotalNs}
}
