// Command perfbench is pccheck's benchmark. It runs one workload against
// the library from a single process and prints every metric as a line
// "<kind> <name> <value> <unit> n=<samples>", then, as its last line, one
// JSON object with the gated metrics (see e2eNames):
//
//	go run . --workload save-full --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it measures the end-to-end metrics with the program as
// users run it. With --trace 1 it runs the workload twice, for half the
// time each: untraced, then with timing wrappers around the devices, the
// SaveFrom read func and the coordination transport, and reports the
// per-layer metrics, the rooflines and the tracing overhead; the spans go
// to .bench_build/perfbench/trace-<workload>-<seed>.json, which Perfetto
// opens. It exits non-zero if any save, read or recovery fails or returns
// bytes other than those saved.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// instance is one workload set up and ready to measure.
type instance interface {
	// warm runs untimed saves so that the measured ones find pages and
	// pools in place.
	warm(e *env) error
	// run measures for e.runFor, checks the outputs and reports its
	// metrics into e.
	run(e *env) error
	close() error
}

type workloadDef struct {
	name         string
	payloadBytes int
	setup        func(e *env) (instance, error)
}

var workloads = []workloadDef{
	{"save-full", saveFullBytes, setupSaveFull},
	{"train-sparse", trainRankBytes, setupTrainSparse},
	{"restore-tiered", restoreBytes, setupRestoreTiered},
}

// setupRuns is how many times a phase sets its workload up; setup_s is
// their median and the last one is measured.
const setupRuns = 11

// The metrics, in report order.
//
// The gated end-to-end metrics are the ones every workload reports and
// that a shared 2-vCPU machine lets repeat: set-up time, the save stream's
// throughput and process CPU time per save (each the median over
// one-second windows, see stream), the Go heap allocated per save, peak
// memory and the device bytes written per logical byte. The other timings
// are printed with every run and recorded as the traced run's e2e.*
// metrics, but not gated. Train iterations per second, agreement, live
// reads and replica lag are reported by one workload only. Over ten runs
// the save latency median, the save p99 and the recovery median spread by
// up to 0.20, 0.26 and 0.22 of their median on some workload, near or
// past the largest bound (0.25) the gate allows: on restore-tiered the
// save latency follows the machine's speed, which drifts by a sixth
// within a run. The host's share of the CPU while a run lasted is printed
// with it as steal_pct.
var (
	e2eNames = []string{
		"setup_s", "save_gbps", "cpu_ms_per_save",
		"alloc_mb_per_save", "peak_rss_mb", "persisted_bytes_per_byte",
	}
	timingUnits = map[string]string{
		"cpu_ms_per_save": "ms", "save_gbps": "GB/s", "save_p50_ms": "ms", "save_p99_ms": "ms",
		"recover_p50_ms": "ms", "train_iters_per_s": "1/s", "consistent_p99_ms": "ms",
		"read_p50_ms": "ms", "read_p99_ms": "ms", "replica_lag_p99_ms": "ms",
	}
	layerUnits = map[string]string{
		"core.save_self_ms": "ms", "core.admit_p99_ms": "ms", "core.slot_waits_per_save": "count",
		"core.cas_retries_per_save": "count", "core.obsolete_ratio": "ratio",
		"core.recover_self_ms": "ms", "core.reads_per_load": "count",
		"src.copy_ms_per_save": "ms", "src.copy_gbps": "GB/s",
		"storage.write_ms_per_save": "ms", "storage.write_calls_per_save": "count",
		"storage.write_bytes_per_save": "B", "storage.sync_ms_per_save": "ms",
		"storage.persist_calls_per_save": "count", "storage.persist_ms_per_save": "ms",
		"storage.read_ms_per_load": "ms", "storage.read_bytes_per_load": "B",
		"tier1.busy_ms_per_save": "ms", "tier1.write_bytes_per_save_byte": "B/B",
		"tier.resyncs": "count", "tier.drain_errors": "count",
		"dist.agree_p99_ms": "ms", "dist.msgs_per_round": "count",
		"loop.snapshot_ms": "ms", "loop.stall_ms_per_iter": "ms", "gen.late_p99_ms": "ms",
		"go.gc_cycles_per_save": "count", "go.gc_pause_ms_per_s": "ms/s",
		"roofline.memmove_gbps": "GB/s", "roofline.crc32_gbps": "GB/s", "roofline.ram_write_gbps": "GB/s",
		"trace.overhead_pct": "%",
	}
)

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run: save-full, train-sparse or restore-tiered")
	seed := flag.Int64("seed", 1, "seed for the workload's generated inputs")
	seconds := flag.Float64("seconds", 10, "how long the run measures")
	trace := flag.Int("trace", 0, "1 to report per-layer metrics from a traced run")
	flag.Parse()
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			def = &workloads[i]
		}
	}
	if def == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload <save-full|train-sparse|restore-tiered> --seed <n> --seconds <s> --trace <0|1>\n")
		return 2
	}
	fmt.Printf("# workload=%s seed=%d seconds=%g trace=%d nproc=%d gomaxprocs=%d cpu=%q %s\n",
		def.name, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version())

	runFor := time.Duration(*seconds * float64(time.Second))
	steal0, total0 := cpuTicks()
	var out *results
	var plain *env
	var err error
	if *trace == 0 {
		if plain, err = phase(def, *seed, runFor, nil); err != nil {
			return fail(err)
		}
		out = &plain.e2e
	} else {
		if plain, err = phase(def, *seed, runFor/2, nil); err != nil {
			return fail(err)
		}
		tr := newTracer()
		traced, err := phase(def, *seed, runFor/2, tr)
		if err != nil {
			return fail(err)
		}
		out = &traced.layer
		for k, v := range rooflines(def.payloadBytes) {
			out.set(k, v, "GB/s", 0)
		}
		base, with := plain.timing.get("cpu_ms_per_save"), traced.timing.get("cpu_ms_per_save")
		out.set("trace.overhead_pct", 100*ratio(with-base, base), "%", 0)
		for _, k := range sortedKeys(plain.timing.vals) {
			v := plain.timing.vals[k]
			out.set("e2e."+k, v.v, v.unit, v.samples)
		}
		path := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("trace-%s-%d.json", def.name, *seed))
		if err := tr.writeChrome(path); err != nil {
			return fail(fmt.Errorf("write trace: %w", err))
		}
		fmt.Printf("# trace written to %s\n", path)
		plain.attempted.Add(traced.attempted.Load())
		plain.failed.Add(traced.failed.Load())
		plain.errs = append(plain.errs, traced.errs...)
		traced.e2e.print(os.Stdout, "traced")
		traced.timing.print(os.Stdout, "traced")
	}
	steal1, total1 := cpuTicks()
	fmt.Printf("# steal_pct=%.1f (CPU time taken by the host while the run lasted)\n", 100*ratio(float64(steal1-steal0), float64(total1-total0)))
	plain.e2e.print(os.Stdout, "e2e")
	plain.timing.print(os.Stdout, "timing")
	attempted, failed := plain.attempted.Load(), plain.failed.Load()
	fmt.Printf("%-7s %-34s %14s %-6s n=%d\n", "e2e", "failed_ratio", strconv.FormatFloat(ratio(float64(failed), float64(attempted)), 'g', 6, 64), "ratio", attempted)
	if *trace == 1 {
		out.print(os.Stdout, "layer")
	}
	for _, msg := range plain.errs {
		fmt.Fprintf(os.Stderr, "perfbench: failed operation: %s\n", msg)
	}

	names := e2eNames
	if *trace == 1 {
		names = layerNames()
	} else {
		for _, k := range plain.timing.names {
			v := plain.timing.vals[k]
			out.set(k, v.v, v.unit, v.samples)
		}
	}
	line, err := resultJSON(out, names, *trace == 1, failed == 0, attempted, failed)
	if err != nil {
		return fail(err)
	}
	fmt.Println(line)
	if failed != 0 {
		return 1
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	return 1
}

// phase sets the workload up setupRuns times, then warms and measures
// the last set-up, and reports set-up time, memory and Go runtime figures
// around it. Set-up time covers payload generation, the device and
// checkpointer creation (device format) and, in train-sparse, the ranks'
// transports and workers. The warm-up saves are left out: they are the
// same work as the timed saves, which the stream figures measure.
func phase(def *workloadDef, seed int64, runFor time.Duration, tr *tracer) (*env, error) {
	e := &env{seed: seed, runFor: runFor, tr: tr}
	var setups []float64
	var inst instance
	for i := 0; i < setupRuns; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, fmt.Errorf("close %s: %w", def.name, err)
			}
			inst = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		var err error
		if inst, err = def.setup(e); err != nil {
			return nil, fmt.Errorf("set up %s: %w", def.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	e.e2e.set("setup_s", quantile(setups, 0.5), "s", len(setups))
	if err := inst.warm(e); err != nil {
		inst.close()
		return nil, fmt.Errorf("warm %s: %w", def.name, err)
	}
	if err := inst.run(e); err != nil {
		inst.close()
		return nil, fmt.Errorf("run %s: %w", def.name, err)
	}
	if err := inst.close(); err != nil {
		return nil, fmt.Errorf("close %s: %w", def.name, err)
	}
	return e, nil
}

// beginStream and endStream bracket the timed part of a phase, so that
// allocation and GC figures leave out set-up and the output checks.
// Peak memory covers set-up and the stream; the output checks allocate a
// payload per recovery and are left out.
func (e *env) beginStream() { e.mem0, e.t0 = readMem(), time.Now() }

func (e *env) endStream(saves int64) {
	m := readMem()
	el := time.Since(e.t0).Seconds()
	if rss, err := peakRSSMB(); err == nil {
		e.e2e.set("peak_rss_mb", rss, "MB", 0)
	}
	e.e2e.set("alloc_mb_per_save", ratio(float64(m.totalAlloc-e.mem0.totalAlloc)/1e6, float64(saves)), "MB", int(saves))
	e.layer.set("go.gc_cycles_per_save", ratio(float64(m.numGC-e.mem0.numGC), float64(saves)), "count", int(saves))
	e.layer.set("go.gc_pause_ms_per_s", ratio(float64(m.pauseNs-e.mem0.pauseNs)/1e6, el), "ms/s", int(m.numGC-e.mem0.numGC))
}

func layerNames() []string {
	names := sortedKeys(layerUnits)
	for _, k := range sortedKeys(timingUnits) {
		names = append(names, "e2e."+k)
	}
	return names
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// resultJSON renders the result line. In the traced run a metric of a
// layer the workload bypasses reads 0; an end-to-end metric must be
// measured.
func resultJSON(r *results, names []string, traced, correct bool, attempted, failed int64) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`, correct, attempted, failed)
	for i, name := range names {
		v, ok := r.vals[name]
		if !ok {
			if !traced {
				return "", fmt.Errorf("metric %s was not measured", name)
			}
			v = value{unit: unitOf(name)}
		}
		if math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			return "", fmt.Errorf("metric %s is %v", name, v.v)
		}
		if i > 0 {
			b.WriteString(", ")
		}
		k, _ := json.Marshal(name)
		u, _ := json.Marshal(v.unit)
		fmt.Fprintf(&b, `%s: {"value": %s, "unit": %s}`, k, strconv.FormatFloat(v.v, 'g', -1, 64), u)
	}
	b.WriteString("}}")
	return b.String(), nil
}

func unitOf(name string) string {
	if u, ok := layerUnits[name]; ok {
		return u
	}
	return timingUnits[strings.TrimPrefix(name, "e2e.")]
}
