package pccheck

import (
	"io"
	"net/http"

	"pccheck/internal/core"
	"pccheck/internal/obs"
	"pccheck/internal/obs/blackbox"
	"pccheck/internal/obs/decision"
	"pccheck/internal/storage"
)

// Observability: the flight recorder, latency histograms and the live
// metrics endpoint. The types here are aliases for internal/obs so that
// applications program entirely against the pccheck package; see
// docs/OBSERVABILITY.md for how each event and metric maps onto the
// paper's checkpoint pipeline.

// Observer receives one structured Event per checkpoint lifecycle phase.
// Emit is called from the persist hot path (writer goroutines, the
// publish loop), so implementations must be concurrency-safe and
// non-blocking; Recorder satisfies both.
type Observer = obs.Observer

// Event is a single flight-recorder sample: a timed span (slot wait,
// chunk copy, per-writer persist, barrier, …) or an instant (publish,
// CAS retry, fault). Events are plain values with no pointers, so
// emitting one never allocates.
type Event = obs.Event

// Phase identifies which part of the checkpoint pipeline an Event
// belongs to.
type Phase = obs.Phase

// Phases of the checkpoint pipeline, re-exported for matching against
// Event.Phase. See docs/OBSERVABILITY.md for what each one covers.
const (
	PhaseSave          = obs.PhaseSave          // one Save end to end
	PhaseSlotWait      = obs.PhaseSlotWait      // waiting for a free slot (§3.2)
	PhaseCopy          = obs.PhaseCopy          // source → DRAM chunk staging copy
	PhaseChunkWait     = obs.PhaseChunkWait     // waiting for a free DRAM chunk
	PhasePersist       = obs.PhasePersist       // one writer persisting one chunk
	PhaseSync          = obs.PhaseSync          // whole-payload sync (SSD path)
	PhaseHeader        = obs.PhaseHeader        // slot header persist
	PhaseBarrier       = obs.PhaseBarrier       // pointer-record BARRIER (§4.1)
	PhasePublish       = obs.PhasePublish       // CAS publish won
	PhaseObsolete      = obs.PhaseObsolete      // superseded before publishing
	PhaseCASRetry      = obs.PhaseCASRetry      // publish CAS retried
	PhaseIORetry       = obs.PhaseIORetry       // backoff before an I/O retry
	PhaseFault         = obs.PhaseFault         // transient device fault observed
	PhaseFaultInjected = obs.PhaseFaultInjected // fault-injection device fired
	PhaseSnapshot      = obs.PhaseSnapshot      // training-loop state snapshot
	PhaseRetune        = obs.PhaseRetune        // adaptive controller retuned
	PhaseAgree         = obs.PhaseAgree         // distributed commit round
	PhaseSaveFailed    = obs.PhaseSaveFailed    // a Save returned an error after starting
	PhaseAgreeGate     = obs.PhaseAgreeGate     // rank 0's per-round straggler record
	PhaseRankDead      = obs.PhaseRankDead      // rank 0 declared a rank dead (Value = cause)
	PhaseRankRejoined  = obs.PhaseRankRejoined  // a dead rank came back / resynced
	PhaseFrameDropped  = obs.PhaseFrameDropped  // a malformed or stale frame was discarded
	PhaseDeltaEncode   = obs.PhaseDeltaEncode   // hashing + diffing one chunk of a delta-mode save
	PhaseKeyframe      = obs.PhaseKeyframe      // a full checkpoint published in delta mode
	PhaseDecision      = obs.PhaseDecision      // a policy decision was recorded (Counter = decision seq)
	PhaseCrashMark     = obs.PhaseCrashMark     // crash boundary in a merged forensic timeline
)

// Recorder is the built-in Observer: a bounded lock-free event ring
// (flight recorder — when full, the oldest events are dropped) plus
// allocation-free latency histograms per phase. One Recorder may be
// shared by several Checkpointers, Loops and FaultDevices; all methods
// are safe for concurrent use.
type Recorder = obs.Recorder

// PhaseStats summarises one phase's latency distribution (count, total,
// p50/p95/p99, max).
type PhaseStats = obs.PhaseStats

// ObsSnapshot is a point-in-time view of a Recorder: outcome counters
// plus per-phase latency stats.
type ObsSnapshot = obs.Snapshot

// NewFlightRecorder builds a Recorder retaining the most recent capacity
// events (0 selects the default of 16384). Attach it via Config.Observer,
// then WriteTrace the ring into Perfetto-loadable JSON, scrape it with
// ServeMetrics, or inspect it directly via Snapshot.
func NewFlightRecorder(capacity int) *Recorder {
	return obs.NewRecorder(capacity)
}

// MetricsWriter renders Prometheus text exposition; Recorder and Ledger
// both implement it.
type MetricsWriter = obs.MetricsWriter

// ServeMetrics starts an HTTP server on addr (e.g. "127.0.0.1:9090"; an
// empty port picks a free one) exposing the recorder at /metrics
// (Prometheus text: per-phase latency summaries and outcome counters)
// and /debug/vars (expvar). Extra metrics writers — typically a *Ledger,
// adding the goodput/SLO gauge families — are appended to the /metrics
// output. It returns the server and its bound address; Close the server
// to stop.
func ServeMetrics(addr string, r *Recorder, extra ...MetricsWriter) (*http.Server, string, error) {
	return obs.Serve(addr, r, extra...)
}

// Ledger is the goodput ledger (§3.4, §5 of the paper): an Observer that
// attributes training wall-clock to compute and stall buckets, tracks the
// observed slowdown against the configured budget q, measures durable
// checkpoint staleness, and aggregates per-rank straggler statistics.
// Chain it in front of a Recorder with NewLedger and attach it as
// Config.Observer; Loop and AdaptiveLoop detect it there and feed it
// iteration timings automatically (AdaptiveLoop additionally retunes Eq.
// (3) from its measured write times).
type Ledger = obs.Ledger

// LedgerConfig tunes a Ledger (slowdown budget q, baseline iteration
// time, §3.4 model predictions for drift tracking).
type LedgerConfig = obs.LedgerConfig

// GoodputReport is a Ledger's point-in-time summary: goodput ratio,
// stall attribution, slowdown vs budget, staleness, model drift and the
// straggler table. All fields are JSON-tagged for machine export.
type GoodputReport = obs.GoodputReport

// RankAgreeStats is one rank's row in a GoodputReport straggler table.
type RankAgreeStats = obs.RankAgreeStats

// StallKind indexes a GoodputReport's wall-clock attribution buckets.
type StallKind = obs.StallKind

// Attribution buckets of the goodput ledger. Snapshot, drain and
// recovery stall training synchronously; slot-wait and persist overlap
// it (checkpoint-internal concurrency, not wall-clock extension).
const (
	StallSnapshot = obs.StallSnapshot
	StallSlotWait = obs.StallSlotWait
	StallPersist  = obs.StallPersist
	StallDrain    = obs.StallDrain
	StallRecovery = obs.StallRecovery
)

// NewLedger builds a goodput ledger that forwards every event to next
// (usually a *Recorder; nil for a stand-alone ledger). Attach the ledger
// — not next — as Config.Observer so it sees the full event stream.
func NewLedger(cfg LedgerConfig, next Observer) *Ledger {
	return obs.NewLedger(cfg, next)
}

// FormatGoodputReport renders rep as the human-readable end-of-run
// summary the pccheck commands print.
func FormatGoodputReport(w io.Writer, rep GoodputReport) {
	obs.FormatReport(w, rep)
}

// WriteTraceEvents renders events (from Recorder.TakeEvents) as Chrome
// trace-event JSON, loadable at https://ui.perfetto.dev. Prefer
// Recorder.WriteTrace unless you need to filter events first.
func WriteTraceEvents(w io.Writer, events []Event) error {
	return obs.WriteTraceEvents(w, events)
}

// Observer returns the observer this checkpointer was configured with
// (nil when observability is off).
func (c *Checkpointer) Observer() Observer {
	return c.engine.Observer()
}

// DecisionRecorder is the policy decision trace (internal/obs/decision):
// an Observer that records every tuning and coordination decision — the
// chosen action, its measured inputs, and the top-K rejected alternatives
// with the §3.4 model's predicted cost for each — and scores decisions
// with measured regret by joining them against the goodput ledger's
// slowdown blocks. Chain it between the Ledger and the flight Recorder
// (NewLedger(cfg, NewDecisionRecorder(dcfg, rec))) and attach the ledger
// as Config.Observer; AdaptiveLoop, the engine's slot admission and retry
// paths, the distributed coordinator, and the tuner all discover it in
// the chain automatically. A nil recorder costs one branch per decision
// point and zero allocations.
type DecisionRecorder = decision.Recorder

// DecisionConfig tunes a DecisionRecorder (ring capacity, rejected-
// alternative fan-out K, failure rate λ weighting staleness into retune
// candidate costs).
type DecisionConfig = decision.Config

// Decision is one recorded policy decision; DecisionAlternative one
// candidate action with its predicted cost; DecisionInputs the measured
// quantities the decision was derived from. All are JSON-tagged; the
// recorder's WriteJSONL exports one Decision per line.
type Decision = decision.Decision
type DecisionAlternative = decision.Alternative
type DecisionInputs = decision.Inputs

// DecisionSummary aggregates a decision log: totals, measurement-join
// coverage, and mean/max/total regret, overall and per kind.
type DecisionSummary = decision.Summary

// NewDecisionRecorder builds a decision recorder forwarding events to
// next (usually the flight Recorder).
func NewDecisionRecorder(cfg DecisionConfig, next Observer) *DecisionRecorder {
	return decision.New(cfg, next)
}

// FormatDecisionTable renders decisions worst-regret-first, up to limit
// rows (0 = all).
func FormatDecisionTable(w io.Writer, ds []Decision, limit int) {
	decision.FormatTable(w, ds, limit)
}

// BlackBoxConfig tunes the black-box telemetry region and its background
// flusher: region size, frame size, flush cadence, and how much of the
// event and decision tails each frame captures. The zero value disables
// the black box; set Bytes to enable it. Attach via Config.BlackBox.
type BlackBoxConfig = blackbox.Config

// PostMortem is a decoded black box: every CRC-valid frame of telemetry
// that survived the crash, oldest first, plus accessors for the merged
// event timeline, the final goodput report, and the last policy
// decisions. See PostMortemFile and Checkpointer.PostMortem.
type PostMortem = blackbox.PostMortem

// BlackBoxFrame is one telemetry frame of a PostMortem: the flight-ring
// tail, goodput report and decision tail one flush persisted.
type BlackBoxFrame = blackbox.Frame

// ErrNoBlackBox reports that a device was formatted without a black-box
// region (pre-forensics layout, or BlackBox disabled at Create time).
var ErrNoBlackBox = blackbox.ErrNoRegion

// FlushBlackBox persists one telemetry frame right now, outside the
// background cadence — call it from crash handlers or before risky
// operations to tighten the tail-loss window. It returns the frame's
// sequence number, or (0, nil) when no black box is attached.
func (c *Checkpointer) FlushBlackBox() (uint64, error) {
	return c.engine.FlushBlackBox()
}

// PostMortem decodes the black-box region of this checkpointer's own
// device — the live-process view of what a crash right now would leave
// behind. Most callers want PostMortemFile on the restart path instead.
func (c *Checkpointer) PostMortem() (*PostMortem, error) {
	return core.PostMortem(c.dev)
}

// PostMortemFile decodes the black-box telemetry region of a checkpoint
// file after a crash: the flight-ring tail, final goodput report and
// last policy decisions as of the last completed flush. Files created
// without BlackBox return ErrNoBlackBox. The pccheck-inspect command's
// -post-mortem flag renders the same data as text.
func PostMortemFile(path string) (*PostMortem, error) {
	dev, err := storage.ReopenSSD(path)
	if err != nil {
		return nil, err
	}
	defer dev.Close()
	return core.PostMortem(dev)
}
