//! Cycle-level observability for the REESE timing simulators.
//!
//! The simulators in `reese-pipeline` and `reese-core` run their cycle
//! loops over a generic [`Observer`] — a statically dispatched sink for
//! per-instruction lifecycle events and per-cycle machine state. The
//! default [`NoopObserver`] has `ENABLED == false`, so every hook
//! monomorphises to nothing and the un-traced simulator is the exact
//! machine code it was before this crate existed (`bench_pipeline`
//! keeps a traced-vs-untraced pair as the regression guard).
//!
//! Three layers:
//!
//! * [`TraceRing`] — a bounded ring of [`TraceEvent`]s (SimpleScalar's
//!   `ptrace` facility, re-imagined), exportable as Chrome trace-event
//!   JSON for Perfetto ([`TraceRing::to_chrome_json`]) or a compact
//!   text pipetrace ([`TraceRing::to_pipetrace_text`]).
//! * [`MetricsSeries`] — a per-interval time series of queue
//!   occupancies, per-FU-class busy cycles, R-stream issue
//!   opportunities taken vs. missed, stall causes, and scheduler
//!   bookkeeping cost; exportable to CSV/JSON and mergeable across
//!   shard intervals ([`MetricsSeries::merge_concat`]) or campaign
//!   trials ([`MetricsSeries::merge_pooled`]).
//! * [`Tracer`] — the concrete [`Observer`] wiring both together.
//!
//! # Example
//!
//! ```
//! use reese_trace::{Observer, Stage, Stream, Tracer, TraceEvent, CycleState};
//!
//! let mut t = Tracer::new().with_interval(4);
//! let mut state = CycleState::default();
//! for cycle in 1..=10 {
//!     state.committed += 1;
//!     t.event(TraceEvent {
//!         cycle,
//!         seq: state.committed - 1,
//!         pc: 0x1000,
//!         stage: Stage::Commit,
//!         stream: Stream::Primary,
//!     });
//!     t.cycle(cycle, &state);
//! }
//! t.finish();
//! assert_eq!(t.ring().len(), 10);
//! assert_eq!(t.metrics().rows.len(), 3); // cycles 1-3, 4-7, 8-10
//! assert!(t.ring().to_chrome_json().contains("traceEvents"));
//! ```

use reese_isa::FuClass;
use std::collections::VecDeque;
use std::fmt::Write as _;

/// Number of functional-unit classes tracked per metrics row (the
/// length of [`FuClass::ALL`]).
pub const NUM_FU_CLASSES: usize = 5;

/// Pipeline stage a [`TraceEvent`] belongs to, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Instruction delivered by the front end into the fetch queue.
    Fetch,
    /// Instruction entered the RUU (and LSQ, if memory).
    Dispatch,
    /// Execution started on a functional unit. With
    /// [`Stream::Redundant`], this is an R-issue from the R-stream
    /// Queue.
    Issue,
    /// Execution finished; dependants woken / result latched.
    Writeback,
    /// Completed primary instruction moved into the R-stream Queue.
    Migrate,
    /// P and R results compared at the queue head.
    Compare,
    /// Instruction architecturally retired.
    Commit,
    /// Detection flush: the machine squashed back to this instruction.
    Flush,
    /// Forensic marker: the injected fault fired on this instruction.
    /// Never emitted by the simulators themselves — the fault-forensics
    /// layer synthesises these when annotating a reconstructed trace.
    Inject,
    /// Forensic marker: first event at which the faulty run diverged
    /// from the clean baseline.
    Diverge,
    /// Forensic marker: the comparison (or trap) that caught the fault.
    Detect,
}

impl Stage {
    /// Every stage, in pipeline order; the forensic markers sort last.
    pub const ALL: [Stage; 11] = [
        Stage::Fetch,
        Stage::Dispatch,
        Stage::Issue,
        Stage::Writeback,
        Stage::Migrate,
        Stage::Compare,
        Stage::Commit,
        Stage::Flush,
        Stage::Inject,
        Stage::Diverge,
        Stage::Detect,
    ];

    /// Short lowercase name, used in both export formats.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Fetch => "fetch",
            Stage::Dispatch => "dispatch",
            Stage::Issue => "issue",
            Stage::Writeback => "writeback",
            Stage::Migrate => "migrate",
            Stage::Compare => "compare",
            Stage::Commit => "commit",
            Stage::Flush => "flush",
            Stage::Inject => "inject",
            Stage::Diverge => "diverge",
            Stage::Detect => "detect",
        }
    }

    fn index(self) -> u64 {
        Stage::ALL.iter().position(|&s| s == self).unwrap() as u64
    }
}

/// Which execution stream an event belongs to.
///
/// This deliberately mirrors the fault-injection `Stream` in
/// `reese-core`; it is redeclared here so the trace layer stays at the
/// bottom of the dependency graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stream {
    /// The primary (P) execution.
    Primary,
    /// The redundant (R) re-execution.
    Redundant,
}

impl Stream {
    /// One-letter tag used by the text pipetrace.
    pub fn tag(self) -> &'static str {
        match self {
            Stream::Primary => "P",
            Stream::Redundant => "R",
        }
    }

    fn index(self) -> u64 {
        match self {
            Stream::Primary => 0,
            Stream::Redundant => 1,
        }
    }
}

/// One instruction's passage through one pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Cycle the event happened.
    pub cycle: u64,
    /// Dynamic sequence number of the instruction.
    pub seq: u64,
    /// Program counter of the instruction.
    pub pc: u64,
    /// Stage reached.
    pub stage: Stage,
    /// Stream tag (P vs. R).
    pub stream: Stream,
}

impl TraceEvent {
    /// Perfetto track id: one lane per (stage, stream) pair, ordered by
    /// pipeline stage.
    fn tid(&self) -> u64 {
        self.stage.index() * 2 + self.stream.index()
    }
}

/// A snapshot of the machine handed to [`Observer::cycle`] once per
/// *executed* cycle.
///
/// Counters are **cumulative** since the start of the run, so an
/// interval row is a simple difference of two snapshots and a bulk idle
/// skip (the event-driven scheduler's clock jump) needs no per-cycle
/// replay. Occupancies are **instantaneous** at the end of the cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleState {
    /// Instructions committed so far.
    pub committed: u64,
    /// Primary-stream issues so far.
    pub issued: u64,
    /// Redundant-stream issues so far (0 on the baseline machine).
    pub r_issued: u64,
    /// R-issue opportunities considered but not taken so far — pending
    /// R entries inside the lookahead window that found no functional
    /// unit (or no issue-width budget) this cycle.
    pub r_missed: u64,
    /// Dispatch stalls charged to a full RUU so far.
    pub dispatch_stall_ruu: u64,
    /// Dispatch stalls charged to a full LSQ so far.
    pub dispatch_stall_lsq: u64,
    /// Cycles the fetch queue was empty at dispatch so far.
    pub fetch_empty: u64,
    /// Unit-cycles of occupancy per functional-unit class so far,
    /// indexed in [`FuClass::ALL`] order.
    pub fu_busy: [u64; NUM_FU_CLASSES],
    /// Scheduler bookkeeping operations so far: ReadyRing
    /// inserts/removes, EventWheel pushes/pops, and R-stream front
    /// window maintenance (one op per incremental append/remove, plus
    /// one per recovered seq on the rare rebuild scans) across the RUU
    /// and the R-stream Queue. 0 in `Scan` mode, which maintains none
    /// of these structures — so this counter is the direct price of
    /// event-driven scheduling, and comparing it against the per-cycle
    /// probes it replaces proves the per-cycle op reduction.
    pub sched_ops: u64,
    /// RUU entries resident at the end of this cycle.
    pub ruu_occ: usize,
    /// LSQ entries resident at the end of this cycle.
    pub lsq_occ: usize,
    /// R-stream Queue entries resident at the end of this cycle.
    pub rqueue_occ: usize,
    /// Fetch-queue entries resident at the end of this cycle.
    pub fetchq_occ: usize,
}

/// A sink for simulator observability hooks.
///
/// The simulators are generic over `O: Observer` and guard every hook
/// behind `if O::ENABLED { ... }`, so with [`NoopObserver`] (what every
/// simulator's `run` passes to its `simulate` entry point) the hooks —
/// and the work of building their arguments — compile away entirely.
pub trait Observer {
    /// Whether the hooks do anything. `false` makes the simulator
    /// byte-identical to an unobserved build.
    const ENABLED: bool;

    /// An instruction reached a pipeline stage.
    fn event(&mut self, ev: TraceEvent);

    /// An executed cycle ended with the given machine state.
    fn cycle(&mut self, cycle: u64, state: &CycleState);

    /// The event-driven scheduler skipped the idle cycles `from..to`
    /// (the landing cycle `to` executes normally and gets its own
    /// [`Observer::cycle`] call). `state` already includes the bulk
    /// bookkeeping for the skipped span; occupancies are constant
    /// across it.
    fn idle_skip(&mut self, from: u64, to: u64, state: &CycleState);
}

/// The do-nothing observer: every hook is an empty inline function and
/// `ENABLED == false`, so observed code paths monomorphise to the
/// original un-traced simulator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopObserver;

impl Observer for NoopObserver {
    const ENABLED: bool = false;

    #[inline(always)]
    fn event(&mut self, _ev: TraceEvent) {}

    #[inline(always)]
    fn cycle(&mut self, _cycle: u64, _state: &CycleState) {}

    #[inline(always)]
    fn idle_skip(&mut self, _from: u64, _to: u64, _state: &CycleState) {}
}

/// A borrowed observer observes for its owner, so a caller can lend one
/// to a run (or to a [`Pair`]) and keep it.
impl<O: Observer + ?Sized> Observer for &mut O {
    const ENABLED: bool = O::ENABLED;

    #[inline(always)]
    fn event(&mut self, ev: TraceEvent) {
        (**self).event(ev);
    }

    #[inline(always)]
    fn cycle(&mut self, cycle: u64, state: &CycleState) {
        (**self).cycle(cycle, state);
    }

    #[inline(always)]
    fn idle_skip(&mut self, from: u64, to: u64, state: &CycleState) {
        (**self).idle_skip(from, to, state);
    }
}

/// Fans every hook out to two observers, in order. `ENABLED` is the OR
/// of the parts, so pairing with [`NoopObserver`] costs nothing extra —
/// each part still guards its own work behind its own flag at runtime.
///
/// A run takes one observer, so composing an analysis probe with a
/// [`Tracer`] needs this combinator rather than two separate passes.
/// The parts are owned — a pair of clonable observers is clonable, so
/// a forked run can copy it — or borrowed, as `Pair(&mut a, &mut b)`.
#[derive(Debug, Clone, Default)]
pub struct Pair<A, B>(pub A, pub B);

impl<A: Observer, B: Observer> Observer for Pair<A, B> {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    #[inline]
    fn event(&mut self, ev: TraceEvent) {
        if A::ENABLED {
            self.0.event(ev);
        }
        if B::ENABLED {
            self.1.event(ev);
        }
    }

    #[inline]
    fn cycle(&mut self, cycle: u64, state: &CycleState) {
        if A::ENABLED {
            self.0.cycle(cycle, state);
        }
        if B::ENABLED {
            self.1.cycle(cycle, state);
        }
    }

    #[inline]
    fn idle_skip(&mut self, from: u64, to: u64, state: &CycleState) {
        if A::ENABLED {
            self.0.idle_skip(from, to, state);
        }
        if B::ENABLED {
            self.1.idle_skip(from, to, state);
        }
    }
}

/// An unbounded forensic log: every lifecycle event and every executed
/// cycle's [`CycleState`], kept in full.
///
/// This is the divergence observer behind `reese explain`: the same
/// anchored window is run twice — clean and with the fault injected —
/// each under a `DeepLog`, and the two logs are diffed event-by-event
/// to locate the first point where the faulty machine departs from the
/// baseline. Unlike [`TraceRing`] nothing is evicted, so it is only
/// suitable for short windows (a fault-trial window is a few thousand
/// instructions), never for whole-program runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeepLog {
    /// Every event, in emission order.
    pub events: Vec<TraceEvent>,
    /// `(cycle, state)` for every executed cycle, in order.
    pub states: Vec<(u64, CycleState)>,
}

/// One logged `(cycle, state)` snapshot from a [`DeepLog`].
pub type CycleSnapshot = (u64, CycleState);

impl DeepLog {
    /// An empty log.
    pub fn new() -> DeepLog {
        DeepLog::default()
    }

    /// Index of the first event at which `self` (the faulty run)
    /// diverges from `clean` — either the events differ, or one log
    /// ends first. `None` when the streams are identical.
    pub fn first_event_divergence(&self, clean: &DeepLog) -> Option<usize> {
        let common = self.events.len().min(clean.events.len());
        (0..common)
            .find(|&i| self.events[i] != clean.events[i])
            .or_else(|| (self.events.len() != clean.events.len()).then_some(common))
    }

    /// The first executed cycle whose [`CycleState`] differs from the
    /// clean run's state for the same position, with both snapshots.
    /// `None` when every common cycle matches and both logs have the
    /// same length.
    pub fn first_state_divergence<'a>(
        &'a self,
        clean: &'a DeepLog,
    ) -> Option<(&'a CycleSnapshot, Option<&'a CycleSnapshot>)> {
        let common = self.states.len().min(clean.states.len());
        for i in 0..common {
            if self.states[i] != clean.states[i] {
                return Some((&self.states[i], Some(&clean.states[i])));
            }
        }
        if self.states.len() > clean.states.len() {
            return Some((&self.states[common], None));
        }
        None
    }
}

impl Observer for DeepLog {
    const ENABLED: bool = true;

    #[inline]
    fn event(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }

    #[inline]
    fn cycle(&mut self, cycle: u64, state: &CycleState) {
        self.states.push((cycle, *state));
    }

    #[inline]
    fn idle_skip(&mut self, _from: u64, _to: u64, _state: &CycleState) {}
}

/// A bounded ring buffer of [`TraceEvent`]s keeping the **last**
/// `capacity` events; older events are dropped (and counted) so a long
/// run cannot exhaust memory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceRing {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl TraceRing {
    /// Creates a ring holding at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> TraceRing {
        let capacity = capacity.max(1);
        TraceRing {
            events: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            dropped: 0,
        }
    }

    /// Appends an event, evicting (and counting) the oldest if full.
    pub fn push(&mut self, ev: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Iterates retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Appends another ring's events with their cycles shifted by
    /// `cycle_offset` — the stitch rule for sharded intervals, whose
    /// local clocks all start at zero.
    pub fn merge_concat(&mut self, other: &TraceRing, cycle_offset: u64) {
        self.dropped += other.dropped;
        for ev in &other.events {
            self.push(TraceEvent {
                cycle: ev.cycle + cycle_offset,
                ..*ev
            });
        }
    }

    /// Exports the ring as Chrome trace-event JSON (the format Perfetto
    /// and `chrome://tracing` load).
    ///
    /// Each event becomes a complete (`"ph": "X"`) slice of one cycle,
    /// with `ts` in cycles, on a track per (stage, stream) pair;
    /// `thread_name` metadata labels the tracks. The count of events
    /// dropped by the ring is recorded under `otherData`.
    pub fn to_chrome_json(&self) -> String {
        let mut entries: Vec<String> = Vec::with_capacity(self.events.len() + 16);
        let mut tids: Vec<(u64, Stage, Stream)> = self
            .events
            .iter()
            .map(|e| (e.tid(), e.stage, e.stream))
            .collect();
        tids.sort_unstable();
        tids.dedup();
        for (tid, stage, stream) in tids {
            entries.push(format!(
                "    {{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \
                 \"args\": {{\"name\": \"{} ({})\"}}}}",
                stage.name(),
                stream.tag()
            ));
        }
        for e in &self.events {
            entries.push(format!(
                "    {{\"name\": \"{} #{}\", \"ph\": \"X\", \"ts\": {}, \"dur\": 1, \
                 \"pid\": 1, \"tid\": {}, \"args\": {{\"seq\": {}, \"pc\": \"{:#x}\", \
                 \"stream\": \"{}\"}}}}",
                e.stage.name(),
                e.seq,
                e.cycle,
                e.tid(),
                e.seq,
                e.pc,
                e.stream.tag()
            ));
        }
        let mut s = String::from("{\n");
        let _ = writeln!(
            s,
            "  \"displayTimeUnit\": \"ms\",\n  \"otherData\": {{\"dropped_events\": {}}},",
            self.dropped
        );
        s.push_str("  \"traceEvents\": [\n");
        s.push_str(&entries.join(",\n"));
        s.push_str("\n  ]\n}\n");
        s
    }

    /// Exports the ring as a compact text pipetrace, one event per
    /// line, à la SimpleScalar's `ptrace`.
    pub fn to_pipetrace_text(&self) -> String {
        let mut s = format!(
            "# reese pipetrace: {} events retained, {} dropped\n# cycle stream stage seq pc\n",
            self.events.len(),
            self.dropped
        );
        for e in &self.events {
            let _ = writeln!(
                s,
                "{:>10} {} {:<9} #{:<8} {:#010x}",
                e.cycle,
                e.stream.tag(),
                e.stage.name(),
                e.seq,
                e.pc
            );
        }
        s
    }
}

/// One sampling interval of the metrics time series. Counter fields are
/// **deltas** over `[start_cycle, end_cycle)`; `*_occ_sum` fields are
/// cycle-weighted occupancy sums (divide by [`MetricsRow::cycles`] for
/// the interval average).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsRow {
    /// First cycle of the interval.
    pub start_cycle: u64,
    /// One past the last cycle of the interval. Under the event-driven
    /// scheduler an idle skip can stretch a row past the nominal
    /// sampling interval; the recorded boundaries are always exact.
    pub end_cycle: u64,
    /// Cycles the simulator actually executed (the rest were bulk idle
    /// skips).
    pub executed_cycles: u64,
    /// Instructions committed in the interval.
    pub committed: u64,
    /// Primary-stream issues in the interval.
    pub issued: u64,
    /// Redundant-stream issues in the interval.
    pub r_issued: u64,
    /// R-issue opportunities not taken in the interval.
    pub r_missed: u64,
    /// Dispatch stalls on a full RUU in the interval.
    pub dispatch_stall_ruu: u64,
    /// Dispatch stalls on a full LSQ in the interval.
    pub dispatch_stall_lsq: u64,
    /// Cycles with an empty fetch queue in the interval.
    pub fetch_empty: u64,
    /// Unit-cycles of FU occupancy in the interval, [`FuClass::ALL`]
    /// order.
    pub fu_busy: [u64; NUM_FU_CLASSES],
    /// Scheduler bookkeeping operations in the interval.
    pub sched_ops: u64,
    /// Cycle-weighted RUU occupancy sum.
    pub ruu_occ_sum: u64,
    /// Cycle-weighted LSQ occupancy sum.
    pub lsq_occ_sum: u64,
    /// Cycle-weighted R-stream Queue occupancy sum.
    pub rqueue_occ_sum: u64,
    /// Cycle-weighted fetch-queue occupancy sum.
    pub fetchq_occ_sum: u64,
}

impl MetricsRow {
    /// Width of the interval in cycles.
    pub fn cycles(&self) -> u64 {
        self.end_cycle - self.start_cycle
    }

    /// A counter expressed as a rate per 1000 cycles of this interval.
    pub fn per_1k_cycles(&self, count: u64) -> f64 {
        let c = self.cycles();
        if c == 0 {
            0.0
        } else {
            count as f64 * 1000.0 / c as f64
        }
    }

    /// Average occupancy from a cycle-weighted sum.
    pub fn avg_occ(&self, occ_sum: u64) -> f64 {
        let c = self.cycles();
        if c == 0 {
            0.0
        } else {
            occ_sum as f64 / c as f64
        }
    }

    /// Field-wise sum of the counters of two rows covering the same
    /// nominal interval (the pooled-merge rule); boundaries widen to
    /// the union.
    fn pool(&mut self, other: &MetricsRow) {
        self.start_cycle = self.start_cycle.min(other.start_cycle);
        self.end_cycle = self.end_cycle.max(other.end_cycle);
        self.executed_cycles += other.executed_cycles;
        self.committed += other.committed;
        self.issued += other.issued;
        self.r_issued += other.r_issued;
        self.r_missed += other.r_missed;
        self.dispatch_stall_ruu += other.dispatch_stall_ruu;
        self.dispatch_stall_lsq += other.dispatch_stall_lsq;
        self.fetch_empty += other.fetch_empty;
        for (a, b) in self.fu_busy.iter_mut().zip(other.fu_busy.iter()) {
            *a += *b;
        }
        self.sched_ops += other.sched_ops;
        self.ruu_occ_sum += other.ruu_occ_sum;
        self.lsq_occ_sum += other.lsq_occ_sum;
        self.rqueue_occ_sum += other.rqueue_occ_sum;
        self.fetchq_occ_sum += other.fetchq_occ_sum;
    }

    fn shifted(&self, cycle_offset: u64) -> MetricsRow {
        MetricsRow {
            start_cycle: self.start_cycle + cycle_offset,
            end_cycle: self.end_cycle + cycle_offset,
            ..*self
        }
    }
}

/// A per-interval metrics time series, as collected by [`Tracer`] or
/// merged from several runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSeries {
    /// Nominal sampling interval in cycles.
    pub interval: u64,
    /// The rows, in cycle order.
    pub rows: Vec<MetricsRow>,
}

impl MetricsSeries {
    /// Creates an empty series with the given nominal interval.
    pub fn new(interval: u64) -> MetricsSeries {
        MetricsSeries {
            interval: interval.max(1),
            rows: Vec::new(),
        }
    }

    /// Appends another series' rows with cycles shifted by
    /// `cycle_offset` — the stitch rule for `reese shard` intervals,
    /// whose local clocks all start at zero.
    pub fn merge_concat(&mut self, other: &MetricsSeries, cycle_offset: u64) {
        if self.interval == 1 && self.rows.is_empty() {
            self.interval = other.interval;
        }
        self.rows
            .extend(other.rows.iter().map(|r| r.shifted(cycle_offset)));
    }

    /// Pools another series row-by-row (by index) — the merge rule for
    /// campaign trials, which all start at cycle zero. Counters add;
    /// interval boundaries widen to the union; rows past the shorter
    /// series are appended unchanged.
    pub fn merge_pooled(&mut self, other: &MetricsSeries) {
        if self.interval == 1 && self.rows.is_empty() {
            self.interval = other.interval;
        }
        for (i, row) in other.rows.iter().enumerate() {
            if let Some(mine) = self.rows.get_mut(i) {
                mine.pool(row);
            } else {
                self.rows.push(*row);
            }
        }
    }

    /// The CSV header matching [`MetricsSeries::to_csv`]. Stall causes
    /// are exported both as raw counts and as rates per 1k cycles.
    pub fn csv_header() -> String {
        let mut s = String::from(
            "start_cycle,end_cycle,cycles,executed_cycles,committed,issued,\
             r_issued,r_missed,dispatch_stall_ruu_full,dispatch_stall_lsq_full,\
             ruu_stall_per_1k_cycles,lsq_stall_per_1k_cycles,fetch_empty_cycles,\
             sched_ops,avg_ruu_occ,avg_lsq_occ,avg_rqueue_occ,avg_fetchq_occ",
        );
        for class in FuClass::ALL {
            let _ = write!(s, ",busy_{}", fu_class_slug(class));
        }
        s
    }

    /// Exports the series as CSV, one row per interval.
    pub fn to_csv(&self) -> String {
        let mut s = MetricsSeries::csv_header();
        s.push('\n');
        for r in &self.rows {
            let _ = write!(
                s,
                "{},{},{},{},{},{},{},{},{},{},{:.4},{:.4},{},{},{:.3},{:.3},{:.3},{:.3}",
                r.start_cycle,
                r.end_cycle,
                r.cycles(),
                r.executed_cycles,
                r.committed,
                r.issued,
                r.r_issued,
                r.r_missed,
                r.dispatch_stall_ruu,
                r.dispatch_stall_lsq,
                r.per_1k_cycles(r.dispatch_stall_ruu),
                r.per_1k_cycles(r.dispatch_stall_lsq),
                r.fetch_empty,
                r.sched_ops,
                r.avg_occ(r.ruu_occ_sum),
                r.avg_occ(r.lsq_occ_sum),
                r.avg_occ(r.rqueue_occ_sum),
                r.avg_occ(r.fetchq_occ_sum),
            );
            for b in r.fu_busy {
                let _ = write!(s, ",{b}");
            }
            s.push('\n');
        }
        s
    }

    /// Exports the series as a JSON array of row objects.
    pub fn to_json(&self) -> String {
        let mut s = format!("{{\n  \"interval\": {},\n  \"rows\": [\n", self.interval);
        for (i, r) in self.rows.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"start_cycle\": {}, \"end_cycle\": {}, \"executed_cycles\": {}, \
                 \"committed\": {}, \"issued\": {}, \"r_issued\": {}, \"r_missed\": {}, \
                 \"dispatch_stall_ruu_full\": {}, \"dispatch_stall_lsq_full\": {}, \
                 \"ruu_stall_per_1k_cycles\": {:.4}, \"lsq_stall_per_1k_cycles\": {:.4}, \
                 \"fetch_empty_cycles\": {}, \"sched_ops\": {}, \
                 \"avg_ruu_occ\": {:.3}, \"avg_lsq_occ\": {:.3}, \"avg_rqueue_occ\": {:.3}, \
                 \"avg_fetchq_occ\": {:.3}, \"fu_busy\": [",
                r.start_cycle,
                r.end_cycle,
                r.executed_cycles,
                r.committed,
                r.issued,
                r.r_issued,
                r.r_missed,
                r.dispatch_stall_ruu,
                r.dispatch_stall_lsq,
                r.per_1k_cycles(r.dispatch_stall_ruu),
                r.per_1k_cycles(r.dispatch_stall_lsq),
                r.fetch_empty,
                r.sched_ops,
                r.avg_occ(r.ruu_occ_sum),
                r.avg_occ(r.lsq_occ_sum),
                r.avg_occ(r.rqueue_occ_sum),
                r.avg_occ(r.fetchq_occ_sum),
            );
            let busy: Vec<String> = r.fu_busy.iter().map(|b| b.to_string()).collect();
            s.push_str(&busy.join(", "));
            s.push_str("]}");
            if i + 1 < self.rows.len() {
                s.push(',');
            }
            s.push('\n');
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Totals over the whole series (a pooled fold of every row).
    pub fn totals(&self) -> MetricsRow {
        let mut total = match self.rows.first() {
            Some(first) => *first,
            None => return MetricsRow::default(),
        };
        for r in &self.rows[1..] {
            total.pool(r);
        }
        total
    }
}

/// Stable lowercase slug for a functional-unit class, used in CSV
/// headers.
fn fu_class_slug(class: FuClass) -> &'static str {
    match class {
        FuClass::IntAlu => "int_alu",
        FuClass::IntMulDiv => "int_muldiv",
        FuClass::FpAlu => "fp_alu",
        FuClass::FpMulDiv => "fp_muldiv",
        FuClass::MemPort => "mem_port",
    }
}

/// The concrete collecting [`Observer`]: events go into a [`TraceRing`],
/// per-cycle state folds into a [`MetricsSeries`].
///
/// A metrics row is emitted at the first **executed** cycle at or past
/// each interval boundary, so under the event-driven scheduler a bulk
/// idle skip can stretch a row past the nominal interval; every row
/// records its exact `[start_cycle, end_cycle)` span. Call
/// [`Tracer::finish`] after the run to flush the final partial row.
#[derive(Debug, Clone)]
pub struct Tracer {
    ring: TraceRing,
    series: MetricsSeries,
    row_start: u64,
    base: CycleState,
    last: CycleState,
    last_cycle: u64,
    executed: u64,
    ruu_occ_sum: u64,
    lsq_occ_sum: u64,
    rqueue_occ_sum: u64,
    fetchq_occ_sum: u64,
    seen_any: bool,
}

impl Tracer {
    /// Default sampling interval in cycles.
    pub const DEFAULT_INTERVAL: u64 = 10_000;
    /// Default event-ring capacity.
    pub const DEFAULT_RING_CAPACITY: usize = 65_536;

    /// Creates a tracer with the default interval and ring capacity.
    pub fn new() -> Tracer {
        Tracer {
            ring: TraceRing::new(Tracer::DEFAULT_RING_CAPACITY),
            series: MetricsSeries::new(Tracer::DEFAULT_INTERVAL),
            row_start: 0,
            base: CycleState::default(),
            last: CycleState::default(),
            last_cycle: 0,
            executed: 0,
            ruu_occ_sum: 0,
            lsq_occ_sum: 0,
            rqueue_occ_sum: 0,
            fetchq_occ_sum: 0,
            seen_any: false,
        }
    }

    /// Sets the metrics sampling interval (cycles, minimum 1).
    pub fn with_interval(mut self, interval: u64) -> Tracer {
        self.series.interval = interval.max(1);
        self
    }

    /// Sets the event-ring capacity.
    pub fn with_ring_capacity(mut self, capacity: usize) -> Tracer {
        self.ring = TraceRing::new(capacity);
        self
    }

    /// Closes the current partial metrics row, if any. Idempotent;
    /// call once after the simulation returns.
    pub fn finish(&mut self) {
        if self.seen_any && self.last_cycle + 1 > self.row_start {
            self.close_row(self.last_cycle + 1);
        }
    }

    /// The collected event ring.
    pub fn ring(&self) -> &TraceRing {
        &self.ring
    }

    /// The collected metrics series.
    pub fn metrics(&self) -> &MetricsSeries {
        &self.series
    }

    /// Consumes the tracer, returning the ring and the series.
    pub fn into_parts(self) -> (TraceRing, MetricsSeries) {
        (self.ring, self.series)
    }

    fn close_row(&mut self, end: u64) {
        let s = self.last;
        let b = self.base;
        let mut fu_busy = [0u64; NUM_FU_CLASSES];
        for (out, (now, before)) in fu_busy
            .iter_mut()
            .zip(s.fu_busy.iter().zip(b.fu_busy.iter()))
        {
            *out = now - before;
        }
        self.series.rows.push(MetricsRow {
            start_cycle: self.row_start,
            end_cycle: end,
            executed_cycles: self.executed,
            committed: s.committed - b.committed,
            issued: s.issued - b.issued,
            r_issued: s.r_issued - b.r_issued,
            r_missed: s.r_missed - b.r_missed,
            dispatch_stall_ruu: s.dispatch_stall_ruu - b.dispatch_stall_ruu,
            dispatch_stall_lsq: s.dispatch_stall_lsq - b.dispatch_stall_lsq,
            fetch_empty: s.fetch_empty - b.fetch_empty,
            fu_busy,
            sched_ops: s.sched_ops - b.sched_ops,
            ruu_occ_sum: self.ruu_occ_sum,
            lsq_occ_sum: self.lsq_occ_sum,
            rqueue_occ_sum: self.rqueue_occ_sum,
            fetchq_occ_sum: self.fetchq_occ_sum,
        });
        self.row_start = end;
        self.base = s;
        self.executed = 0;
        self.ruu_occ_sum = 0;
        self.lsq_occ_sum = 0;
        self.rqueue_occ_sum = 0;
        self.fetchq_occ_sum = 0;
    }
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Observer for Tracer {
    const ENABLED: bool = true;

    fn event(&mut self, ev: TraceEvent) {
        self.ring.push(ev);
    }

    fn cycle(&mut self, cycle: u64, state: &CycleState) {
        self.ruu_occ_sum += state.ruu_occ as u64;
        self.lsq_occ_sum += state.lsq_occ as u64;
        self.rqueue_occ_sum += state.rqueue_occ as u64;
        self.fetchq_occ_sum += state.fetchq_occ as u64;
        self.executed += 1;
        self.last = *state;
        self.last_cycle = cycle;
        self.seen_any = true;
        if cycle + 1 >= self.row_start + self.series.interval {
            self.close_row(cycle + 1);
        }
    }

    fn idle_skip(&mut self, from: u64, to: u64, state: &CycleState) {
        let n = to - from;
        self.ruu_occ_sum += state.ruu_occ as u64 * n;
        self.lsq_occ_sum += state.lsq_occ as u64 * n;
        self.rqueue_occ_sum += state.rqueue_occ as u64 * n;
        self.fetchq_occ_sum += state.fetchq_occ as u64 * n;
        self.last = *state;
        self.seen_any = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64, seq: u64, stage: Stage, stream: Stream) -> TraceEvent {
        TraceEvent {
            cycle,
            seq,
            pc: 0x40_0000 + seq * 4,
            stage,
            stream,
        }
    }

    #[test]
    fn fu_class_count_matches_isa() {
        assert_eq!(FuClass::ALL.len(), NUM_FU_CLASSES);
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let mut r = TraceRing::new(3);
        for c in 0..5 {
            r.push(ev(c, c, Stage::Commit, Stream::Primary));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let cycles: Vec<u64> = r.iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![2, 3, 4], "the last events win");
    }

    #[test]
    fn chrome_json_has_events_and_track_names() {
        let mut r = TraceRing::new(16);
        r.push(ev(1, 0, Stage::Fetch, Stream::Primary));
        r.push(ev(5, 0, Stage::Issue, Stream::Redundant));
        let json = r.to_chrome_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("fetch (P)"));
        assert!(json.contains("issue (R)"));
        assert!(json.contains("\"dropped_events\": 0"));
        // Crude structural sanity: balanced braces and brackets.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn empty_ring_still_exports_valid_shapes() {
        let r = TraceRing::new(4);
        let json = r.to_chrome_json();
        assert!(json.contains("\"traceEvents\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(r.to_pipetrace_text().starts_with("# reese pipetrace"));
    }

    #[test]
    fn pipetrace_text_lists_events_in_order() {
        let mut r = TraceRing::new(16);
        r.push(ev(3, 7, Stage::Dispatch, Stream::Primary));
        r.push(ev(9, 7, Stage::Commit, Stream::Primary));
        let text = r.to_pipetrace_text();
        let dispatch = text.find("dispatch").unwrap();
        let commit = text.find("commit").unwrap();
        assert!(dispatch < commit);
        assert!(text.contains("#7"));
    }

    #[test]
    fn tracer_rows_are_deltas() {
        let mut t = Tracer::new().with_interval(5);
        let mut state = CycleState::default();
        for cycle in 1..=10 {
            state.committed += 2;
            state.issued += 3;
            state.ruu_occ = 4;
            t.cycle(cycle, &state);
        }
        t.finish();
        let rows = &t.metrics().rows;
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].start_cycle, 0);
        assert_eq!(rows[0].end_cycle, 5);
        assert_eq!(rows[0].committed, 8, "cycles 1..=4 in the first row");
        assert_eq!(rows[1].committed, 10, "cycles 5..=9 in the second row");
        assert_eq!(rows[2].committed, 2, "cycle 10 flushed by finish()");
        assert!((rows[1].avg_occ(rows[1].ruu_occ_sum) - 4.0).abs() < 1e-9);
        let total: u64 = rows.iter().map(|r| r.committed).sum();
        assert_eq!(total, state.committed);
    }

    #[test]
    fn idle_skip_stretches_a_row_without_losing_occupancy() {
        let mut t = Tracer::new().with_interval(4);
        let mut state = CycleState {
            rqueue_occ: 2,
            ..CycleState::default()
        };
        t.cycle(1, &state);
        // Skip cycles 2..100, landing on 100.
        state.fetch_empty += 98;
        t.idle_skip(2, 100, &state);
        state.committed += 1;
        t.cycle(100, &state);
        t.finish();
        let rows = &t.metrics().rows;
        assert_eq!(rows.len(), 1, "the skip stretches one row");
        assert_eq!(rows[0].end_cycle, 101);
        assert_eq!(rows[0].executed_cycles, 2);
        assert_eq!(rows[0].fetch_empty, 98);
        // Occupancy 2 held for 1 (executed) + 98 (skipped) + 1 (landing).
        assert_eq!(rows[0].rqueue_occ_sum, 2 * 100);
    }

    #[test]
    fn finish_is_idempotent_and_skips_empty() {
        let mut t = Tracer::new();
        t.finish();
        assert!(t.metrics().rows.is_empty());
        let state = CycleState::default();
        t.cycle(1, &state);
        t.finish();
        t.finish();
        assert_eq!(t.metrics().rows.len(), 1);
    }

    #[test]
    fn merge_concat_shifts_cycles() {
        let mut a = MetricsSeries::new(10);
        a.rows.push(MetricsRow {
            start_cycle: 0,
            end_cycle: 10,
            committed: 5,
            ..MetricsRow::default()
        });
        let mut b = MetricsSeries::new(10);
        b.rows.push(MetricsRow {
            start_cycle: 0,
            end_cycle: 7,
            committed: 3,
            ..MetricsRow::default()
        });
        a.merge_concat(&b, 10);
        assert_eq!(a.rows.len(), 2);
        assert_eq!(a.rows[1].start_cycle, 10);
        assert_eq!(a.rows[1].end_cycle, 17);
        assert_eq!(a.totals().committed, 8);
    }

    #[test]
    fn merge_pooled_adds_by_row_index() {
        let row = |committed| MetricsRow {
            start_cycle: 0,
            end_cycle: 10,
            committed,
            ..MetricsRow::default()
        };
        let mut a = MetricsSeries::new(10);
        a.rows.push(row(5));
        let mut b = MetricsSeries::new(10);
        b.rows.push(row(3));
        b.rows.push(row(2));
        a.merge_pooled(&b);
        assert_eq!(a.rows.len(), 2);
        assert_eq!(a.rows[0].committed, 8);
        assert_eq!(a.rows[1].committed, 2, "extra rows append unchanged");
    }

    #[test]
    fn csv_has_header_rates_and_fu_columns() {
        let mut s = MetricsSeries::new(1000);
        s.rows.push(MetricsRow {
            start_cycle: 0,
            end_cycle: 1000,
            dispatch_stall_ruu: 10,
            ..MetricsRow::default()
        });
        let csv = s.to_csv();
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert!(header.contains("ruu_stall_per_1k_cycles"));
        assert!(header.contains("busy_int_alu"));
        assert!(header.contains("busy_mem_port"));
        let row = lines.next().unwrap();
        assert_eq!(
            header.split(',').count(),
            row.split(',').count(),
            "row arity must match the header"
        );
        assert!(row.contains("10.0000"), "10 stalls over 1k cycles");
    }

    #[test]
    fn json_is_structurally_balanced() {
        let mut s = MetricsSeries::new(10);
        s.rows.push(MetricsRow {
            start_cycle: 0,
            end_cycle: 10,
            committed: 4,
            fu_busy: [1, 2, 3, 4, 5],
            ..MetricsRow::default()
        });
        let json = s.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"fu_busy\": [1, 2, 3, 4, 5]"));
    }

    #[test]
    fn noop_observer_is_disabled() {
        const { assert!(!NoopObserver::ENABLED) };
        const { assert!(Tracer::ENABLED) };
    }
}
