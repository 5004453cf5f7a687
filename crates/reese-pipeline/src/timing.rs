//! The one timing core every simulator runs on.
//!
//! [`Core`] is the out-of-order pipeline — fetch → dispatch → issue →
//! writeback → commit over the RUU, the LSQ, the functional-unit pool,
//! the gshare front end and the cache hierarchy — with its run loop,
//! idle-cycle skip, and drain/deadlock/cycle-limit checks written once.
//! A detection mechanism plugs in as a [`Redundancy`] policy: `()` is the
//! unprotected baseline, and `reese-core` supplies the R-stream Queue
//! (REESE) and the dispatch twin (Franklin-style duplication).

use crate::{
    FetchUnit, Fetched, FuPool, LoadPlan, Lsq, PipelineConfig, PipelineStats, PredictionInfo, Ruu,
    SchedulerMode, Seq, SimError, SimResult, SimStop,
};
use reese_cpu::{Emulator, StepInfo};
use reese_isa::{FuClass, Program};
use reese_mem::MemHierarchy;
use reese_trace::{CycleState, Observer, Stage, Stream, TraceEvent};
use std::collections::VecDeque;

/// Cycles without a commit after which the simulator declares a
/// deadlock (an internal invariant violation, not a program property).
const DEADLOCK_HORIZON: u64 = 100_000;

/// Warm microarchitectural state to seed an interval run with: the
/// cache/TLB hierarchy and the branch unit as some earlier execution
/// left them. Produced by a checkpointing fast-forward pass and
/// consumed through [`RunSpec::restored`]; both sides must use the same
/// hierarchy and predictor geometry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WarmState {
    /// Cache and TLB state.
    pub hierarchy: reese_mem::HierarchySnapshot,
    /// Branch predictor, BTB, and RAS state.
    pub branch: reese_bpred::BranchSnapshot,
}

/// What to simulate: where to start, when to stop, and the faults to
/// inject. `F` is the machine's fault plan — `()` on the unprotected
/// baseline, which has nothing to inject into.
///
/// A run starts from an emulator plus optional warm state: a fresh
/// emulator at program start, or one restored from a checkpoint
/// mid-program with the caches and predictors that checkpoint's
/// continuous-warm fast-forward left. Dynamic sequence numbers are
/// global: a run from a checkpoint keeps counting from program start,
/// so a fault aimed before the start point never fires. Statistics
/// cover the run only, so a sharded driver sums its intervals' cycles.
#[derive(Debug)]
pub struct RunSpec<'a, F = ()> {
    /// The functional state the run starts from.
    pub emulator: Emulator,
    /// Cache and predictor state to import; `None` starts them cold.
    pub warm: Option<&'a WarmState>,
    /// Stop once this many instructions commit (`u64::MAX`: run to
    /// `halt`).
    pub max_instructions: u64,
    /// Faults to inject.
    pub faults: F,
}

impl<'a, F: Default> RunSpec<'a, F> {
    /// A fault-free run of `program` from its start to `halt`.
    pub fn new(program: &Program) -> Self {
        RunSpec::restored(Emulator::new(program), None)
    }

    /// A fault-free run resuming from a checkpoint-restored emulator.
    pub fn restored(emulator: Emulator, warm: Option<&'a WarmState>) -> Self {
        RunSpec {
            emulator,
            warm,
            max_instructions: u64::MAX,
            faults: F::default(),
        }
    }
}

impl<F> RunSpec<'_, F> {
    /// Stops the run once `max_instructions` commit.
    pub fn limit(mut self, max_instructions: u64) -> Self {
        self.max_instructions = max_instructions;
        self
    }
}

impl<'a> RunSpec<'a, ()> {
    /// Injects `faults`, in the fault plan of the machine that will run
    /// the spec.
    pub fn faults<G>(self, faults: G) -> RunSpec<'a, G> {
        RunSpec {
            emulator: self.emulator,
            warm: self.warm,
            max_instructions: self.max_instructions,
            faults,
        }
    }
}

/// Reports `seq` reaching `stage` to `obs`; compiles away when the
/// observer is disabled.
#[inline(always)]
pub fn emit<O: Observer>(obs: &mut O, cycle: u64, seq: Seq, pc: u64, stage: Stage, stream: Stream) {
    if O::ENABLED {
        obs.event(TraceEvent {
            cycle,
            seq,
            pc,
            stage,
            stream,
        });
    }
}

/// Whether the timing core treats two functional records of one dynamic
/// instruction alike. Of a [`StepInfo`] the core reads the pc (and with
/// it the static instruction), the next pc and branch outcome, the
/// memory access's address, width and kind, whether it halts, what it
/// prints, and a halt's exit value; operand, result and data values
/// never reach it otherwise. So two runs from one machine state whose
/// front ends receive pairwise `same_timing` records up to their
/// frontier ([`PipelineConfig::fetch_lookahead`]) go through the same
/// cycles, events and commits, and end with the same result but for
/// the state digest.
pub fn same_timing(a: &StepInfo, b: &StepInfo) -> bool {
    let mem = |i: &StepInfo| i.mem.map(|m| (m.addr, m.width, m.is_store));
    a.pc == b.pc
        && a.next_pc == b.next_pc
        && a.taken == b.taken
        && mem(a) == mem(b)
        && a.halted == b.halted
        && a.printed == b.printed
        && (!a.halted || a.result == b.result)
}

/// A detection mechanism layered on the timing [`Core`]: the hooks the
/// core calls at fixed points of every cycle. `()` is the unprotected
/// baseline, which needs nothing beyond the required hooks.
///
/// Hooks are associated functions over the whole core (`m.pol` is the
/// policy's own state), so a policy drives the shared structures — RUU,
/// functional units, front end — exactly as a pipeline stage would.
pub trait Redundancy: Sized {
    /// What a finished run returns.
    type Output;
    /// What a failed run returns.
    type Error: From<SimError>;

    /// RUU entries each fetched instruction occupies. Dispatch and
    /// commit move `width / COPIES` instructions per cycle; copy `k` of
    /// fetched instruction `s` is RUU entry `s * COPIES + k`. The last
    /// copy is the primary: it carries the branch prediction, resolves
    /// control flow, and is traced as the P stream; earlier copies are
    /// traced as the R stream.
    const COPIES: usize = 1;

    /// Commits at most one instruction, retiring it through
    /// [`Core::retire`]. Returns whether commit may go on this cycle.
    fn commit_one<O: Observer>(m: &mut Core<'_, Self>, obs: &mut O) -> bool;

    /// An unrecoverable fault raised by the last commit stage.
    fn fatal(&self) -> Option<Self::Error> {
        None
    }

    /// Runs between commit and primary-stream writeback.
    fn pre_writeback<O: Observer>(_m: &mut Core<'_, Self>, _obs: &mut O) {}

    /// Runs after primary-stream writeback: redundant completions.
    fn r_writeback<O: Observer>(_m: &mut Core<'_, Self>, _obs: &mut O) {}

    /// The issue stage. By default the primary stream alone, under the
    /// full machine width.
    fn issue<O: Observer>(m: &mut Core<'_, Self>, obs: &mut O) {
        let mut budget = m.cfg.width;
        m.issue_primary(&mut budget, obs);
    }

    /// Called for each RUU entry the primary issue stage issues.
    fn issued(&mut self, _seq: Seq) {}

    /// The earliest cycle at which the policy can act by itself, for
    /// the event-driven idle skip: the current cycle (or earlier) pins
    /// the clock, `None` adds no wake source. By default the RUU head
    /// can commit as soon as it has completed.
    fn wake(m: &mut Core<'_, Self>) -> Option<u64> {
        m.ruu.head().is_some_and(|e| e.completed).then_some(m.cycle)
    }

    /// Applies the per-cycle bookkeeping of `skipped` idle cycles the
    /// clock jumped over in bulk.
    fn skipped(_m: &mut Core<'_, Self>, _skipped: u64) {}

    /// Whether the policy's own structures hold no work.
    fn drained(&self) -> bool {
        true
    }

    /// The most instructions the policy holds after they leave the RUU
    /// and before they retire: its share of the front end's lookahead
    /// ([`PipelineConfig::fetch_lookahead`]).
    fn held(&self) -> usize {
        0
    }

    /// Adds the policy's counters and occupancies to a cycle snapshot.
    fn observe(&self, _state: &mut CycleState) {}

    /// Builds the run's result from the finalised core.
    fn finish(m: Core<'_, Self>, stop: SimStop) -> Self::Output;
}

/// The timing core: SimpleScalar `sim-outorder` re-imagined in Rust,
/// with a [`Redundancy`] policy `R` layered on. Fields are public so
/// policies can drive the shared structures.
///
/// A core whose policy is `Clone` is itself `Clone`: a copy taken
/// between two [`Core::step`]s continues exactly as the original would,
/// which is what [`Core::run_forked`] builds on.
#[derive(Clone)]
pub struct Core<'c, R> {
    /// Machine configuration.
    pub cfg: &'c PipelineConfig,
    /// Current cycle.
    pub cycle: u64,
    /// The front end.
    pub fetch: FetchUnit,
    /// Fetched instructions awaiting dispatch.
    pub fetchq: VecDeque<Fetched>,
    /// The instruction window.
    pub ruu: Ruu,
    /// The load/store queue.
    pub lsq: Lsq,
    /// The functional units.
    pub fu: FuPool,
    /// Caches and TLBs.
    pub hierarchy: MemHierarchy,
    /// Shared timing statistics.
    pub stats: PipelineStats,
    /// Values printed by committed instructions.
    pub output: Vec<i64>,
    /// Exit code of the committed `halt`.
    pub exit_code: Option<u64>,
    /// Cycle of the most recent commit (deadlock detection).
    pub last_commit_cycle: u64,
    /// The redundancy policy's state.
    pub pol: R,
    /// Reused buffers for the per-cycle writeback/issue work lists, so
    /// the steady-state loop never allocates.
    scratch_done: Vec<Seq>,
    scratch_ready: Vec<Seq>,
}

impl<'c, R: Redundancy> Core<'c, R> {
    /// Builds the machine over `emulator`, importing `warm` state if
    /// given. `policy` receives the sequence number of the first
    /// instruction the run will fetch.
    pub fn new(
        cfg: &'c PipelineConfig,
        emulator: Emulator,
        warm: Option<&WarmState>,
        policy: impl FnOnce(Seq) -> R,
    ) -> Self {
        let mut fetch = FetchUnit::new(emulator, cfg.predictor.clone());
        let mut hierarchy = MemHierarchy::new(cfg.hierarchy.clone());
        if let Some(w) = warm {
            fetch.import_branch_state(&w.branch);
            hierarchy.import_state(&w.hierarchy);
        }
        Core {
            cfg,
            cycle: 0,
            pol: policy(fetch.next_seq()),
            fetch,
            fetchq: VecDeque::with_capacity(cfg.fetch_queue_size),
            ruu: Ruu::with_scheduler(cfg.ruu_size, cfg.scheduler),
            lsq: Lsq::new(cfg.lsq_size),
            fu: FuPool::new(cfg.fu),
            hierarchy,
            stats: PipelineStats::default(),
            output: Vec::new(),
            exit_code: None,
            last_commit_cycle: 0,
            scratch_done: Vec::new(),
            scratch_ready: Vec::new(),
        }
    }

    /// Simulates until `halt`, `max_instructions` commits, the cycle
    /// cap, or an error. `obs` sees every stage event and per-cycle
    /// state; observers are passive, so results are identical with any
    /// observer.
    ///
    /// # Errors
    ///
    /// [`SimError::Emulation`] if the program misbehaves,
    /// [`SimError::Deadlock`] on an internal invariant violation, or the
    /// policy's [`Redundancy::fatal`] error.
    pub fn run<O: Observer>(
        mut self,
        max_instructions: u64,
        obs: &mut O,
    ) -> Result<R::Output, R::Error> {
        loop {
            if let Some(stop) = self.step(max_instructions, obs)? {
                return Ok(self.end(stop, obs));
            }
        }
    }

    /// Simulates one cycle: commit, writeback, issue, dispatch, fetch,
    /// then the stop checks. Returns why the run stopped, or `None` if
    /// it goes on; a stopped core is finished with [`Core::end`]. Between
    /// two steps the machine is at a cycle boundary, where a caller may
    /// pause, inspect, or clone it.
    ///
    /// # Errors
    ///
    /// As [`Core::run`].
    #[inline]
    pub fn step<O: Observer>(
        &mut self,
        max_instructions: u64,
        obs: &mut O,
    ) -> Result<Option<SimStop>, R::Error> {
        // The cycle hook fires for the *previous* cycle once all its
        // stages have run, so the state it sees is complete; the final
        // cycle's hook fires in `end`.
        if O::ENABLED && self.cycle > 0 {
            obs.cycle(self.cycle, &self.cycle_state());
        }
        self.cycle += 1;
        if self.cfg.scheduler == SchedulerMode::EventDriven {
            self.skip_idle_cycles(obs);
        }

        for _ in 0..self.cfg.width / R::COPIES {
            if self.stats.committed >= max_instructions || !R::commit_one(self, obs) {
                break;
            }
        }
        if let Some(e) = self.pol.fatal() {
            return Err(e);
        }
        if self.exit_code.is_some() {
            return Ok(Some(SimStop::Halted));
        }
        if self.stats.committed >= max_instructions {
            return Ok(Some(SimStop::InstructionLimit));
        }
        R::pre_writeback(self, obs);
        self.writeback(obs);
        R::r_writeback(self, obs);
        R::issue(self, obs);
        self.dispatch(obs);
        self.do_fetch(obs);

        if self.cfg.max_cycles > 0 && self.cycle >= self.cfg.max_cycles {
            return Ok(Some(SimStop::CycleLimit));
        }
        if self.fetch.exhausted()
            && self.fetchq.is_empty()
            && self.ruu.is_empty()
            && self.pol.drained()
        {
            // No more instructions will ever arrive: surface the
            // emulator error that cut the program short.
            if let Some(e) = self.fetch.error() {
                return Err(SimError::Emulation(e.clone()).into());
            }
            // A program without halt that ran dry (cannot happen for
            // halting programs) — treat as an instruction limit.
            return Ok(Some(SimStop::InstructionLimit));
        }
        if self.cycle - self.last_commit_cycle > DEADLOCK_HORIZON {
            return Err(SimError::Deadlock { cycle: self.cycle }.into());
        }
        Ok(None)
    }

    /// Ends a run that [`Core::step`] stopped with `stop`: the final
    /// cycle hook, the closing statistics, and the policy's result.
    pub fn end<O: Observer>(mut self, stop: SimStop, obs: &mut O) -> R::Output {
        if O::ENABLED {
            obs.cycle(self.cycle, &self.cycle_state());
        }
        self.finalise();
        R::finish(self, stop)
    }

    /// One detailed pass that also scores faults: runs this machine as
    /// the clean run and, for each `targets[i]`, a clone forked at the
    /// last cycle boundary before the front end's emulator could execute
    /// that dynamic instruction. `arm(i, clone, clone_obs)` installs fork
    /// `i`'s fault; the clone then runs to the same stop conditions with
    /// its own copy of the observer, and `each(i, result, clone_obs)`
    /// receives it before the clean run goes on, so at most one clone is
    /// alive at a time. Targets may come in any order; forks run in
    /// target order. Returns the clean run's result.
    ///
    /// A fork equals a run from the same start with the fault armed from
    /// the beginning, provided the fault stays dormant until its target
    /// executes. Fetch steps the emulator at most `width` times per
    /// cycle, so a machine with `emulated() + width <= target` cannot
    /// have touched the target yet: the clean run advances while that
    /// holds. Observers are passive, so the cloned observer holds exactly
    /// the prefix a from-scratch run would have recorded. Several targets
    /// on one instruction fork again from the same paused state; a
    /// target the clean run never reaches (it halts or hits a limit
    /// first) forks from the final state and ends with the same stop.
    ///
    /// The front end never runs more than
    /// [`PipelineConfig::fetch_lookahead`] instructions (plus the
    /// policy's [`Redundancy::held`]) past the last commit, which a
    /// debug build checks on the clean pass. So a fork whose emulator
    /// yields records [`same_timing`] with the clean run's up to that
    /// frontier ends as the clean run does, but for the state digest.
    ///
    /// # Errors
    ///
    /// An error on the clean run ends the pass (as [`Core::run`]); a
    /// fork's own error goes to `each`.
    pub fn run_forked<O: Observer + Clone>(
        mut self,
        targets: &[Seq],
        max_instructions: u64,
        obs: &mut O,
        mut arm: impl FnMut(usize, &mut Self, &mut O),
        mut each: impl FnMut(usize, Result<R::Output, R::Error>, O),
    ) -> Result<R::Output, R::Error>
    where
        R: Clone,
    {
        let mut order: Vec<usize> = (0..targets.len()).collect();
        order.sort_by_key(|&i| targets[i]);
        let mut pending = order.into_iter().peekable();
        let width = self.cfg.width as Seq;
        let start = self.fetch.emulated() - self.stats.committed;
        let lookahead = self.cfg.fetch_lookahead() + self.pol.held() as Seq;
        let stop = loop {
            while let Some(i) = pending.next_if(|&i| self.fetch.emulated() + width > targets[i]) {
                let (mut fork, mut fork_obs) = (self.clone(), obs.clone());
                arm(i, &mut fork, &mut fork_obs);
                let r = fork.run(max_instructions, &mut fork_obs);
                each(i, r, fork_obs);
            }
            if let Some(stop) = self.step(max_instructions, obs)? {
                break stop;
            }
            debug_assert!(
                self.fetch.emulated() <= start + self.stats.committed + lookahead,
                "the front end ran past its lookahead"
            );
        };
        for i in pending {
            let (mut fork, mut fork_obs) = (self.clone(), obs.clone());
            arm(i, &mut fork, &mut fork_obs);
            each(i, Ok(fork.end(stop, &mut fork_obs)), fork_obs);
        }
        Ok(self.end(stop, obs))
    }

    /// Whether RUU entry `seq` is its instruction's primary copy.
    fn is_primary(seq: Seq) -> bool {
        seq % R::COPIES as Seq == R::COPIES as Seq - 1
    }

    /// Trace stream of RUU entry `seq`.
    fn stream_of(seq: Seq) -> Stream {
        if Self::is_primary(seq) {
            Stream::Primary
        } else {
            Stream::Redundant
        }
    }

    /// Retires one instruction architecturally: frees its replay slot,
    /// counts it, and collects its output or exit code. Returns `false`
    /// once the program's `halt` retires.
    pub fn retire(&mut self, info: &StepInfo) -> bool {
        self.fetch.on_commit(1);
        self.stats.committed += 1;
        self.last_commit_cycle = self.cycle;
        if let Some(v) = info.printed {
            self.output.push(v);
        }
        if info.halted {
            self.exit_code = Some(info.result);
        }
        !info.halted
    }

    /// A detection flush: squashes every in-flight instruction and
    /// rewinds fetch to `seq`, resuming after `penalty` extra cycles.
    pub fn flush_to(&mut self, seq: Seq, penalty: u32) {
        self.ruu.flush_all();
        self.lsq.flush_all();
        self.fetchq.clear();
        self.fu.flush();
        self.fetch
            .flush_to(seq, self.cycle + 1 + u64::from(penalty));
    }

    /// Splits a finished core into its baseline result and the policy.
    pub fn into_parts(self, stop: SimStop) -> (SimResult, R) {
        let state_digest = self.fetch.state_digest();
        let result = SimResult {
            stop,
            stats: self.stats,
            output: self.output,
            exit_code: self.exit_code,
            state_digest,
        };
        (result, self.pol)
    }

    /// The cumulative-counter snapshot handed to [`Observer::cycle`].
    /// Only built when an observer is enabled.
    fn cycle_state(&self) -> CycleState {
        let mut state = CycleState {
            committed: self.stats.committed,
            issued: self.stats.issued,
            r_issued: 0,
            r_missed: 0,
            dispatch_stall_ruu: self.stats.dispatch_stall_ruu_full,
            dispatch_stall_lsq: self.stats.dispatch_stall_lsq_full,
            fetch_empty: self.stats.fetch_queue_empty_cycles,
            fu_busy: self.fu.busy_by_class(),
            sched_ops: self.ruu.sched_ops(),
            ruu_occ: self.ruu.len(),
            lsq_occ: self.lsq.len(),
            rqueue_occ: 0,
            fetchq_occ: self.fetchq.len(),
        };
        self.pol.observe(&mut state);
        state
    }

    /// When this cycle provably does nothing — nothing ready to issue,
    /// nothing to dispatch, no completion due, fetch dormant, and the
    /// policy idle — jumps the clock to the next cycle on which any unit
    /// can make progress, bulk-accounting the skipped idle cycles. The
    /// landing cycle then runs through the normal loop body, so the
    /// cycle-limit and deadlock checks fire exactly as in `Scan` mode.
    fn skip_idle_cycles<O: Observer>(&mut self, obs: &mut O) {
        if self.ruu.has_ready() || !self.fetchq.is_empty() {
            return;
        }
        let p_wake = self.ruu.next_completion_cycle();
        let fetch_at = self.fetch.next_fetch_cycle(self.cycle);
        if p_wake.is_some_and(|t| t <= self.cycle) || fetch_at == Some(self.cycle) {
            return;
        }
        let r_wake = R::wake(self);
        if r_wake.is_some_and(|t| t <= self.cycle) {
            return;
        }
        let Some(target) = [p_wake, fetch_at, r_wake].into_iter().flatten().min() else {
            // Nothing will ever wake: let the drain/deadlock path run.
            return;
        };
        let mut target = target.min(self.last_commit_cycle + DEADLOCK_HORIZON + 1);
        if self.cfg.max_cycles > 0 {
            target = target.min(self.cfg.max_cycles);
        }
        if target <= self.cycle {
            return;
        }
        // Cycles `self.cycle..target` are no-ops; the per-cycle
        // bookkeeping they would have done is the empty-queue counter
        // plus whatever the policy counts.
        let skipped = target - self.cycle;
        self.stats.fetch_queue_empty_cycles += skipped;
        R::skipped(self, skipped);
        if O::ENABLED {
            obs.idle_skip(self.cycle, target, &self.cycle_state());
        }
        self.cycle = target;
    }

    /// Completes instructions whose execution finishes this cycle,
    /// waking dependants and resolving control flow.
    fn writeback<O: Observer>(&mut self, obs: &mut O) {
        let mut done = std::mem::take(&mut self.scratch_done);
        match self.cfg.scheduler {
            SchedulerMode::Scan => {
                done.clear();
                done.extend(
                    self.ruu
                        .iter()
                        .filter(|e| e.issued && !e.completed && e.complete_cycle <= self.cycle)
                        .map(|e| e.seq),
                );
            }
            SchedulerMode::EventDriven => self.ruu.take_completions_into(self.cycle, &mut done),
        }
        for seq in done.drain(..) {
            self.ruu.complete(seq);
            // Copy out the Copy fields needed below rather than cloning
            // the whole entry per completion.
            let e = self.ruu.get(seq).expect("just completed");
            let is_mem = e.is_mem();
            let fetched = (e.is_control() && Self::is_primary(seq)).then(|| Fetched {
                seq: seq / R::COPIES as Seq,
                info: *e.info,
                pred: e.pred,
            });
            emit(
                obs,
                self.cycle,
                seq,
                e.info.pc,
                Stage::Writeback,
                Self::stream_of(seq),
            );
            if is_mem {
                self.lsq.mark_executed(seq);
            }
            if let Some(fetched) = fetched {
                self.fetch
                    .resolve_control(&fetched, self.cycle, self.cfg.mispredict_penalty);
            }
        }
        self.scratch_done = done;
    }

    /// Out-of-order primary issue: oldest ready instructions first,
    /// bounded by `budget` and functional-unit availability.
    pub fn issue_primary<O: Observer>(&mut self, budget: &mut usize, obs: &mut O) {
        let mut ready = std::mem::take(&mut self.scratch_ready);
        match self.cfg.scheduler {
            SchedulerMode::Scan => {
                ready.clear();
                ready.extend(self.ruu.ready_seqs());
            }
            SchedulerMode::EventDriven => self.ruu.ready_into(&mut ready),
        }
        let event_driven = self.cfg.scheduler == SchedulerMode::EventDriven;
        for seq in ready.drain(..) {
            if *budget == 0 {
                break;
            }
            let e = self.ruu.get(seq).expect("ready seq in window");
            let op = e.info.instr.op;
            // O(1) per-class gate (event mode): `class_free` is exactly
            // `try_issue`'s success condition, so a blocked entry skips
            // on one compare instead of a per-unit probe. Stores need an
            // agen ALU and a port together; loads are never gated — a
            // forwarded load issues without any functional unit.
            if event_driven {
                let blocked = match e.info.mem {
                    None => !self.fu.class_free(op.fu_class(), self.cycle),
                    Some(mem) if mem.is_store => {
                        !(self.fu.class_free(FuClass::IntAlu, self.cycle)
                            && self.fu.class_free(FuClass::MemPort, self.cycle))
                    }
                    Some(_) => false,
                };
                if blocked {
                    continue;
                }
            }
            let latency: u64 = if let Some(mem) = e.info.mem {
                if mem.is_store {
                    if !self.fu.try_issue_mem(op, self.cycle) {
                        continue; // no agen ALU + memory port this cycle
                    }
                    1 + u64::from(self.hierarchy.access_data(mem.addr, true))
                } else {
                    match self.lsq.plan_load(seq, mem.addr, mem.width.bytes()) {
                        LoadPlan::Wait { .. } => continue,
                        LoadPlan::Forward { .. } => {
                            // Store-to-load forwarding: address generation
                            // plus the bypass, no cache port needed.
                            self.stats.loads_forwarded += 1;
                            2
                        }
                        LoadPlan::CacheAccess => {
                            if !self.fu.try_issue_mem(op, self.cycle) {
                                continue;
                            }
                            1 + u64::from(self.hierarchy.access_data(mem.addr, false))
                        }
                    }
                }
            } else {
                if !self.fu.try_issue(op, self.cycle) {
                    continue;
                }
                u64::from(op.latency())
            };
            emit(
                obs,
                self.cycle,
                seq,
                e.info.pc,
                Stage::Issue,
                Self::stream_of(seq),
            );
            self.ruu.mark_issued(seq, self.cycle, self.cycle + latency);
            *budget -= 1;
            self.stats.issued += 1;
            self.pol.issued(seq);
        }
        self.scratch_ready = ready;
    }

    /// In-order dispatch from the fetch queue into the RUU/LSQ, each
    /// instruction as [`Redundancy::COPIES`] entries.
    fn dispatch<O: Observer>(&mut self, obs: &mut O) {
        if self.fetchq.is_empty() {
            self.stats.fetch_queue_empty_cycles += 1;
            return;
        }
        let copies = R::COPIES;
        for _ in 0..self.cfg.width / copies {
            let Some(front) = self.fetchq.front() else {
                break;
            };
            if self.ruu.len() + copies > self.ruu.capacity() {
                self.stats.dispatch_stall_ruu_full += 1;
                break;
            }
            if front.info.mem.is_some() && self.lsq.len() + copies > self.lsq.capacity() {
                self.stats.dispatch_stall_lsq_full += 1;
                break;
            }
            let f = self.fetchq.pop_front().expect("checked front");
            for k in 0..copies as Seq {
                let seq = f.seq * copies as Seq + k;
                let pred = if Self::is_primary(seq) {
                    f.pred
                } else {
                    PredictionInfo::default()
                };
                emit(
                    obs,
                    self.cycle,
                    seq,
                    f.info.pc,
                    Stage::Dispatch,
                    Self::stream_of(seq),
                );
                self.ruu.dispatch(seq, f.info, pred, self.cycle);
                if let Some(mem) = f.info.mem {
                    self.lsq
                        .insert(seq, mem.addr, mem.width.bytes(), mem.is_store);
                }
            }
        }
    }

    /// Fetches new instructions into the fetch queue.
    fn do_fetch<O: Observer>(&mut self, obs: &mut O) {
        let space = self.cfg.fetch_queue_size - self.fetchq.len();
        if space == 0 {
            return;
        }
        let batch = self
            .fetch
            .fetch_cycle(self.cycle, self.cfg.width, space, &mut self.hierarchy);
        if O::ENABLED {
            for f in &batch {
                emit(
                    obs,
                    self.cycle,
                    f.seq,
                    f.info.pc,
                    Stage::Fetch,
                    Stream::Primary,
                );
            }
        }
        self.fetchq.extend(batch);
    }

    /// Final bookkeeping into the stats structure.
    fn finalise(&mut self) {
        self.stats.cycles = self.cycle;
        self.stats.fetched = self.fetch.total_fetched();
        self.stats.branch = self.fetch.branch_stats();
        self.stats.hierarchy = Some(self.hierarchy.stats());
        self.stats.fu_utilisation = FuClass::ALL
            .iter()
            .map(|&c| (c, self.fu.utilisation(c, self.cycle)))
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PipelineSim, RunSpec};
    use reese_isa::assemble;

    /// Records every hook in order, so a fork's observer copy can be
    /// compared with a from-scratch run's.
    #[derive(Debug, Clone, Default, PartialEq)]
    struct Log(Vec<(u64, u64, u64)>);

    impl Observer for Log {
        const ENABLED: bool = true;

        fn event(&mut self, ev: TraceEvent) {
            self.0.push((ev.cycle, ev.seq, ev.stage as u64));
        }

        fn cycle(&mut self, cycle: u64, state: &CycleState) {
            self.0.push((cycle, state.committed, u64::MAX));
        }

        fn idle_skip(&mut self, from: u64, to: u64, _state: &CycleState) {
            self.0.push((from, to, u64::MAX - 1));
        }
    }

    /// 164 dynamic instructions; the printed value depends on every
    /// loop iteration, so most result flips change the output.
    const LOOP: &str = "  li t0, 40\n  li t1, 0\n\
        loop: addi t1, t1, 3\n  mul t2, t1, t0\n  addi t0, t0, -1\n  bnez t0, loop\n\
        \n  print t2\n  halt\n";

    #[test]
    fn every_fork_equals_a_run_with_the_fault_armed_from_the_start() {
        let prog = assemble(LOOP).unwrap();
        // Seq 0 forks before the first cycle; two keys share seq 6 and
        // fork from one paused state; seq 120 flips a high bit of the
        // loop counter, so its fork runs away into the cycle cap; seq
        // 163 is the halt; seq 400 is never reached, so its fork ends
        // with the clean run's stop.
        let faults: [(Seq, u8); 8] = [
            (36, 1),
            (6, 0),
            (0, 3),
            (6, 9),
            (120, 62),
            (159, 40),
            (163, 2),
            (400, 4),
        ];
        for mode in [SchedulerMode::Scan, SchedulerMode::EventDriven] {
            let mut cfg = PipelineConfig::starting().with_scheduler(mode);
            cfg.max_cycles = 3_000;
            let sim = PipelineSim::new(cfg.clone());
            let scratch = |fault: Option<(Seq, u8)>| {
                let mut emu = Emulator::new(&prog);
                if let Some((seq, bit)) = fault {
                    emu.inject_result_fault(seq, bit);
                }
                let mut log = Log::default();
                let r = sim
                    .simulate(RunSpec::restored(emu, None), &mut log)
                    .unwrap();
                (r, log)
            };
            let mut forks = vec![None; faults.len()];
            let mut log = Log::default();
            let targets: Vec<Seq> = faults.iter().map(|f| f.0).collect();
            let clean = Core::new(&cfg, Emulator::new(&prog), None, |_| ())
                .run_forked(
                    &targets,
                    u64::MAX,
                    &mut log,
                    |i, fork, _| fork.fetch.inject_result_fault(faults[i].0, faults[i].1),
                    |i, r, fork_log| forks[i] = Some((r.unwrap(), fork_log)),
                )
                .unwrap();
            assert_eq!((clean, log), scratch(None), "{mode:?}: clean pass");
            for (i, &fault) in faults.iter().enumerate() {
                let fork = forks[i].take().expect("every target forks once");
                assert_eq!(fork, scratch(Some(fault)), "{mode:?}: fault {fault:?}");
            }
            // The forks really diverge: most change the output, and the
            // runaway stops on the cycle cap.
            let clean = scratch(None).0;
            let changed = faults
                .iter()
                .filter(|&&f| scratch(Some(f)).0.output != clean.output)
                .count();
            assert!(
                changed >= 4,
                "{mode:?}: only {changed} faults changed the output"
            );
            assert_eq!(scratch(Some((120, 62))).0.stop, SimStop::CycleLimit);
        }
    }

    #[test]
    fn forks_stop_at_the_clean_runs_instruction_limit() {
        let prog = assemble(LOOP).unwrap();
        let cfg = PipelineConfig::starting();
        let sim = PipelineSim::new(cfg.clone());
        let faults = [(30, 7), (90, 2), (150, 5)];
        let mut forks = Vec::new();
        sim.simulate_forked(
            RunSpec::new(&prog).limit(100),
            &faults,
            &mut reese_trace::NoopObserver,
            |_, _| {},
            |i, r, _| forks.push((i, r.unwrap())),
        )
        .unwrap();
        assert_eq!(forks.len(), 3);
        for (i, r) in forks {
            let mut emu = Emulator::new(&prog);
            emu.inject_result_fault(faults[i].0, faults[i].1);
            let want = sim
                .simulate(
                    RunSpec::restored(emu, None).limit(100),
                    &mut reese_trace::NoopObserver,
                )
                .unwrap();
            assert_eq!(r, want, "fault {:?}", faults[i]);
            assert_eq!(r.stop, SimStop::InstructionLimit);
        }
    }
    #[test]
    fn a_fork_the_core_cannot_tell_apart_ends_as_the_clean_run() {
        // The loop of `LOOP`, then `li a0, 9` for the halt's exit value:
        // 165 dynamic instructions. Seq 159 is the last `mul`, whose
        // flip changes only the printed value; seq 162 changes only the
        // exit value; bit 40 of the loop counter runs away into the
        // cycle cap.
        let prog = assemble(
            "  li t0, 40\n  li t1, 0\n\
             loop: addi t1, t1, 3\n  mul t2, t1, t0\n  addi t0, t0, -1\n  bnez t0, loop\n\
             \n  li a0, 9\n  print t2\n  halt\n",
        )
        .unwrap();
        let mut cfg = PipelineConfig::starting();
        cfg.max_cycles = 3_000;
        let sim = PipelineSim::new(cfg.clone());
        let faults: Vec<(Seq, u8)> = (0..165).flat_map(|s| [(s, 0), (s, 5), (s, 40)]).collect();
        for limit in [100, u64::MAX] {
            // Whether the fault's stream stays `same_timing` with the
            // clean one up to the frontier a run to `limit` can reach.
            let frontier = limit.saturating_add(cfg.fetch_lookahead());
            let unseen = |&(seq, bit): &(Seq, u8)| {
                let (mut clean, mut faulted) = (Emulator::new(&prog), Emulator::new(&prog));
                faulted.inject_result_fault(seq, bit);
                while clean.instructions() < frontier && clean.exit_code().is_none() {
                    match (clean.step(), faulted.step()) {
                        (Ok(c), Ok(f)) if same_timing(&c, &f) => {}
                        _ => return false,
                    }
                }
                true
            };
            let mut forks = vec![None; faults.len()];
            let clean = sim
                .simulate_forked(
                    RunSpec::new(&prog).limit(limit),
                    &faults,
                    &mut reese_trace::NoopObserver,
                    |_, _| {},
                    |i, r, _| forks[i] = Some(r.unwrap()),
                )
                .unwrap();
            let mut seen = 0;
            for (fault, fork) in faults.iter().zip(forks) {
                let fork = fork.expect("every fault forks once");
                if unseen(fault) {
                    let digest = clean.state_digest;
                    let fork = SimResult {
                        state_digest: digest,
                        ..fork
                    };
                    assert_eq!(fork, clean, "limit {limit}: fault {fault:?}");
                } else {
                    seen += 1;
                }
            }
            assert!(
                seen > 0 && seen < faults.len(),
                "limit {limit}: {seen} seen"
            );
        }
        // Printed and exit values are part of what the core reads.
        let full = |fault: (Seq, u8)| {
            let mut emu = Emulator::new(&prog);
            emu.inject_result_fault(fault.0, fault.1);
            sim.simulate(RunSpec::restored(emu, None), &mut reese_trace::NoopObserver)
                .unwrap()
        };
        let clean = sim.run(&prog).unwrap();
        assert_ne!(full((159, 5)).output, clean.output);
        assert_ne!(full((162, 0)).exit_code, clean.exit_code);
    }
}
