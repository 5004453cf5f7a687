//! The REESE time-redundant simulator: the timing core with the
//! R-stream Queue policy.

use crate::seqmap::{SeqSet, SeqTable};
use crate::{
    DetectionEvent, DurationFault, DurationReport, Faults, InjectedFault, RQueue, RQueueEntry,
    ReeseConfig, ReeseError, ReeseResult, ReeseStats, Stream,
};
use reese_isa::{FuClass, Program};
use reese_pipeline::{emit, Core, Redundancy, RunSpec, SchedulerMode, Seq, SimStop};
use reese_trace::{CycleState, NoopObserver, Observer, Stage, Stream as TStream};

/// The REESE machine: the baseline pipeline plus the R-stream Queue.
///
/// Every instruction executes twice. The primary (P) execution flows
/// through the normal out-of-order pipeline; on completing at the RUU
/// head it migrates — with its operands and result — into the R-stream
/// Queue instead of committing. The redundant (R) execution is issued
/// from the queue into whatever functional units the primary stream
/// leaves idle (or that the configured *spare* units provide), and the
/// two results are compared before the instruction finally commits.
/// A mismatch flushes the pipeline and the queue and re-executes from
/// the faulting instruction; a second consecutive mismatch is reported
/// as a permanent fault.
///
/// # Example
///
/// ```
/// use reese_core::{ReeseConfig, ReeseSim};
///
/// let prog = reese_isa::assemble(
///     "  li t0, 100\nloop: addi t0, t0, -1\n  bnez t0, loop\n  halt\n",
/// )?;
/// let r = ReeseSim::new(ReeseConfig::starting()).run(&prog)?;
/// assert_eq!(r.committed_instructions(), 202);
/// assert_eq!(r.stats.comparisons, 202); // every instruction re-executed
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ReeseSim {
    config: ReeseConfig,
}

impl ReeseSim {
    /// Creates a simulator.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`ReeseConfig::validate`]).
    pub fn new(config: ReeseConfig) -> ReeseSim {
        config.validate();
        ReeseSim { config }
    }

    /// The configuration.
    pub fn config(&self) -> &ReeseConfig {
        &self.config
    }

    /// Runs a program to its `halt` with no injected faults.
    ///
    /// # Errors
    ///
    /// Returns [`ReeseError::Sim`] for program or simulator failures.
    pub fn run(&self, program: &Program) -> Result<ReeseResult, ReeseError> {
        self.simulate(RunSpec::new(program), &mut NoopObserver)
    }

    /// Simulates `spec` — from program start or from a warm checkpoint
    /// — injecting its [`Faults`]. `obs` receives per-instruction
    /// lifecycle events (P and R streams tagged separately) and
    /// per-cycle machine state. Observers are passive: results are
    /// bit-identical with any observer, and with [`NoopObserver`] the
    /// hooks compile away.
    ///
    /// Under a [`Faults::Duration`] disturbance (§2 of the paper) every
    /// instruction of the matching functional-unit class that completes
    /// — in either stream — while the fault is active has one result bit
    /// flipped. If both executions fall inside the window, the identical
    /// corruption passes the comparison silently;
    /// [`ReeseResult::duration`] counts those escapes.
    ///
    /// # Errors
    ///
    /// Returns [`ReeseError::PermanentFault`] if a sticky fault (or a
    /// disturbance outlasting the retry) makes the same instruction fail
    /// comparison twice, or [`ReeseError::Sim`] for underlying failures.
    pub fn simulate<O: Observer>(
        &self,
        spec: RunSpec<'_, Faults<'_>>,
        obs: &mut O,
    ) -> Result<ReeseResult, ReeseError> {
        let cfg = &self.config;
        Core::new(&cfg.pipeline, spec.emulator, spec.warm, |first| {
            RStream::new(cfg, spec.faults, first)
        })
        .run(spec.max_instructions, obs)
    }

    /// Simulates the fault-free `spec` once and, in the same pass, one
    /// faulted run per latch fault in `faults`: each forks from the clean
    /// machine just before its target can execute (see
    /// [`Core::run_forked`]) with that one fault installed, exactly as
    /// [`ReeseSim::simulate`] with [`Faults::Latch`] of that fault would
    /// run it. `each(i, result, obs)` receives fork `i` with its copy of
    /// the observer. Returns the clean result.
    ///
    /// # Errors
    ///
    /// See [`ReeseSim::run`]; a fork's own error goes to `each`.
    pub fn simulate_forked<O: Observer + Clone>(
        &self,
        spec: RunSpec<'_>,
        faults: &[InjectedFault],
        obs: &mut O,
        each: impl FnMut(usize, Result<ReeseResult, ReeseError>, O),
    ) -> Result<ReeseResult, ReeseError> {
        let cfg = &self.config;
        let targets: Vec<Seq> = faults.iter().map(|f| f.seq).collect();
        Core::new(&cfg.pipeline, spec.emulator, spec.warm, |first| {
            RStream::new(cfg, Faults::None, first)
        })
        .run_forked(
            &targets,
            spec.max_instructions,
            obs,
            |i, fork, _| fork.pol.latches.faults = fault_table(&faults[i..=i]),
            each,
        )
    }
}

/// Pending latch faults keyed by target seq; seq-sorted so any walk over
/// the bookkeeping is process-independent (std-hash iteration order is
/// seeded per process — a latent determinism bug for campaign
/// byte-identity).
pub(crate) fn fault_table(faults: &[InjectedFault]) -> SeqTable<Vec<InjectedFault>> {
    let mut table = SeqTable::new();
    for f in faults {
        table.get_or_insert_with(f.seq, Vec::new).push(*f);
    }
    table
}

/// Comparison outcomes shared by the redundant policies: detections,
/// and the retry that tells a transient fault from a permanent one.
#[derive(Clone, Default)]
pub(crate) struct Checker {
    pub detections: Vec<DetectionEvent>,
    /// Instruction re-executing after a detection flush; a second
    /// consecutive mismatch there is a permanent fault.
    retry_seq: Option<Seq>,
    permanent: Option<(Seq, u64)>,
}

impl Checker {
    /// Records a failed comparison of `seq`. Returns whether the machine
    /// should flush and retry; `false` means the same instruction failed
    /// twice in a row, and the paper stops the pipeline and notifies the
    /// user.
    pub fn mismatch(
        &mut self,
        stats: &mut ReeseStats,
        seq: Seq,
        pc: u64,
        detect_cycle: u64,
        inject_cycle: u64,
    ) -> bool {
        stats.detections += 1;
        stats.flushes += 1;
        self.detections.push(DetectionEvent {
            seq,
            pc,
            detect_cycle,
            inject_cycle,
        });
        if self.retry_seq == Some(seq) {
            self.permanent = Some((seq, pc));
            return false;
        }
        self.retry_seq = Some(seq);
        true
    }

    /// Records a passed comparison of `seq`.
    pub fn matched(&mut self, seq: Seq) {
        if self.retry_seq == Some(seq) {
            self.retry_seq = None;
        }
    }

    /// The permanent-fault error, once one has been raised.
    pub fn fatal(&self) -> Option<ReeseError> {
        self.permanent
            .map(|(seq, pc)| ReeseError::PermanentFault { seq, pc })
    }
}

/// Corruption of the compare latches: injected latch faults and an
/// optional duration disturbance.
#[derive(Clone)]
struct Latches {
    faults: SeqTable<Vec<InjectedFault>>,
    /// Cycle each target first had a latch corrupted, keyed by seq.
    inject_cycles: SeqTable<u64>,
    duration: Option<DurationFault>,
    report: DurationReport,
    /// Instructions whose primary copy the disturbance hit.
    p_hits: SeqSet,
}

impl Latches {
    /// Corrupts `stream`'s latched result in `entry` with every fault
    /// that targets it: pending latch faults first, then the duration
    /// disturbance if that execution completed inside its window on the
    /// affected functional-unit class.
    fn corrupt(&mut self, cycle: u64, entry: &mut RQueueEntry, stream: Stream) {
        // Outside injection campaigns the table is empty: skip the
        // per-instruction probe entirely.
        if !self.faults.is_empty() {
            if let Some(list) = self.faults.get_mut(entry.seq) {
                let mut fired = false;
                list.retain(|f| {
                    if f.stream != stream {
                        return true;
                    }
                    match stream {
                        Stream::Primary => entry.p_value ^= f.mask(),
                        Stream::Redundant => entry.r_value ^= f.mask(),
                    }
                    fired = true;
                    f.sticky // transient faults are consumed; sticky ones persist
                });
                if fired {
                    self.inject_cycles.insert_if_absent(entry.seq, cycle);
                }
                if list.is_empty() {
                    self.faults.remove(entry.seq);
                }
            }
        }
        let Some(fault) = self.duration else { return };
        if entry.info.instr.op.fu_class() != fault.class {
            return;
        }
        match stream {
            Stream::Primary if fault.active_at(entry.p_complete_cycle) => {
                entry.p_value ^= fault.mask();
                self.report.p_corrupted += 1;
                self.p_hits.insert(entry.seq);
            }
            Stream::Redundant if fault.active_at(entry.r_complete_cycle) => {
                entry.r_value ^= fault.mask();
                self.report.r_corrupted += 1;
                if self.p_hits.contains(entry.seq) {
                    // Both copies hit inside the window: identical flips,
                    // the comparison will pass — a silent escape (§2).
                    self.report.silent_both += 1;
                }
            }
            _ => return,
        }
        self.inject_cycles.insert_if_absent(entry.seq, cycle);
    }
}

/// The R-stream Queue policy: completed instructions migrate from the
/// RUU into the queue, re-execute on idle or spare units, and commit
/// after their P and R results compare equal.
#[derive(Clone)]
struct RStream<'c> {
    cfg: &'c ReeseConfig,
    rqueue: RQueue,
    /// Redundancy statistics; `pipeline` is filled in from the core at
    /// the end of the run.
    stats: ReeseStats,
    latches: Latches,
    check: Checker,
    /// Next sequence number to migrate into the R-stream Queue.
    next_migrate_seq: Seq,
    /// Size of the pending R window seen by the last idle-skip probe.
    window_len: u64,
    /// Reused buffers for the per-cycle R completion and issue lists.
    scratch_rdone: Vec<Seq>,
    scratch_pending: Vec<Seq>,
}

impl<'c> RStream<'c> {
    fn new(cfg: &'c ReeseConfig, faults: Faults<'_>, first_seq: Seq) -> RStream<'c> {
        let (latch, duration) = match faults {
            Faults::None => (&[][..], None),
            Faults::Latch(list) => (list, None),
            Faults::Duration(fault) => (&[][..], Some(fault)),
        };
        RStream {
            cfg,
            rqueue: RQueue::with_scheduler(cfg.rqueue_size, cfg.pipeline.scheduler),
            stats: ReeseStats::new(cfg.rqueue_size),
            latches: Latches {
                faults: fault_table(latch),
                inject_cycles: SeqTable::new(),
                duration,
                report: DurationReport::default(),
                p_hits: SeqSet::new(),
            },
            check: Checker::default(),
            next_migrate_seq: first_seq,
            window_len: 0,
            scratch_rdone: Vec::new(),
            scratch_pending: Vec::new(),
        }
    }

    /// A comparison failed at the queue head: record the detection and
    /// flush the machine back to the faulting instruction.
    fn detect_and_flush<O: Observer>(m: &mut Core<'_, Self>, obs: &mut O) {
        let head = *m.pol.rqueue.head().expect("mismatch needs a head");
        // The mismatching comparison, then the squash it triggers.
        emit(
            obs,
            m.cycle,
            head.seq,
            head.info.pc,
            Stage::Compare,
            TStream::Redundant,
        );
        emit(
            obs,
            m.cycle,
            head.seq,
            head.info.pc,
            Stage::Flush,
            TStream::Primary,
        );
        let pol = &mut m.pol;
        let inject_cycle = pol.latches.inject_cycles.get(head.seq).copied();
        let retry = pol.check.mismatch(
            &mut pol.stats,
            head.seq,
            head.info.pc,
            m.cycle,
            inject_cycle.unwrap_or(m.cycle),
        );
        if retry {
            pol.next_migrate_seq = head.seq;
            pol.rqueue.flush_all();
            let penalty = pol.cfg.flush_penalty;
            m.flush_to(head.seq, penalty);
        }
    }

    /// Migrate completed instructions from the RUU head into the
    /// R-stream Queue ("the R-stream Queue can be allowed to remove
    /// instructions from the pipeline before the instructions are ready
    /// to commit", §4.3).
    ///
    /// With `early_removal` the RUU entry is popped as it migrates,
    /// freeing window space; otherwise the RUU entry is held until the
    /// comparison commits (the conservative implementation), and only a
    /// copy enters the queue.
    fn migrate<O: Observer>(m: &mut Core<'_, Self>, obs: &mut O) {
        // Size the whole batch up front: one contiguous walk over the
        // completed run at the migration point.
        let run = m.ruu.completed_run_len(m.pol.next_migrate_seq, m.cfg.width);
        if run == 0 {
            return;
        }
        let space = m.pol.rqueue.capacity() - m.pol.rqueue.len();
        let take = run.min(space);
        for _ in 0..take {
            let seq = m.pol.next_migrate_seq;
            let (info, p_done) = if m.pol.cfg.early_removal {
                debug_assert_eq!(m.ruu.head().map(|h| h.seq), Some(seq));
                let e = m.ruu.pop_head();
                m.lsq.remove(e.seq);
                (e.info, e.complete_cycle)
            } else {
                let e = m.ruu.get(seq).expect("sized batch is resident");
                (*e.info, e.complete_cycle)
            };
            emit(obs, m.cycle, seq, info.pc, Stage::Migrate, TStream::Primary);
            let pol = &mut m.pol;
            pol.next_migrate_seq = seq + 1;
            let skip_r = !seq.is_multiple_of(pol.cfg.duplication_period) && !info.halted;
            let mut entry = RQueueEntry::new(seq, info, m.cycle, skip_r).with_p_complete(p_done);
            pol.latches.corrupt(m.cycle, &mut entry, Stream::Primary);
            pol.rqueue.push(entry);
        }
        if take < run {
            // The next completed candidate found the queue full: one
            // stall sample per cycle.
            m.pol.stats.rqueue_full_stalls += 1;
        }
    }

    /// Issue redundant executions from the front of the R-stream Queue.
    ///
    /// R instructions carry their operands and results, so they are
    /// always data-ready; the only constraints are functional units and
    /// the FIFO lookahead. R loads are guaranteed L1 hits — the primary
    /// access warmed the cache (§4.4) — so they charge the hit latency
    /// and a memory port but never walk the hierarchy.
    fn issue_redundant<O: Observer>(m: &mut Core<'_, Self>, budget: &mut usize, obs: &mut O) {
        let cycle = m.cycle;
        let l1d_hit = u64::from(m.hierarchy.l1d_hit_latency());
        let lookahead = m.pol.cfg.r_issue_lookahead;
        let (fu, pol) = (&mut m.fu, &mut m.pol);
        let mut issued_now = 0u64;
        let mut tried = 0u64;
        match m.cfg.scheduler {
            SchedulerMode::Scan => {
                let mut considered = 0usize;
                for entry in pol.rqueue.iter_mut() {
                    if *budget == 0 || considered == lookahead {
                        break;
                    }
                    if entry.r_issued || entry.skip_r {
                        continue;
                    }
                    considered += 1;
                    tried += 1;
                    let op = entry.info.instr.op;
                    // R memory verifications recompute the effective
                    // address on an integer ALU and re-access the cache
                    // (a guaranteed L1 hit, §4.4) through a port, just
                    // like the primary access.
                    let is_mem = entry.info.mem.is_some();
                    let issued = if is_mem {
                        fu.try_issue_mem(op, cycle)
                    } else {
                        fu.try_issue(op, cycle)
                    };
                    if !issued {
                        // A blocked entry does not dam the whole queue:
                        // the scheduler may slip past it within the small
                        // lookahead window (limited out-of-order slip,
                        // like a real issue window over the queue's head
                        // entries).
                        continue;
                    }
                    let latency = if is_mem {
                        1 + l1d_hit
                    } else {
                        u64::from(op.latency())
                    };
                    emit(
                        obs,
                        cycle,
                        entry.seq,
                        entry.info.pc,
                        Stage::Issue,
                        TStream::Redundant,
                    );
                    entry.r_issued = true;
                    entry.r_complete_cycle = cycle + latency;
                    *budget -= 1;
                    issued_now += 1;
                }
            }
            SchedulerMode::EventDriven => {
                // `pending_r_front_into` is exactly the set of entries
                // the scan above would have counted as `considered`: the
                // first `lookahead` un-issued, un-skipped entries in
                // queue (= seq) order (served from the incrementally
                // maintained front window, not a per-cycle ring scan).
                let mut pending = std::mem::take(&mut pol.scratch_pending);
                pol.rqueue.pending_r_front_into(lookahead, &mut pending);
                for seq in pending.drain(..) {
                    if *budget == 0 {
                        break;
                    }
                    tried += 1;
                    let entry = pol.rqueue.get(seq).expect("pending seq in queue");
                    let op = entry.info.instr.op;
                    let is_mem = entry.info.mem.is_some();
                    let pc = entry.info.pc;
                    // O(1) per-class gate: `class_free` is exactly the
                    // success condition of `try_issue`, so a busy class
                    // skips the entry without probing per-unit state.
                    let free = if is_mem {
                        fu.class_free(FuClass::IntAlu, cycle)
                            && fu.class_free(FuClass::MemPort, cycle)
                    } else {
                        fu.class_free(op.fu_class(), cycle)
                    };
                    if !free {
                        continue;
                    }
                    let issued = if is_mem {
                        fu.try_issue_mem(op, cycle)
                    } else {
                        fu.try_issue(op, cycle)
                    };
                    debug_assert!(issued, "a free class must accept the issue");
                    let latency = if is_mem {
                        1 + l1d_hit
                    } else {
                        u64::from(op.latency())
                    };
                    emit(obs, cycle, seq, pc, Stage::Issue, TStream::Redundant);
                    pol.rqueue.mark_r_issued(seq, cycle + latency);
                    *budget -= 1;
                    issued_now += 1;
                }
                pol.scratch_pending = pending;
            }
        }
        pol.stats.r_issued += issued_now;
        pol.stats.r_tried += tried;
        pol.stats.r_missed += tried - issued_now;
    }
}

impl Redundancy for RStream<'_> {
    type Output = ReeseResult;
    type Error = ReeseError;

    /// Commit from the R-stream Queue head: compare P and R results,
    /// then retire (paper Figure 1: comparison sits between writeback
    /// and commit).
    fn commit_one<O: Observer>(m: &mut Core<'_, Self>, obs: &mut O) -> bool {
        let Some(head) = m.pol.rqueue.head() else {
            return false;
        };
        if !head.commit_ready() {
            return false;
        }
        if !head.results_match() {
            Self::detect_and_flush(m, obs);
            return false;
        }
        let e = m.pol.rqueue.pop_head().expect("checked head");
        if !m.pol.cfg.early_removal {
            // The RUU entry was held until this comparison: retire it now.
            debug_assert_eq!(m.ruu.head().map(|h| h.seq), Some(e.seq));
            let p = m.ruu.pop_head();
            m.lsq.remove(p.seq);
        }
        let stats = &mut m.pol.stats;
        if e.skip_r {
            stats.r_skipped += 1;
        } else {
            stats.comparisons += 1;
            stats
                .pr_separation
                .record(e.r_complete_cycle.saturating_sub(e.p_complete_cycle));
            emit(
                obs,
                m.cycle,
                e.seq,
                e.info.pc,
                Stage::Compare,
                TStream::Redundant,
            );
        }
        emit(
            obs,
            m.cycle,
            e.seq,
            e.info.pc,
            Stage::Commit,
            TStream::Primary,
        );
        m.pol.check.matched(e.seq);
        m.retire(&e.info)
    }

    fn fatal(&self) -> Option<ReeseError> {
        self.check.fatal()
    }

    /// Migration, then the per-cycle occupancy sample: nothing later in
    /// the cycle changes the queue's length.
    fn pre_writeback<O: Observer>(m: &mut Core<'_, Self>, obs: &mut O) {
        Self::migrate(m, obs);
        let len = m.pol.rqueue.len() as u64;
        m.pol.stats.rqueue_occupancy.record(len);
    }

    /// Redundant-stream completions: one in-place pass over the queue.
    /// Fault application is per-seq and order-independent, so the event
    /// wheel's (cycle, seq) pop order is as good as queue order.
    fn r_writeback<O: Observer>(m: &mut Core<'_, Self>, obs: &mut O) {
        let cycle = m.cycle;
        let event_driven = m.cfg.scheduler == SchedulerMode::EventDriven;
        let RStream {
            rqueue,
            latches,
            scratch_rdone,
            ..
        } = &mut m.pol;
        let mut finish = |entry: &mut RQueueEntry| {
            entry.r_completed = true;
            latches.corrupt(cycle, entry, Stream::Redundant);
            emit(
                obs,
                cycle,
                entry.seq,
                entry.info.pc,
                Stage::Writeback,
                TStream::Redundant,
            );
        };
        if event_driven {
            rqueue.take_r_completions_into(cycle, scratch_rdone);
            for seq in scratch_rdone.drain(..) {
                finish(rqueue.get_mut(seq).expect("completing seq in queue"));
            }
        } else {
            for entry in rqueue.iter_mut() {
                if entry.r_issued && !entry.r_completed && entry.r_complete_cycle <= cycle {
                    finish(entry);
                }
            }
        }
    }

    /// Issue both streams under a shared width budget. Primary
    /// instructions have priority ("we want to always choose the P
    /// stream instruction, whenever possible", §4.3) until the queue
    /// crosses its high-water mark, at which point the redundant stream
    /// goes first to guarantee forward progress.
    fn issue<O: Observer>(m: &mut Core<'_, Self>, obs: &mut O) {
        let mut budget = m.cfg.width;
        if m.pol.rqueue.len() >= m.pol.cfg.high_water {
            m.pol.stats.r_priority_cycles += 1;
            Self::issue_redundant(m, &mut budget, obs);
            m.issue_primary(&mut budget, obs);
        } else {
            m.issue_primary(&mut budget, obs);
            Self::issue_redundant(m, &mut budget, obs);
        }
    }

    /// A comparable queue head, a completed migration candidate (it
    /// acts even when the queue is full, counting a stall sample), an R
    /// completion, or a pending R entry whose functional unit frees up.
    ///
    /// Pending redundant work does not pin the clock to one cycle at a
    /// time: during a skip nothing issues anywhere, so the pool's
    /// per-class free times and the lookahead window are both static,
    /// and the earliest cycle the R stream can move is the minimum over
    /// the window of each entry's needed-class free time (memory
    /// verifications need an address-generation ALU *and* a port, so
    /// they wait for the later of the two).
    fn wake(m: &mut Core<'_, Self>) -> Option<u64> {
        let pol = &mut m.pol;
        if pol.rqueue.head().is_some_and(|e| e.commit_ready())
            || m.ruu.get(pol.next_migrate_seq).is_some_and(|e| e.completed)
        {
            return Some(m.cycle);
        }
        let r_wake = pol.rqueue.next_r_completion_cycle();
        pol.window_len = 0;
        if r_wake.is_some_and(|t| t <= m.cycle) || !pol.rqueue.has_pending_r() {
            return r_wake;
        }
        let mut pending = std::mem::take(&mut pol.scratch_pending);
        pol.rqueue
            .pending_r_front_into(pol.cfg.r_issue_lookahead, &mut pending);
        pol.window_len = pending.len() as u64;
        let fu = &m.fu;
        let fu_wake = pending
            .iter()
            .map(|&seq| {
                let entry = pol.rqueue.get(seq).expect("pending seq in queue");
                if entry.info.mem.is_some() {
                    fu.earliest_free(FuClass::IntAlu)
                        .max(fu.earliest_free(FuClass::MemPort))
                } else {
                    fu.earliest_free(entry.info.instr.op.fu_class())
                }
            })
            .min()
            .filter(|&t| t < u64::MAX);
        pol.scratch_pending = pending;
        [r_wake, fu_wake].into_iter().flatten().min()
    }

    /// Per-cycle bookkeeping the skipped no-op cycles would have done:
    /// the occupancy sample, the R-priority counter (`issue` counts it
    /// even when nothing issues), and — when pending R work sat blocked
    /// on busy units — the tried/missed accounting the scan-mode
    /// redundant scheduler accrues every cycle it reconsiders the same
    /// window.
    fn skipped(m: &mut Core<'_, Self>, skipped: u64) {
        let pol = &mut m.pol;
        let len = pol.rqueue.len();
        pol.stats.rqueue_occupancy.record_n(len as u64, skipped);
        if len >= pol.cfg.high_water {
            pol.stats.r_priority_cycles += skipped;
        }
        pol.stats.r_tried += pol.window_len * skipped;
        pol.stats.r_missed += pol.window_len * skipped;
    }

    fn drained(&self) -> bool {
        self.rqueue.is_empty()
    }

    /// Early removal frees an instruction's RUU entry at migrate, so
    /// the queue holds it outside the RUU until it retires.
    fn held(&self) -> usize {
        if self.cfg.early_removal {
            self.rqueue.capacity()
        } else {
            0
        }
    }

    fn observe(&self, state: &mut CycleState) {
        state.r_issued = self.stats.r_issued;
        state.r_missed = self.stats.r_missed;
        state.sched_ops += self.rqueue.sched_ops();
        state.rqueue_occ = self.rqueue.len();
    }

    fn finish(m: Core<'_, Self>, stop: SimStop) -> ReeseResult {
        let (base, mut pol) = m.into_parts(stop);
        pol.stats.rqueue_peak = pol.rqueue.peak_occupancy();
        let duration = pol.latches.duration.map(|_| pol.latches.report);
        ReeseResult::assemble(base, pol.stats, pol.check.detections, duration)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reese_isa::assemble;
    use reese_pipeline::{PipelineConfig, PipelineSim};

    const LOOP: &str = "  li t0, 100\nloop: addi t0, t0, -1\n  bnez t0, loop\n  halt\n";

    fn run_reese(src: &str) -> ReeseResult {
        let prog = assemble(src).unwrap();
        ReeseSim::new(ReeseConfig::starting()).run(&prog).unwrap()
    }

    #[test]
    fn commits_same_instructions_as_baseline() {
        let prog = assemble(LOOP).unwrap();
        let base = PipelineSim::new(PipelineConfig::starting())
            .run(&prog)
            .unwrap();
        let reese = ReeseSim::new(ReeseConfig::starting()).run(&prog).unwrap();
        assert_eq!(
            reese.committed_instructions(),
            base.committed_instructions()
        );
        assert_eq!(reese.state_digest, base.state_digest);
        assert_eq!(reese.output, base.output);
    }

    #[test]
    fn every_instruction_is_compared() {
        let r = run_reese(LOOP);
        assert_eq!(r.stats.comparisons, r.committed_instructions());
        assert_eq!(r.stats.r_issued, r.committed_instructions());
        assert_eq!(r.stats.r_skipped, 0);
    }

    #[test]
    fn reese_is_slower_than_baseline_without_spares() {
        let prog = assemble(LOOP).unwrap();
        let base = PipelineSim::new(PipelineConfig::starting())
            .run(&prog)
            .unwrap();
        let reese = ReeseSim::new(ReeseConfig::starting()).run(&prog).unwrap();
        assert!(
            reese.cycles() >= base.cycles(),
            "doubling executed work cannot be free: reese {} vs base {}",
            reese.cycles(),
            base.cycles()
        );
    }

    #[test]
    fn detects_primary_fault_and_recovers() {
        let prog = assemble(LOOP).unwrap();
        let faults = [InjectedFault::primary(10, 5)];
        let r = ReeseSim::new(ReeseConfig::starting())
            .simulate(
                RunSpec::new(&prog).faults(Faults::Latch(&faults)),
                &mut NoopObserver,
            )
            .unwrap();
        assert_eq!(r.stats.detections, 1);
        assert_eq!(r.stats.flushes, 1);
        assert_eq!(r.detections.len(), 1);
        assert_eq!(r.detections[0].seq, 10);
        // Architectural results are unaffected by the transient fault.
        let clean = run_reese(LOOP);
        assert_eq!(r.committed_instructions(), clean.committed_instructions());
        assert_eq!(r.state_digest, clean.state_digest);
        assert!(r.cycles() > clean.cycles(), "recovery costs cycles");
    }

    #[test]
    fn detects_redundant_stream_fault() {
        let prog = assemble(LOOP).unwrap();
        let faults = [InjectedFault::redundant(20, 63)];
        let r = ReeseSim::new(ReeseConfig::starting())
            .simulate(
                RunSpec::new(&prog).faults(Faults::Latch(&faults)),
                &mut NoopObserver,
            )
            .unwrap();
        assert_eq!(r.stats.detections, 1);
        assert_eq!(r.detections[0].seq, 20);
        assert_eq!(r.exit_code, Some(0));
    }

    #[test]
    fn multiple_faults_all_detected() {
        let prog = assemble(LOOP).unwrap();
        let faults = [
            InjectedFault::primary(5, 1),
            InjectedFault::primary(50, 2),
            InjectedFault::redundant(100, 3),
        ];
        let r = ReeseSim::new(ReeseConfig::starting())
            .simulate(
                RunSpec::new(&prog).faults(Faults::Latch(&faults)),
                &mut NoopObserver,
            )
            .unwrap();
        assert_eq!(r.stats.detections, 3);
    }

    #[test]
    fn permanent_fault_reported() {
        let prog = assemble(LOOP).unwrap();
        let faults = [InjectedFault::permanent(10, 4)];
        let err = ReeseSim::new(ReeseConfig::starting())
            .simulate(
                RunSpec::new(&prog).faults(Faults::Latch(&faults)),
                &mut NoopObserver,
            )
            .unwrap_err();
        assert!(matches!(err, ReeseError::PermanentFault { seq: 10, .. }));
    }

    #[test]
    fn detection_latency_positive() {
        let prog = assemble(LOOP).unwrap();
        let faults = [InjectedFault::primary(10, 5)];
        let r = ReeseSim::new(ReeseConfig::starting())
            .simulate(
                RunSpec::new(&prog).faults(Faults::Latch(&faults)),
                &mut NoopObserver,
            )
            .unwrap();
        assert!(
            r.detections[0].latency() >= 1,
            "compare happens after R execution"
        );
    }

    #[test]
    fn partial_duplication_skips_and_speeds_up() {
        let prog = assemble(LOOP).unwrap();
        let full = ReeseSim::new(ReeseConfig::starting()).run(&prog).unwrap();
        let half = ReeseSim::new(ReeseConfig::starting().with_duplication_period(2))
            .run(&prog)
            .unwrap();
        assert!(half.stats.r_skipped > 0);
        assert_eq!(
            half.stats.r_skipped + half.stats.comparisons,
            half.committed_instructions()
        );
        assert!(
            half.cycles() <= full.cycles(),
            "re-executing less cannot be slower"
        );
    }

    #[test]
    fn partial_duplication_misses_faults_on_skipped_instructions() {
        let prog = assemble(LOOP).unwrap();
        // Period 2 re-executes even seqs; corrupt an odd one.
        let faults = [InjectedFault::primary(11, 5)];
        let r = ReeseSim::new(ReeseConfig::starting().with_duplication_period(2))
            .simulate(
                RunSpec::new(&prog).faults(Faults::Latch(&faults)),
                &mut NoopObserver,
            )
            .unwrap();
        assert_eq!(
            r.stats.detections, 0,
            "skipped instructions are unprotected"
        );
    }

    #[test]
    fn spare_alus_reduce_cycles() {
        // An ALU-saturated loop: spares must help REESE.
        let src = "  li s0, 300\n\
                   loop: addi t0, t0, 1\n  addi t1, t1, 1\n  addi t2, t2, 1\n  addi t3, t3, 1\n\
                   \n  addi s0, s0, -1\n  bnez s0, loop\n  halt\n";
        let prog = assemble(src).unwrap();
        let plain = ReeseSim::new(ReeseConfig::starting()).run(&prog).unwrap();
        let spared = ReeseSim::new(ReeseConfig::starting().with_spare_int_alus(2))
            .run(&prog)
            .unwrap();
        assert!(
            spared.cycles() < plain.cycles(),
            "+2 ALUs must speed up an ALU-bound REESE run ({} vs {})",
            spared.cycles(),
            plain.cycles()
        );
    }

    #[test]
    fn rqueue_never_exceeds_capacity() {
        let r = run_reese(LOOP);
        assert!(r.stats.rqueue_peak <= 32);
        assert!(r.stats.rqueue_occupancy.samples() > 0);
    }

    #[test]
    fn memory_program_matches_baseline() {
        let src = "  la a0, arr\n  li t0, 0\n  li t1, 16\n\
             loop: slli t2, t0, 3\n  add t3, a0, t2\n  sd t0, 0(t3)\n  ld t4, 0(t3)\n  add t5, t5, t4\n  addi t0, t0, 1\n  bne t0, t1, loop\n\
             \n  print t5\n  halt\n  .data\narr: .space 128\n";
        let prog = assemble(src).unwrap();
        let base = PipelineSim::new(PipelineConfig::starting())
            .run(&prog)
            .unwrap();
        let reese = ReeseSim::new(ReeseConfig::starting()).run(&prog).unwrap();
        assert_eq!(reese.output, base.output);
        assert_eq!(reese.output, vec![120]);
    }

    #[test]
    fn determinism() {
        let a = run_reese(LOOP);
        let b = run_reese(LOOP);
        assert_eq!(a, b);
    }

    #[test]
    fn instruction_limit_respected() {
        let prog = assemble("loop: addi t0, t0, 1\n  j loop\n  halt\n").unwrap();
        let r = ReeseSim::new(ReeseConfig::starting())
            .simulate(RunSpec::new(&prog).limit(100), &mut NoopObserver)
            .unwrap();
        assert_eq!(r.stop, SimStop::InstructionLimit);
        assert!(r.committed_instructions() >= 100);
    }

    #[test]
    fn scan_and_event_driven_agree() {
        let mem_src = "  la a0, arr\n  li t0, 0\n  li t1, 16\n\
             loop: slli t2, t0, 3\n  add t3, a0, t2\n  sd t0, 0(t3)\n  ld t4, 0(t3)\n  add t5, t5, t4\n  addi t0, t0, 1\n  bne t0, t1, loop\n\
             \n  print t5\n  halt\n  .data\narr: .space 128\n";
        for src in [LOOP, mem_src] {
            let prog = assemble(src).unwrap();
            let scan = ReeseSim::new(ReeseConfig::starting().with_scheduler(SchedulerMode::Scan))
                .run(&prog)
                .unwrap();
            let event =
                ReeseSim::new(ReeseConfig::starting().with_scheduler(SchedulerMode::EventDriven))
                    .run(&prog)
                    .unwrap();
            assert_eq!(scan, event, "modes diverged on {src:?}");
        }
    }

    #[test]
    fn scan_and_event_driven_agree_under_faults() {
        // Detection flushes must fully drain the ready set and both
        // event wheels; any stale event would desynchronise the modes
        // (or fire against a re-delivered seq).
        let prog = assemble(LOOP).unwrap();
        let faults = [
            InjectedFault::primary(5, 1),
            InjectedFault::redundant(50, 63),
            InjectedFault::primary(100, 2),
        ];
        let scan = ReeseSim::new(ReeseConfig::starting().with_scheduler(SchedulerMode::Scan))
            .simulate(
                RunSpec::new(&prog).faults(Faults::Latch(&faults)),
                &mut NoopObserver,
            )
            .unwrap();
        let event =
            ReeseSim::new(ReeseConfig::starting().with_scheduler(SchedulerMode::EventDriven))
                .simulate(
                    RunSpec::new(&prog).faults(Faults::Latch(&faults)),
                    &mut NoopObserver,
                )
                .unwrap();
        assert_eq!(scan, event);
        assert_eq!(event.stats.detections, 3);
    }

    #[test]
    fn repeated_flush_stress_with_seeded_faults() {
        // A crude SplitMix64 drives fault placement so the schedule of
        // flushes is arbitrary but reproducible; every trial must agree
        // across modes and still drain to a clean halt.
        let prog = assemble(LOOP).unwrap();
        let mut state: u64 = 0x9e3779b97f4a7c15;
        let mut next = move || {
            state = state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        };
        for trial in 0..10 {
            let faults: Vec<InjectedFault> = (0..3)
                .map(|_| {
                    let seq = next() % 200;
                    let bit = (next() % 64) as u8;
                    if next() % 2 == 0 {
                        InjectedFault::primary(seq, bit)
                    } else {
                        InjectedFault::redundant(seq, bit)
                    }
                })
                .collect();
            let scan = ReeseSim::new(ReeseConfig::starting().with_scheduler(SchedulerMode::Scan))
                .simulate(
                    RunSpec::new(&prog).faults(Faults::Latch(&faults)),
                    &mut NoopObserver,
                )
                .unwrap();
            let event =
                ReeseSim::new(ReeseConfig::starting().with_scheduler(SchedulerMode::EventDriven))
                    .simulate(
                        RunSpec::new(&prog).faults(Faults::Latch(&faults)),
                        &mut NoopObserver,
                    )
                    .unwrap();
            assert_eq!(scan, event, "trial {trial} faults {faults:?}");
            assert_eq!(event.stop, SimStop::Halted, "trial {trial}");
            assert_eq!(event.exit_code, Some(0), "trial {trial}");
        }
    }

    #[test]
    fn fault_on_halt_detected() {
        let prog = assemble("  li a0, 7\n  halt\n").unwrap();
        // halt is seq 1; corrupt its (exit-code) result latch.
        let faults = [InjectedFault::primary(1, 0)];
        let r = ReeseSim::new(ReeseConfig::starting())
            .simulate(
                RunSpec::new(&prog).faults(Faults::Latch(&faults)),
                &mut NoopObserver,
            )
            .unwrap();
        assert_eq!(r.stats.detections, 1);
        assert_eq!(r.exit_code, Some(7), "recovered exit code is clean");
    }
}
