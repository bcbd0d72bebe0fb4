//! Per-replica continuous-batching engine.
//!
//! Each replica owns an admission queue and a running batch and alternates
//! **prefill** steps (packed admission of queued requests, bounded by the KV token
//! budget and a chunking limit) with **decode** steps (one committed token per
//! sequence vanilla, or an expected accept length speculatively). Every decode
//! step is decided, costed on [`tlt_gpusim::LlmCostModel`] and fed back to the
//! tuner by [`tlt_rollout::SdStepEvaluator`], the same evaluator the rollout
//! engine advances by, with the elastic threshold driven by the *live load*
//! (running batch plus queue depth), so speculation switches itself off exactly when
//! a backlog guarantees large batches — the paper's elastic-SD insight applied to
//! online serving.
//!
//! Replicas also model production failures: [`Replica::crash`] takes the engine
//! down, aborts the in-flight step (its work is lost — commits only happen at step
//! completion) and drains every held request into [`FailoverRequest`] records the
//! frontend re-queues onto survivors; [`Replica::restart`] brings the engine back
//! (resuming any work queued meanwhile) and [`Replica::set_slow_factor`] degrades
//! step durations to model a straggler.
//!
//! # Runs
//!
//! A decode step over an unchanged batch costs O(1). While the in-flight step
//! is vanilla (one token per sequence, not speculative), every running entry
//! holds a whole-token `generated` and its first token, and nothing is queued
//! or arriving, the replica is in a **run** (`Run`): completing the step is
//! `lag += 1` on one scalar, and the next step's inputs come from sums the run
//! carries. `settle()` writes `lag` into the entries and ends the run; it runs
//! before anything that reads or changes per-entry progress or the batch: the
//! step that finishes an entry, a step boundary with `queue` or `arriving`
//! non-empty or (under optimistic admission) a batch that stopped fitting, a
//! fractional or speculative step chosen by the tuner, and [`Replica::crash`].
//! The `&self` readers ([`Replica::load`], [`Replica::kv_pool_leaked`],
//! [`Replica::plan_inbound`]) read the sums instead. Everything moved is
//! integer-valued, so no simulated bit depends on how a step was committed.

use crate::balancer::ReplicaLoad;
use crate::config::{KvAccounting, ServeConfig};
use crate::metrics::{ReplicaMetrics, ReplicaStats};
use crate::request::{CompletedRequest, ServeRequest};
use std::collections::VecDeque;
use tlt_model::paged_kv::{BlockLedger, PoolStats};
use tlt_obs::{record, EventKind, ObsEvent, Track, NO_REQ};
use tlt_rollout::{SdMode, SdStepEvaluator, SdStepModel};

/// A request waiting in the admission queue (possibly preempted mid-decode).
#[derive(Debug, Clone)]
struct QueuedEntry {
    req: ServeRequest,
    generated: f64,
    first_token_s: Option<f64>,
    admitted_s: Option<f64>,
    preemptions: u32,
}

impl QueuedEntry {
    fn fresh(req: ServeRequest) -> Self {
        QueuedEntry {
            req,
            generated: 0.0,
            first_token_s: None,
            admitted_s: None,
            preemptions: 0,
        }
    }

    /// Tokens a prefill step must process to (re)start this request: the prompt
    /// plus any previously generated tokens lost to preemption (recompute).
    fn prefill_tokens(&self) -> usize {
        self.req.prompt_len + self.generated.ceil() as usize
    }
}

/// A request drained from a crashed replica, carrying enough lifecycle state to
/// resume on a survivor without losing latency accounting: tokens already
/// streamed to the client keep their `generated` credit (the surviving replica
/// recomputes the KV for them in one prefill, like a preemption restore) and the
/// original arrival / first-token timestamps are preserved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailoverRequest {
    /// The original request.
    pub req: ServeRequest,
    /// Output tokens already produced (and delivered) before the crash.
    pub generated: f64,
    /// When the first output token was produced, if it was.
    pub first_token_s: Option<f64>,
    /// When the request was first admitted into a prefill batch, if it was.
    pub admitted_s: Option<f64>,
    /// Preemption count, already incremented for the crash-forced recompute.
    pub preemptions: u32,
}

/// A prefilled sequence handed off by a prefill-pool replica, to be migrated
/// over the KV transfer link and resumed on a decode-pool replica with zero
/// recompute. The source replica keeps `source_blocks` charged as outbound
/// until the transfer lands (or aborts); `wire_blocks` is the full block
/// footprint that physically crosses the link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigratedEntry {
    /// The original request.
    pub req: ServeRequest,
    /// Output tokens already produced (normally 0 at a post-prefill handoff).
    pub generated: f64,
    /// When the request was first admitted into a prefill batch.
    pub admitted_s: f64,
    /// Preemption count carried across the handoff.
    pub preemptions: u32,
    /// Private blocks the source keeps charged as outbound while in flight.
    pub source_blocks: usize,
    /// Blocks transferred over the link (the sequence's whole footprint).
    pub wire_blocks: usize,
}

/// A request in the running batch.
#[derive(Debug, Clone)]
struct RunningEntry {
    req: ServeRequest,
    generated: f64,
    first_token_s: Option<f64>,
    admitted_s: f64,
    preemptions: u32,
    /// Set while the admitting prefill step is still in flight.
    prefill_pending: bool,
    /// Admission sequence number; preemption evicts the most recent first.
    admit_seq: u64,
    /// Full-block shared-prefix tokens this entry references under paged
    /// accounting (charged once per replica, not per entry).
    shared_tokens: usize,
}

impl RunningEntry {
    /// Current KV footprint in tokens (per-sequence attention context).
    fn kv_tokens(&self) -> usize {
        self.req.prompt_len + self.generated.ceil() as usize
    }

    /// Tokens this entry stores privately under paged accounting (everything
    /// beyond the shared full-block prefix).
    fn private_tokens(&self) -> usize {
        self.kv_tokens() - self.shared_tokens
    }

    fn remaining(&self) -> f64 {
        self.req.output_len as f64 - self.generated
    }
}

/// Outcome of planning one paged admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PagedAdmission {
    /// Can never fit an empty replica: drop.
    Impossible,
    /// Does not fit the blocks left right now: stop admitting.
    OverBudget,
    /// Fits; `cached` prompt tokens come from resident prefix blocks.
    Admit {
        /// Prompt tokens served from the resident prefix cache.
        cached: usize,
        /// Private blocks the entry reserves.
        private_blocks: usize,
        /// Full shared-prefix blocks (charged once per replica).
        shared_blocks: usize,
    },
}

/// What the in-flight step will do when it completes.
#[derive(Debug, Clone)]
enum StepWork {
    /// A packed prefill over all `prefill_pending` running entries.
    Prefill,
    /// A decode step committing `tokens_per_seq` tokens to every running sequence
    /// (`speculative` marks an SD round, for the flight recorder).
    Decode {
        tokens_per_seq: f64,
        speculative: bool,
    },
}

#[derive(Debug, Clone)]
struct PendingStep {
    work: StepWork,
    finish_s: f64,
    duration_s: f64,
}

/// A run of vanilla decode steps over an unchanged batch (module header): the
/// steps not yet written into the entries, and the batch's sums with them.
#[derive(Debug, Clone, Default)]
struct Run {
    /// Tokens every entry has produced beyond its `generated`.
    lag: usize,
    /// Vanilla steps from the run's start to its first finish.
    to_finish: usize,
    kv_tokens: usize,
    private_blocks: usize,
    /// Decode tokens the batch still owes (its share of [`Replica::load`]).
    outstanding: u64,
    /// Entries by `private_tokens % block_size` at the run's start (paged).
    residues: Vec<u32>,
    /// The residue class that gains a block on the next step.
    boundary: usize,
}

impl Run {
    /// Commits one vanilla step to each of the `batch` entries.
    fn advance(&mut self, batch: usize) {
        self.lag += 1;
        self.kv_tokens += batch;
        self.outstanding -= batch as u64;
        if let Some(&crossing) = self.residues.get(self.boundary) {
            // A token that follows a full block opens a new one.
            self.private_blocks += crossing as usize;
            let last = self.residues.len() - 1;
            self.boundary = self.boundary.checked_sub(1).unwrap_or(last);
        }
    }
}

/// One continuous-batching replica.
#[derive(Debug, Clone)]
pub struct Replica {
    index: usize,
    config: ServeConfig,
    kv_budget: usize,
    /// Block-granular accounting under [`KvAccounting::Paged`]; `None` keeps
    /// the legacy flat-token behaviour bit for bit.
    ledger: Option<BlockLedger>,
    /// Decides, costs and records every decode step (shared with the rollout
    /// engine of `tlt-rollout`).
    sd: SdStepEvaluator,
    queue: VecDeque<QueuedEntry>,
    running: Vec<RunningEntry>,
    step: Option<PendingStep>,
    /// The sums of the run in progress when `in_run`, else a buffer kept for
    /// the next one. Boxed so that a released replica holds a word.
    run: Option<Box<Run>>,
    /// Whether the in-flight step is carried by `run` (module header).
    in_run: bool,
    /// See [`Replica::entry_visits`].
    entry_visits: u64,
    admit_seq: u64,
    /// Whether the engine is serving (false between `crash` and `restart`).
    up: bool,
    /// Step-duration multiplier (> 1.0 models a straggler replica).
    slow_factor: f64,
    /// Accounting: every scalar tally lives in the per-replica metrics
    /// registry ([`ReplicaStats`] is materialised from it at report time).
    metrics: ReplicaMetrics,
    dropped_ids: Vec<u64>,
    /// Requests finished since the driver last collected them: a per-step
    /// buffer of batch size (see [`Replica::move_completed_into`]).
    completed: Vec<CompletedRequest>,
    /// Expected accept length of every speculative decode step, in step
    /// order, quantised to whole tokens and stored run-length as
    /// `(value, count)`: the value changes only when the SD manager changes
    /// arm. This is the raw material for the trace recorder's SD bitstream
    /// (`tlt-trace`); it stays empty on replicas that never speculate.
    sd_accepts: Vec<(u8, u32)>,
    /// Prefill-pool member of a disaggregated cluster: sequences are handed
    /// off for migration when their prefill completes instead of decoding here.
    prefill_only: bool,
    /// Relabels the flight-recorder track for disaggregated pool replicas.
    track_override: Option<Track>,
    /// Prefilled sequences awaiting migration (drained by the cluster).
    handoffs: Vec<MigratedEntry>,
    /// Landed migrations waiting to join the batch at the next step boundary,
    /// each with the inbound block reservation it converts on merge.
    arriving: Vec<(RunningEntry, usize)>,
}

impl Replica {
    /// Creates replica `index` of a deployment. When the deployment registers
    /// a per-replica cost override for this index (heterogeneous fleet), the
    /// replica's own config copy carries that cost model, so its step times
    /// and KV budget reflect the hardware it actually runs on.
    pub fn new(config: &ServeConfig, index: usize) -> Self {
        let mut config = config.clone();
        config.cost = config.cost_for(index).clone();
        let config = &config;
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        let kv_budget = config.kv_token_budget();
        let ledger = match config.kv_accounting {
            KvAccounting::Tokens => None,
            KvAccounting::Paged { block_size } => {
                Some(BlockLedger::new(block_size, kv_budget / block_size))
            }
        };
        Replica {
            index,
            kv_budget,
            ledger,
            sd: SdStepEvaluator::new(
                &config.sd_mode,
                config
                    .seed
                    .wrapping_add((index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            ),
            config: config.clone(),
            queue: VecDeque::new(),
            running: Vec::new(),
            step: None,
            run: None,
            in_run: false,
            entry_visits: 0,
            admit_seq: 0,
            up: true,
            slow_factor: 1.0,
            metrics: ReplicaMetrics::new(),
            dropped_ids: Vec::new(),
            completed: Vec::new(),
            sd_accepts: Vec::new(),
            prefill_only: false,
            track_override: None,
            handoffs: Vec::new(),
            arriving: Vec::new(),
        }
    }

    /// The flight-recorder track for this replica.
    fn track(&self) -> Track {
        self.track_override
            .unwrap_or(Track::Replica(self.index as u32))
    }

    /// Overrides the flight-recorder track (disaggregated pools relabel their
    /// replicas as `prefill {i}` / `decode {j}`).
    pub fn set_track(&mut self, track: Track) {
        self.track_override = Some(track);
    }

    /// Marks this replica as a prefill-pool member: every sequence is handed
    /// off for migration the moment its prefill completes, and admission
    /// reserves only the prefill footprint (no decode-output reservation).
    pub fn set_prefill_only(&mut self, prefill_only: bool) {
        self.prefill_only = prefill_only;
    }

    /// Whether the replica is serving (false between [`Replica::crash`] and
    /// [`Replica::restart`]).
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// The KV-token budget this replica admits against.
    pub fn kv_budget(&self) -> usize {
        self.kv_budget
    }

    /// Sets the step-duration multiplier (a straggler runs at `factor > 1.0`).
    /// Takes effect from the next scheduled step; the in-flight step keeps the
    /// duration it was scheduled with.
    ///
    /// # Panics
    ///
    /// Panics unless `factor` is finite and positive.
    pub fn set_slow_factor(&mut self, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "slow factor must be finite and positive"
        );
        self.slow_factor = factor;
    }

    /// Crashes the replica at time `now`: the in-flight step is aborted (its
    /// uncommitted work is lost), and every held request — running batch first in
    /// admission order, then the queue front-to-back — is drained into
    /// [`FailoverRequest`] records for the frontend to re-queue on survivors.
    /// Requests keep their arrival / first-token timestamps and `generated`
    /// credit (already-delivered tokens are not re-produced; a survivor
    /// recomputes their KV in one prefill, exactly like a preemption restore).
    pub fn crash(&mut self, now: f64) -> Vec<FailoverRequest> {
        self.settle();
        self.up = false;
        self.step = None;
        self.metrics.inc_crashes();
        record(
            ObsEvent::instant(now, self.track(), EventKind::Crash, NO_REQ)
                .with_args(self.running.len() as f64, self.queue.len() as f64),
        );
        // The crash wipes the replica's KV pool: every block — private
        // footprints and the resident prefix cache alike — is freed.
        if let Some(ledger) = self.ledger.as_mut() {
            ledger.reset();
        }
        let mut drained = Vec::with_capacity(self.running.len() + self.queue.len());
        for entry in self.running.drain(..) {
            drained.push(FailoverRequest {
                req: entry.req,
                generated: entry.generated,
                first_token_s: entry.first_token_s,
                admitted_s: Some(entry.admitted_s),
                preemptions: entry.preemptions + 1,
            });
        }
        for entry in self.queue.drain(..) {
            drained.push(FailoverRequest {
                req: entry.req,
                generated: entry.generated,
                first_token_s: entry.first_token_s,
                admitted_s: entry.admitted_s,
                // A queued request holds no KV, so the crash costs it nothing.
                preemptions: entry.preemptions,
            });
        }
        // Disaggregated state is lost with the pool: landed-but-unmerged
        // migrations and prefilled sequences still awaiting handoff both need
        // a fresh prefill elsewhere.
        for (entry, _reserved) in std::mem::take(&mut self.arriving) {
            drained.push(FailoverRequest {
                req: entry.req,
                generated: entry.generated,
                first_token_s: entry.first_token_s,
                admitted_s: Some(entry.admitted_s),
                preemptions: entry.preemptions + 1,
            });
        }
        for m in std::mem::take(&mut self.handoffs) {
            drained.push(FailoverRequest {
                req: m.req,
                generated: m.generated,
                first_token_s: None,
                admitted_s: Some(m.admitted_s),
                preemptions: m.preemptions + 1,
            });
        }
        drained
    }

    /// Restarts a crashed replica at time `now`. Any work enqueued while the
    /// replica was down (or re-delivered orphans) starts immediately.
    ///
    /// # Panics
    ///
    /// Panics if the replica is already up.
    pub fn restart(&mut self, now: f64) {
        assert!(!self.up, "restart requires a crashed replica");
        self.up = true;
        record(ObsEvent::instant(
            now,
            self.track(),
            EventKind::Restart,
            NO_REQ,
        ));
        debug_assert!(self.step.is_none(), "a crashed replica holds no step");
        if !self.queue.is_empty() {
            self.start_step(now);
        }
    }

    /// Re-queues a request drained from a crashed replica, preserving its
    /// lifecycle state. Starts a step immediately if the replica is idle.
    pub fn enqueue_failover(&mut self, fo: FailoverRequest, now: f64) {
        self.metrics.inc_failovers();
        record(
            ObsEvent::instant(now, self.track(), EventKind::Failover, fo.req.id)
                .with_args(fo.generated, 0.0),
        );
        self.queue.push_back(QueuedEntry {
            req: fo.req,
            generated: fo.generated,
            first_token_s: fo.first_token_s,
            admitted_s: fo.admitted_s,
            preemptions: fo.preemptions,
        });
        if self.up && self.step.is_none() {
            self.start_step(now);
        }
    }

    /// Simulated time at which the in-flight step finishes (infinite when idle).
    pub fn next_event_s(&self) -> f64 {
        self.step.as_ref().map(|s| s.finish_s).unwrap_or(f64::MAX)
    }

    /// Load snapshot for the balancer.
    pub fn load(&self) -> ReplicaLoad {
        if self.prefill_only {
            // A prefill-pool replica only owes prefill compute: the decode
            // tokens belong to whichever decode replica the sequence lands on.
            let queued: u64 = self.queue.iter().map(|e| e.prefill_tokens() as u64).sum();
            let running: u64 = self
                .running
                .iter()
                .filter(|e| e.prefill_pending)
                .map(|e| e.req.prompt_len as u64)
                .sum();
            return ReplicaLoad {
                queued: self.queue.len(),
                running: self.running.len(),
                outstanding_tokens: queued + running,
            };
        }
        let queued_tokens: u64 = self
            .queue
            .iter()
            .map(|e| {
                // Work still owed: the (re)prefill plus the decode tokens not yet
                // produced (preempted entries keep their `generated` credit).
                e.prefill_tokens() as u64 + (e.req.output_len as f64 - e.generated).max(0.0) as u64
            })
            .sum();
        let running_tokens: u64 = if let Some(run) = self.active_run() {
            run.outstanding
        } else {
            self.running
                .iter()
                .map(|e| {
                    let prefill = if e.prefill_pending {
                        e.req.prompt_len
                    } else {
                        0
                    };
                    (prefill as f64 + e.remaining()).max(0.0) as u64
                })
                .sum()
        };
        ReplicaLoad {
            queued: self.queue.len(),
            running: self.running.len(),
            outstanding_tokens: queued_tokens + running_tokens,
        }
    }

    /// Whether any work (queued, running, in flight, or awaiting a
    /// disaggregated handoff / merge) remains.
    pub fn has_work(&self) -> bool {
        self.step.is_some()
            || !self.queue.is_empty()
            || !self.running.is_empty()
            || !self.arriving.is_empty()
            || !self.handoffs.is_empty()
    }

    /// Accepts a request at time `now`, starting a step immediately if idle (and
    /// up — a down replica holds the request until [`Replica::restart`]). The
    /// request's output length is clamped to the deployment's per-request cap so
    /// conservative KV admission's worst-case reservation really is a worst case,
    /// and a zero-token prompt is clamped to one token so every admitted request
    /// goes through a real prefill (its first token has a well-defined time).
    pub fn enqueue(&mut self, mut req: ServeRequest, now: f64) {
        req.prompt_len = req.prompt_len.max(1);
        req.output_len = req.output_len.min(self.config.max_output_tokens).max(1);
        req.prefix_len = req.prefix_len.min(req.prompt_len);
        self.queue.push_back(QueuedEntry::fresh(req));
        if self.up && self.step.is_none() {
            self.start_step(now);
        }
    }

    /// Completes the in-flight step (must be called at exactly `next_event_s`) and
    /// immediately starts the next one if work remains.
    pub fn on_step_complete(&mut self, now: f64) {
        let step = self.step.take().expect("a step is in flight");
        self.metrics.observe_step(step.duration_s);
        let track = self.track();
        let batch = self.running.len();
        match step.work {
            StepWork::Prefill => {
                record(
                    ObsEvent::span(
                        now - step.duration_s,
                        step.duration_s,
                        track,
                        EventKind::Prefill,
                        NO_REQ,
                    )
                    .with_args(batch as f64, self.queue.len() as f64),
                );
                self.entry_visits += batch as u64;
                let prefill_only = self.prefill_only;
                for entry in &mut self.running {
                    if entry.prefill_pending {
                        entry.prefill_pending = false;
                        // A prefill-pool replica never produces an output
                        // token: the first token arrives on the decode side,
                        // after the migration.
                        if !prefill_only && entry.first_token_s.is_none() {
                            entry.first_token_s = Some(now);
                        }
                    }
                }
                if self.prefill_only {
                    // Every running entry has now completed its prefill: hand
                    // the whole batch off for migration. The shared-prefix
                    // reference drops (the blocks stay resident as the
                    // affinity cache) and the private footprint converts into
                    // an outbound charge held until the transfer lands.
                    for entry in self.running.drain(..) {
                        let (source_blocks, wire_blocks) = match self.ledger.as_mut() {
                            Some(ledger) => {
                                if entry.shared_tokens > 0 {
                                    ledger.release_shared(entry.req.prefix_id);
                                }
                                let src = ledger.blocks_for(entry.private_tokens());
                                ledger.begin_outbound(src);
                                (src, ledger.blocks_for(entry.kv_tokens()))
                            }
                            None => (0, 0),
                        };
                        self.metrics.inc_migrations_out();
                        self.handoffs.push(MigratedEntry {
                            req: entry.req,
                            generated: entry.generated,
                            admitted_s: entry.admitted_s,
                            preemptions: entry.preemptions,
                            source_blocks,
                            wire_blocks,
                        });
                    }
                }
            }
            StepWork::Decode {
                tokens_per_seq,
                speculative,
            } => {
                record(
                    ObsEvent::span(
                        now - step.duration_s,
                        step.duration_s,
                        track,
                        if speculative {
                            EventKind::SdRound
                        } else {
                            EventKind::Decode
                        },
                        NO_REQ,
                    )
                    .with_args(batch as f64, tokens_per_seq),
                );
                if self.in_run {
                    let run = self.run.as_deref_mut().expect("a run has its sums");
                    // The step finishes nobody: the run carries it.
                    if run.lag + 1 < run.to_finish {
                        run.advance(batch);
                        return self.start_step(now);
                    }
                    self.settle();
                }
                self.entry_visits += batch as u64;
                // Single in-order pass: finished entries drain straight into the
                // completed log (in admission order) and survivors keep their
                // batch order — no per-removal swap_remove shuffling. Finished
                // entries drop their shared-prefix reference; the blocks stay
                // resident for future admissions until pool pressure reclaims
                // them.
                let replica_index = self.index;
                let completed = &mut self.completed;
                let metrics = &mut self.metrics;
                let ledger = &mut self.ledger;
                self.running.retain_mut(|entry| {
                    let committed = tokens_per_seq.min(entry.remaining());
                    entry.generated += committed;
                    // Migrated entries skip the local prefill, so their first
                    // token is produced by their first decode commit here.
                    if entry.first_token_s.is_none() {
                        entry.first_token_s = Some(now);
                    }
                    if entry.remaining() <= 1e-9 {
                        metrics.inc_completed();
                        record(
                            ObsEvent::instant(now, track, EventKind::Completion, entry.req.id)
                                .with_args(entry.req.output_len as f64, now - entry.req.arrival_s),
                        );
                        if entry.shared_tokens > 0 {
                            ledger
                                .as_mut()
                                .expect("shared tokens imply paged accounting")
                                .release_shared(entry.req.prefix_id);
                        }
                        completed.push(CompletedRequest {
                            id: entry.req.id,
                            replica: replica_index,
                            arrival_s: entry.req.arrival_s,
                            admitted_s: entry.admitted_s,
                            first_token_s: entry.first_token_s.unwrap_or(now),
                            finish_s: now,
                            prompt_len: entry.req.prompt_len,
                            output_len: entry.req.output_len,
                            preemptions: entry.preemptions,
                        });
                        false
                    } else {
                        true
                    }
                });
            }
        }
        self.start_step(now);
    }

    /// The running batch in one pass: its KV tokens (see [`Replica::kv_in_use`])
    /// and, under paged accounting, the private blocks they occupy (0 under
    /// token accounting).
    fn batch_footprint(&self) -> (usize, usize) {
        let Some(ledger) = &self.ledger else {
            return (self.kv_in_use(), 0);
        };
        self.running.iter().fold((0, 0), |(tokens, blocks), e| {
            let kv = e.kv_tokens();
            (
                tokens + kv,
                blocks + ledger.blocks_for(kv - e.shared_tokens),
            )
        })
    }

    /// Actual private (unshared) blocks the running batch occupies.
    fn private_blocks_in_use(&self, ledger: &BlockLedger) -> usize {
        if let Some(run) = self.active_run() {
            return run.private_blocks;
        }
        self.running
            .iter()
            .map(|e| ledger.blocks_for(e.private_tokens()))
            .sum()
    }

    /// Full-block tokens of `req`'s shared prefix under paged accounting
    /// (partial blocks stay private; 0 under token accounting or without a
    /// prefix).
    fn shared_prefix_tokens(&self, req: &ServeRequest) -> usize {
        match &self.ledger {
            Some(ledger) if req.prefix_id != 0 => {
                let bs = ledger.block_size();
                (req.prefix_len.min(req.prompt_len) / bs) * bs
            }
            _ => 0,
        }
    }

    /// KV tokens a queued entry needs at admission time: its current footprint under
    /// optimistic admission, or the worst case under conservative admission.
    fn admission_need(&self, entry: &QueuedEntry) -> usize {
        if self.prefill_only || self.config.preemption {
            entry.prefill_tokens()
        } else {
            entry.req.prompt_len + self.config.max_output_tokens
        }
    }

    /// KV tokens currently reserved by the running batch under the active policy.
    fn reserved_tokens(&self) -> usize {
        self.running
            .iter()
            .map(|e| {
                if self.prefill_only || self.config.preemption {
                    e.kv_tokens()
                } else {
                    e.req.prompt_len + self.config.max_output_tokens
                }
            })
            .sum()
    }

    /// Current KV footprint of the running batch (actual tokens resident,
    /// counting shared prefixes once per referencing entry — the per-sequence
    /// attention context the cost model sees).
    fn kv_in_use(&self) -> usize {
        self.running.iter().map(RunningEntry::kv_tokens).sum()
    }

    /// Private blocks reserved by the running batch under paged accounting
    /// (worst case under conservative admission, actual footprint under
    /// optimistic admission). Shared groups are charged by the ledger.
    fn reserved_private_blocks(&self, ledger: &BlockLedger) -> usize {
        if self.prefill_only || self.config.preemption {
            return self.private_blocks_in_use(ledger);
        }
        self.running
            .iter()
            .map(|e| {
                let tokens = e.req.prompt_len - e.shared_tokens + self.config.max_output_tokens;
                ledger.blocks_for(tokens)
            })
            .sum()
    }

    /// Actual blocks charged right now: per-entry private footprints (rounded
    /// up to whole blocks) plus the resident shared groups, charged once.
    fn blocks_in_use(&self, ledger: &BlockLedger) -> usize {
        self.private_blocks_in_use(ledger)
            + ledger.shared_blocks()
            + ledger.inbound_blocks()
            + ledger.outbound_blocks()
    }

    /// Plans the paged admission of `entry` against the current reservations
    /// without mutating anything.
    fn plan_paged_admission(
        &self,
        entry: &QueuedEntry,
        reserved_private_blocks: usize,
    ) -> PagedAdmission {
        let ledger = self.ledger.as_ref().expect("paged accounting");
        let budget = ledger.capacity_blocks();
        let shared = self.shared_prefix_tokens(&entry.req);
        let shared_blocks = shared / ledger.block_size();
        // A request that cannot fit even an otherwise-empty replica will never
        // be admittable: drop it instead of wedging the queue (the paged
        // analogue of the token-mode impossibility rule, with the shared
        // prefix charged once).
        let lone_private = if self.prefill_only {
            entry.prefill_tokens() - shared
        } else if self.config.preemption {
            entry.req.prompt_len - shared + entry.req.output_len
        } else {
            entry.req.prompt_len - shared + self.config.max_output_tokens
        };
        if ledger.blocks_for(lone_private) + shared_blocks > budget {
            return PagedAdmission::Impossible;
        }
        // Only the blocks already resident hold materialised KV a prefill can
        // reuse; a longer clamped prefix must compute — and charge — the
        // extension blocks itself (the group grows at admission).
        let reused_blocks = if shared_blocks > 0 {
            shared_blocks.min(ledger.resident_blocks_of(entry.req.prefix_id))
        } else {
            0
        };
        let private_need = if self.prefill_only || self.config.preemption {
            entry.prefill_tokens() - shared
        } else {
            entry.req.prompt_len - shared + self.config.max_output_tokens
        };
        let private_blocks = ledger.blocks_for(private_need);
        let need = private_blocks + (shared_blocks - reused_blocks);
        // In-flight migrations hold real blocks: inbound reservations must not
        // be handed out twice (a transfer landing mid-step would over-commit
        // the pool) and outbound charges keep the source's KV pinned until the
        // wire copy finishes.
        if reserved_private_blocks
            + ledger.shared_blocks()
            + ledger.inbound_blocks()
            + ledger.outbound_blocks()
            + need
            > budget
        {
            return PagedAdmission::OverBudget;
        }
        // Reused resident blocks mean their KV is already materialised: the
        // prefill skips those tokens (keeping at least one novel token so the
        // step still produces first-token logits). The first request of a
        // group pays the full prefill and leaves the blocks resident.
        let cached =
            (reused_blocks * ledger.block_size()).min(entry.prefill_tokens().saturating_sub(1));
        PagedAdmission::Admit {
            cached,
            private_blocks,
            shared_blocks,
        }
    }

    /// Moves admittable queued requests into the running batch; returns the
    /// packed `(novel, cached)` prompt tokens of the admitted set — `novel`
    /// tokens must be computed by the prefill step, `cached` tokens are served
    /// from resident prefix blocks and only re-read by attention.
    fn try_admit(&mut self, now: f64) -> (usize, usize) {
        if self.queue.is_empty() {
            // Nothing to admit (always, on a decode-pool replica): skip the
            // pass over the batch's reservations.
            return (0, 0);
        }
        self.entry_visits += self.running.len() as u64;
        let mut reserved_tokens = if self.ledger.is_none() {
            self.reserved_tokens()
        } else {
            0
        };
        let mut reserved_private_blocks = match &self.ledger {
            Some(ledger) => self.reserved_private_blocks(ledger),
            None => 0,
        };
        let mut prefill_tokens = 0usize;
        let mut cached_tokens = 0usize;
        let mut admitted = 0usize;
        loop {
            if self.running.len() >= self.config.max_running_requests {
                break;
            }
            let Some(front) = self.queue.front().cloned() else {
                break;
            };
            // Decide admissibility under the active accounting mode.
            let paged = self.ledger.is_some();
            let (entry_cached, entry_private_blocks, entry_shared_blocks) = if paged {
                let mut plan = self.plan_paged_admission(&front, reserved_private_blocks);
                if plan == PagedAdmission::OverBudget {
                    // Reclaim prefix-cache groups nothing references — except
                    // the front request's own group, whose eviction would buy
                    // no headroom (its blocks move straight back into `need`)
                    // while destroying the cache hit — and retry once.
                    let keep = (front.req.prefix_id != 0).then_some(front.req.prefix_id);
                    let freed = match self.ledger.as_mut() {
                        Some(ledger) => ledger.evict_unreferenced_except(keep),
                        None => 0,
                    };
                    if freed > 0 {
                        plan = self.plan_paged_admission(&front, reserved_private_blocks);
                    }
                }
                match plan {
                    PagedAdmission::Impossible => {
                        let entry = self.queue.pop_front().expect("front exists");
                        self.metrics.inc_dropped();
                        self.dropped_ids.push(entry.req.id);
                        continue;
                    }
                    PagedAdmission::OverBudget => break,
                    PagedAdmission::Admit {
                        cached,
                        private_blocks,
                        shared_blocks,
                    } => (cached, private_blocks, shared_blocks),
                }
            } else {
                let need = self.admission_need(&front);
                // A request that cannot fit even an otherwise-empty replica will never
                // be admittable: drop it instead of wedging the queue. Under
                // optimistic admission the prefill may fit today but the request's
                // full footprint (prompt + clamped output) can still exceed the whole
                // budget — running it alone would overflow KV with nothing left to
                // preempt, so it is just as impossible.
                let impossible = need > self.kv_budget
                    || (self.config.preemption
                        && front.req.prompt_len + front.req.output_len > self.kv_budget);
                if impossible {
                    let entry = self.queue.pop_front().expect("front exists");
                    self.metrics.inc_dropped();
                    self.dropped_ids.push(entry.req.id);
                    continue;
                }
                if reserved_tokens + need > self.kv_budget {
                    break;
                }
                reserved_tokens += need;
                (0, 0, 0)
            };
            let chunk = front.prefill_tokens() - entry_cached;
            if admitted > 0 && prefill_tokens + chunk > self.config.max_prefill_tokens {
                break;
            }
            let entry = self.queue.pop_front().expect("front exists");
            let shared = self.shared_prefix_tokens(&entry.req);
            if let Some(ledger) = self.ledger.as_mut() {
                reserved_private_blocks += entry_private_blocks;
                if entry_shared_blocks > 0 {
                    ledger.admit_shared(entry.req.prefix_id, entry_shared_blocks);
                }
            }
            prefill_tokens += chunk;
            cached_tokens += entry_cached;
            // Hit-rate accounting is over *prompt* tokens: preemption-lost
            // output tokens are recomputed by the prefill but can never come
            // from the prefix cache, so they stay out of the denominator.
            self.metrics.observe_admission(
                entry.req.prompt_len as u64,
                entry_cached.min(entry.req.prompt_len) as u64,
            );
            record(
                ObsEvent::instant(now, self.track(), EventKind::Admission, entry.req.id)
                    .with_args(chunk as f64, entry_cached as f64),
            );
            admitted += 1;
            self.running.push(RunningEntry {
                admitted_s: entry.admitted_s.unwrap_or(now),
                req: entry.req,
                generated: entry.generated,
                first_token_s: entry.first_token_s,
                preemptions: entry.preemptions,
                prefill_pending: true,
                admit_seq: self.admit_seq,
                shared_tokens: shared,
            });
            self.admit_seq += 1;
        }
        (prefill_tokens, cached_tokens)
    }

    /// Evicts most-recently-admitted requests back to the queue front until the
    /// actual KV footprint fits the budget again (optimistic admission only).
    ///
    /// Victims are chosen in a single pass — indices sorted once by descending
    /// admission sequence — instead of an O(n) max scan per eviction, and removed
    /// with one order-preserving retain pass. Eviction order (most recently
    /// admitted first) and the resulting queue-front order (victims ascending by
    /// admission sequence, ahead of everything already queued) are pinned by the
    /// `preemption_evicts_most_recent_first` test.
    fn preempt_until_fitting(&mut self, now: f64) {
        // Under paged accounting the fitting check runs in block units against
        // the ledger. Unreferenced prefix-cache groups stay resident until
        // there is actual pressure; when the batch is over budget they are
        // reclaimed before any running work is evicted.
        let (budget, mut kv_in_use) = match &self.ledger {
            Some(ledger) => (ledger.capacity_blocks(), self.blocks_in_use(ledger)),
            None => (self.kv_budget, self.kv_in_use()),
        };
        if kv_in_use > budget {
            if let Some(ledger) = self.ledger.as_mut() {
                ledger.evict_unreferenced();
            }
            if let Some(ledger) = &self.ledger {
                kv_in_use = self.blocks_in_use(ledger);
            }
        }
        if kv_in_use <= budget || self.running.len() <= 1 {
            return;
        }
        let footprint = |replica: &Replica, i: usize| -> usize {
            match &replica.ledger {
                Some(ledger) => ledger.blocks_for(replica.running[i].private_tokens()),
                None => replica.running[i].kv_tokens(),
            }
        };
        // Remaining running references per shared group: evicting a group's
        // last referencing victim frees the group's blocks too (reclaimed by
        // the trailing sweep), so the loop credits them and stops earlier.
        let mut group_refs: Vec<(u64, usize)> = Vec::new();
        if self.ledger.is_some() {
            for e in self.running.iter().filter(|e| e.shared_tokens > 0) {
                match group_refs.iter_mut().find(|(id, _)| *id == e.req.prefix_id) {
                    Some((_, refs)) => *refs += 1,
                    None => group_refs.push((e.req.prefix_id, 1)),
                }
            }
        }
        let mut order: Vec<usize> = (0..self.running.len()).collect();
        order.sort_unstable_by_key(|&i| std::cmp::Reverse(self.running[i].admit_seq));
        let mut evicted = vec![false; self.running.len()];
        let mut evicted_count = 0usize;
        for &i in &order {
            if kv_in_use <= budget || self.running.len() - evicted_count <= 1 {
                break;
            }
            kv_in_use -= footprint(self, i);
            if self.running[i].shared_tokens > 0 {
                if let Some((_, refs)) = group_refs
                    .iter_mut()
                    .find(|(id, _)| *id == self.running[i].req.prefix_id)
                {
                    *refs -= 1;
                    if *refs == 0 {
                        if let Some(ledger) = &self.ledger {
                            kv_in_use = kv_in_use.saturating_sub(
                                ledger.resident_blocks_of(self.running[i].req.prefix_id),
                            );
                        }
                    }
                }
            }
            evicted[i] = true;
            evicted_count += 1;
        }
        if evicted_count == 0 {
            return;
        }
        // One pass rebuilds the surviving batch in order; victims move (no
        // clones) into slots addressed by their original index. The first
        // `evicted_count` entries of `order` are exactly the victims in eviction
        // order (most recently admitted first), so pushing them to the queue
        // front in that sequence leaves the front ascending by admission order.
        let mut slots: Vec<Option<RunningEntry>> = self.running.drain(..).map(Some).collect();
        for (slot, &was_evicted) in slots.iter_mut().zip(evicted.iter()) {
            if !was_evicted {
                self.running.push(slot.take().expect("unconsumed slot"));
            }
        }
        for &i in &order[..evicted_count] {
            let victim = slots[i].take().expect("victim slot");
            self.metrics.inc_preemptions();
            record(ObsEvent::instant(
                now,
                self.track(),
                EventKind::Preemption,
                victim.req.id,
            ));
            if let Some(ledger) = self.ledger.as_mut() {
                if victim.shared_tokens > 0 {
                    ledger.release_shared(victim.req.prefix_id);
                }
            }
            self.queue.push_front(QueuedEntry {
                req: victim.req,
                generated: victim.generated,
                first_token_s: victim.first_token_s,
                admitted_s: Some(victim.admitted_s),
                preemptions: victim.preemptions + 1,
            });
        }
        // Eviction may have orphaned a shared group; if the batch still does
        // not fit, reclaim those blocks too.
        if let Some(ledger) = self.ledger.as_mut() {
            ledger.evict_unreferenced();
        }
    }

    /// The walked half of a step boundary: joins, preemption and admission,
    /// then a recount. Returns the admitted set's `(novel, cached)` prompt
    /// tokens and the batch's footprint.
    fn rebuild_batch(&mut self, now: f64) -> ((usize, usize), (usize, usize)) {
        self.settle();
        // Landed migrations join the batch at a step boundary: the inbound
        // reservation converts into a regular private footprint (picked up by
        // `sync_private` in `start_step`) the moment the entry starts decoding.
        for (entry, reserved) in self.arriving.drain(..) {
            if let Some(ledger) = self.ledger.as_mut() {
                ledger.commit_inbound(reserved);
            }
            self.running.push(entry);
        }
        if self.config.preemption {
            self.entry_visits += self.running.len() as u64;
            self.preempt_until_fitting(now);
        }
        let admitted = self.try_admit(now);
        self.entry_visits += self.running.len() as u64;
        (admitted, self.batch_footprint())
    }

    /// The run in progress, if any.
    fn active_run(&self) -> Option<&Run> {
        self.run.as_deref().filter(|_| self.in_run)
    }

    /// The batch's `(KV tokens, private blocks)` from the run's sums, if the
    /// run survives this step boundary: nobody waits to join and, under
    /// optimistic admission, the grown batch still fits (the check
    /// `preempt_until_fitting` opens with).
    fn carried_footprint(&self) -> Option<(usize, usize)> {
        let run = self.active_run()?;
        if !self.queue.is_empty() || !self.arriving.is_empty() {
            return None;
        }
        let fits = !self.config.preemption
            || match &self.ledger {
                Some(ledger) => self.blocks_in_use(ledger) <= ledger.capacity_blocks(),
                None => run.kv_tokens <= self.kv_budget,
            };
        fits.then_some((run.kv_tokens, run.private_blocks))
    }

    /// Begins a run on the vanilla step just scheduled over a batch of
    /// `kv_tokens` / `private_blocks`, if every entry qualifies and the step
    /// finishes nobody.
    fn begin_run(&mut self, kv_tokens: usize, private_blocks: usize) {
        let block_size = self.ledger.as_ref().map_or(0, BlockLedger::block_size);
        let run = self.run.get_or_insert_with(Box::default);
        run.residues.clear();
        run.residues.resize(block_size, 0);
        let (mut to_finish, mut outstanding) = (usize::MAX, 0);
        for (i, e) in self.running.iter().enumerate() {
            let remaining = e.remaining();
            if e.first_token_s.is_none() || e.generated.fract() != 0.0 || remaining < 2.0 {
                self.entry_visits += i as u64 + 1;
                return;
            }
            to_finish = to_finish.min(remaining as usize);
            outstanding += remaining as u64;
            if block_size > 0 {
                run.residues[e.private_tokens() % block_size] += 1;
            }
        }
        self.entry_visits += self.running.len() as u64;
        self.in_run = true;
        run.lag = 0;
        run.to_finish = to_finish;
        run.kv_tokens = kv_tokens;
        run.private_blocks = private_blocks;
        run.outstanding = outstanding;
        run.boundary = 0;
    }

    /// Ends the run in progress, if any. The check is all a walked step pays,
    /// so it stays apart from the loop (small enough to inline everywhere).
    fn settle(&mut self) {
        if self.in_run {
            self.write_back_run();
        }
    }

    /// Writes the run's `lag` into the entries and ends the run. Every sum
    /// the run carried must equal a recount.
    fn write_back_run(&mut self) {
        let run = self.run.as_deref().expect("a run has its sums");
        self.in_run = false;
        self.entry_visits += self.running.len() as u64;
        let lag = run.lag as f64;
        for e in &mut self.running {
            e.generated += lag;
        }
        let owed = |e: &RunningEntry| e.remaining() as u64;
        debug_assert_eq!((run.kv_tokens, run.private_blocks), self.batch_footprint());
        debug_assert_eq!(run.outstanding, self.running.iter().map(owed).sum::<u64>());
    }

    /// Chooses and schedules the next step at time `now` (idle if no work).
    fn start_step(&mut self, now: f64) {
        debug_assert!(self.step.is_none());
        let carried = self.carried_footprint();
        let ((prefill_tokens, cached_tokens), (kv_in_use, private_blocks)) = match carried {
            Some(footprint) => ((0, 0), footprint),
            None => self.rebuild_batch(now),
        };
        self.metrics.observe_peaks(self.running.len(), kv_in_use);
        if let Some(ledger) = self.ledger.as_mut() {
            ledger.sync_private(private_blocks);
        }
        if prefill_tokens > 0 {
            // The prefill computes only the novel tokens; resident prefix
            // blocks are re-read by attention but never recomputed.
            let duration = self
                .config
                .cost
                .prefill_time_cached(1, prefill_tokens, cached_tokens)
                * self.slow_factor;
            self.step = Some(PendingStep {
                work: StepWork::Prefill,
                finish_s: now + duration,
                duration_s: duration,
            });
            return;
        }
        if self.running.is_empty() {
            return; // Idle until the next arrival.
        }

        let batch = self.running.len();
        let avg_context = (kv_in_use / batch).max(1);
        // The elastic decision sees the *live load*: requests already decoding plus
        // the backlog that will join the batch as soon as capacity frees up.
        let live_load = batch + self.queue.len();
        let model = SdStepModel {
            cost: &self.config.cost,
            drafter: &self.config.drafter,
            acceptance: &self.config.acceptance,
            model_free_acceptance: &self.config.model_free_acceptance,
        };
        let step = self
            .sd
            .step(&model, live_load, batch, avg_context, self.slow_factor);

        self.metrics.inc_decode_steps();
        if step.speculative || step.tokens_per_seq != 1.0 {
            self.settle();
        } else if carried.is_none() && self.queue.is_empty() {
            self.begin_run(kv_in_use, private_blocks);
        }
        if step.speculative {
            self.metrics.observe_sd_step(step.tokens_per_seq);
            // Quantise for the trace recorder: at least the bonus token is
            // always produced, and the unary SD bitstream caps one step's
            // accept length at 63 tokens.
            let accept = step.tokens_per_seq.round().clamp(1.0, 63.0) as u8;
            match self.sd_accepts.last_mut() {
                Some((value, count)) if *value == accept && *count < u32::MAX => *count += 1,
                _ => self.sd_accepts.push((accept, 1)),
            }
        }
        self.step = Some(PendingStep {
            work: StepWork::Decode {
                tokens_per_seq: step.tokens_per_seq,
                speculative: step.speculative,
            },
            finish_s: now + step.time_s,
            duration_s: step.time_s,
        });
    }

    /// Drains the completed-request records accumulated so far.
    pub fn take_completed(&mut self) -> Vec<CompletedRequest> {
        std::mem::take(&mut self.completed)
    }

    /// Moves the records accumulated so far to the end of `log`, keeping this
    /// replica's buffer for its next step. The simulation drivers call this
    /// after every [`Replica::on_step_complete`], so a completion is written
    /// once here and copied once into the driver's log.
    pub fn move_completed_into(&mut self, log: &mut Vec<CompletedRequest>) {
        log.append(&mut self.completed);
    }

    /// Expected accept length (whole tokens, clamped to `1..=63`) of every
    /// speculative decode step this replica has executed, in step order.
    /// Stored run-length inside (a few entries per change of SD arm, not a
    /// byte per step) and expanded on read.
    pub fn sd_accept_trace(&self) -> impl Iterator<Item = u8> + '_ {
        self.sd_accepts
            .iter()
            .flat_map(|&(value, count)| std::iter::repeat_n(value, count as usize))
    }

    /// Requests dropped at admission.
    pub fn dropped(&self) -> usize {
        self.metrics.dropped() as usize
    }

    /// Ids of the requests dropped at admission (in drop order).
    pub fn dropped_ids(&self) -> &[u64] {
        &self.dropped_ids
    }

    /// Times this replica has crashed.
    pub fn crashes(&self) -> u64 {
        self.metrics.crashes()
    }

    /// Crash-drained requests re-delivered to this replica by the frontend.
    pub fn failovers(&self) -> u64 {
        self.metrics.failovers()
    }

    /// Largest KV-token footprint observed at a step start (post-preemption).
    pub fn peak_kv_tokens(&self) -> usize {
        self.metrics.peak_kv_tokens()
    }

    /// Running entries the step path has visited, a full pass over the batch
    /// at a time: the exact host-cost proxy `tests/event_counts.rs` pins.
    #[doc(hidden)]
    pub fn entry_visits(&self) -> u64 {
        self.entry_visits
    }

    /// The metrics registry backing this replica's accounting.
    pub fn metrics(&self) -> &ReplicaMetrics {
        &self.metrics
    }

    /// KV capacity in blocks (0 under token accounting).
    pub fn kv_block_budget(&self) -> usize {
        self.ledger.as_ref().map_or(0, BlockLedger::capacity_blocks)
    }

    /// Largest number of KV blocks charged at a step start (0 under token
    /// accounting).
    pub fn peak_kv_blocks(&self) -> usize {
        self.ledger
            .as_ref()
            .map_or(0, BlockLedger::peak_in_use_blocks)
    }

    /// Pool accounting snapshot under paged accounting.
    pub fn pool_stats(&self) -> Option<PoolStats> {
        self.ledger.as_ref().map(BlockLedger::stats)
    }

    /// Fraction of admitted prompt tokens served from resident prefix blocks.
    pub fn prefix_hit_rate(&self) -> f64 {
        self.metrics.prefix_hit_rate()
    }

    /// Structural check of the block ledger: shared refcounts must equal the
    /// running entries referencing each prefix, charges must stay within
    /// capacity. `Ok` under token accounting.
    pub fn kv_pool_check(&self) -> Result<(), String> {
        match &self.ledger {
            Some(ledger) => {
                let expected_refs = self.running.iter().filter(|e| e.shared_tokens > 0).count();
                ledger.check_conservation(expected_refs)
            }
            None => Ok(()),
        }
    }

    /// Blocks that are neither free nor reclaimable: private footprints of
    /// running work plus shared groups still referenced. Zero after a full
    /// drain — the pool-leak assertion the chaos matrix enforces.
    pub fn kv_pool_leaked(&self) -> usize {
        match &self.ledger {
            Some(ledger) => {
                let referenced: usize = ledger
                    .shared_groups()
                    .iter()
                    .filter(|g| g.refs > 0)
                    .map(|g| g.blocks)
                    .sum();
                self.private_blocks_in_use(ledger)
                    + referenced
                    + ledger.inbound_blocks()
                    + ledger.outbound_blocks()
            }
            None => 0,
        }
    }

    /// Drains the prefilled sequences awaiting migration to the decode pool
    /// (the buffer keeps its capacity for the next prefill step).
    pub fn drain_handoffs(&mut self) -> std::vec::Drain<'_, MigratedEntry> {
        self.handoffs.drain(..)
    }

    /// Blocks of `prefix_id` resident in this replica's prefix cache (0 under
    /// token accounting) — the affinity signal the cluster router uses.
    pub fn resident_prefix_blocks(&self, prefix_id: u64) -> usize {
        match &self.ledger {
            Some(ledger) if prefix_id != 0 => ledger.resident_blocks_of(prefix_id),
            _ => 0,
        }
    }

    /// Plans the landing of a migrated sequence on this replica without
    /// mutating anything: `Some(blocks)` is the inbound reservation to charge
    /// via [`Replica::reserve_inbound`], `None` means the migration does not
    /// fit right now. `pending_entries` counts migrations already bound for
    /// this replica (reserved or on the wire) so the running-batch cap holds.
    /// Mirrors the paged-admission arithmetic: worst case under conservative
    /// admission, actual footprint under optimistic admission.
    pub fn plan_inbound(&self, entry: &MigratedEntry, pending_entries: usize) -> Option<usize> {
        if !self.up {
            return None;
        }
        let ledger = self.ledger.as_ref()?;
        if self.running.len() + self.arriving.len() + pending_entries
            >= self.config.max_running_requests
        {
            return None;
        }
        let need_tokens = if self.config.preemption {
            entry.req.prompt_len + entry.generated.ceil() as usize
        } else {
            entry.req.prompt_len + self.config.max_output_tokens
        };
        let blocks = ledger.blocks_for(need_tokens);
        let charged = self.reserved_private_blocks(ledger)
            + ledger.shared_blocks()
            + ledger.inbound_blocks()
            + ledger.outbound_blocks();
        (charged + blocks <= ledger.capacity_blocks()).then_some(blocks)
    }

    /// Charges an inbound migration reservation (from [`Replica::plan_inbound`])
    /// while the transfer is on the wire.
    pub fn reserve_inbound(&mut self, blocks: usize) {
        self.ledger
            .as_mut()
            .expect("paged accounting")
            .reserve_inbound(blocks);
    }

    /// Releases an inbound reservation whose transfer was aborted. A crash
    /// already wiped the ledger, so this is only for a live destination losing
    /// its *source* mid-transfer.
    pub fn cancel_inbound(&mut self, blocks: usize) {
        self.ledger
            .as_mut()
            .expect("paged accounting")
            .cancel_inbound(blocks);
    }

    /// Releases the source-side outbound charge once its transfer lands.
    pub fn complete_outbound(&mut self, blocks: usize) {
        self.ledger
            .as_mut()
            .expect("paged accounting")
            .complete_outbound(blocks);
    }

    /// Restarts the step loop if the replica sits idle with work. A prefill
    /// replica that handed off its whole batch can go idle with a non-empty
    /// queue when admission is blocked by its own outbound charges; the
    /// cluster kicks it when a landed transfer (or an autoscaler undrain)
    /// frees that capacity, since no step-completion event would.
    pub fn kick(&mut self, now: f64) {
        if self.up && self.step.is_none() && self.has_work() {
            self.start_step(now);
        }
    }

    /// Frees what only a stepping replica needs — the queue and batch
    /// buffers, the (already collected) completion buffer and the SD tuner's
    /// windows — of an empty replica that will never step again: a retired
    /// pool member stays until the report with what the report, the pool
    /// checks, `dropped_ids`, `sd_accept_trace` and fault calls read. The
    /// config copy stays too: dropping it would put an `Option` on a field
    /// every step reads.
    pub fn release_buffers(&mut self) {
        debug_assert!(!self.has_work(), "only an empty replica is released");
        self.queue = VecDeque::new();
        self.running = Vec::new();
        self.handoffs = Vec::new();
        self.arriving = Vec::new();
        self.run = None;
        self.completed.shrink_to_fit();
        self.sd = SdStepEvaluator::new(&SdMode::Disabled, 0);
    }

    /// Lands a migrated sequence: it joins the batch at the next step boundary
    /// with zero recompute (`prefill_pending` stays false), converting the
    /// `reserved_blocks` charged at transfer start into its private footprint.
    pub fn deliver_migrated(&mut self, entry: MigratedEntry, reserved_blocks: usize, now: f64) {
        debug_assert!(self.up, "migrations only land on live replicas");
        let kv_tokens = entry.req.prompt_len + entry.generated.ceil() as usize;
        self.metrics.inc_migrations_in();
        // The admission event of a migrated sequence: zero novel tokens to
        // compute, the whole context arrives materialised over the wire.
        record(
            ObsEvent::instant(now, self.track(), EventKind::Admission, entry.req.id)
                .with_args(0.0, kv_tokens as f64),
        );
        let running = RunningEntry {
            req: entry.req,
            generated: entry.generated,
            first_token_s: None,
            admitted_s: entry.admitted_s,
            preemptions: entry.preemptions,
            prefill_pending: false,
            admit_seq: self.admit_seq,
            shared_tokens: 0,
        };
        self.admit_seq += 1;
        self.arriving.push((running, reserved_blocks));
        if self.step.is_none() {
            self.start_step(now);
        }
    }

    /// Final accounting for this replica; `makespan_s` normalises utilisation.
    pub fn stats(&self, makespan_s: f64) -> ReplicaStats {
        let busy_s = self.metrics.busy_s();
        ReplicaStats {
            replica: self.index,
            completed: self.metrics.completed() as usize,
            dropped: self.metrics.dropped() as usize,
            busy_s,
            utilization: if makespan_s > 0.0 {
                (busy_s / makespan_s).min(1.0)
            } else {
                0.0
            },
            sd_step_fraction: self.metrics.sd_step_fraction(),
            mean_accept_length: self.metrics.mean_accept_length_or(1.0),
            preemptions: self.metrics.preemptions(),
            failovers: self.metrics.failovers(),
            crashes: self.metrics.crashes(),
            peak_running: self.metrics.peak_running(),
            peak_kv_tokens: self.metrics.peak_kv_tokens(),
            kv_block_budget: self.kv_block_budget(),
            peak_kv_blocks: self.peak_kv_blocks(),
            pool_utilization: self.ledger.as_ref().map_or(0.0, BlockLedger::utilization),
            prefix_hit_rate: self.prefix_hit_rate(),
            migrations_out: self.metrics.migrations_out(),
            migrations_in: self.metrics.migrations_in(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlt_gpusim::{GpuType, LlmCostModel};
    use tlt_model::ModelSpec;

    fn config() -> ServeConfig {
        ServeConfig::new(
            LlmCostModel::new(ModelSpec::qwen2_5_7b(), GpuType::H100.spec(), 1),
            1,
        )
    }

    fn request(id: u64, arrival_s: f64, prompt: usize, output: usize) -> ServeRequest {
        ServeRequest {
            id,
            arrival_s,
            prompt_len: prompt,
            output_len: output,
            prefix_id: 0,
            prefix_len: 0,
        }
    }

    fn drain(replica: &mut Replica) -> f64 {
        let mut now = 0.0;
        let mut guard = 0;
        while replica.has_work() {
            now = replica.next_event_s();
            replica.on_step_complete(now);
            guard += 1;
            assert!(guard < 1_000_000, "runaway replica simulation");
        }
        now
    }

    #[test]
    #[should_panic(expected = "paged KV block size must be non-zero")]
    fn a_zero_block_size_set_through_the_pub_field_panics_at_construction() {
        let mut cfg = config();
        cfg.kv_accounting = KvAccounting::Paged { block_size: 0 };
        let _ = Replica::new(&cfg, 0);
    }

    #[test]
    fn single_request_runs_prefill_then_decode_to_completion() {
        let mut replica = Replica::new(&config(), 0);
        replica.enqueue(request(0, 0.0, 512, 16), 0.0);
        let end = drain(&mut replica);
        let completed = replica.take_completed();
        assert_eq!(completed.len(), 1);
        let r = completed[0];
        assert_eq!(r.output_len, 16);
        assert!(r.first_token_s > 0.0, "prefill takes time");
        assert!(r.finish_s > r.first_token_s);
        assert!((r.finish_s - end).abs() < 1e-12);
        // 16 vanilla decode steps at ~5 ms each: finish within a second.
        assert!(r.finish_s < 1.0, "finish at {}", r.finish_s);
    }

    #[test]
    fn ttft_includes_queueing_behind_the_running_batch() {
        let mut replica = Replica::new(&config(), 0);
        replica.enqueue(request(0, 0.0, 512, 64), 0.0);
        // Second request arrives while the first is mid-flight.
        let t1 = replica.next_event_s();
        replica.on_step_complete(t1);
        replica.enqueue(request(1, t1, 512, 8), t1);
        drain(&mut replica);
        let completed = replica.take_completed();
        assert_eq!(completed.len(), 2);
        let second = completed.iter().find(|r| r.id == 1).expect("request 1");
        assert!(second.ttft_s() > 0.0);
        assert!(second.admitted_s >= t1);
    }

    #[test]
    fn conservative_admission_respects_kv_budget() {
        let mut cfg = config();
        // Shrink the budget so only a handful of worst-case requests fit at once.
        cfg.kv_memory_fraction = 0.25;
        cfg.max_output_tokens = 16_384;
        let per_request = 512 + cfg.max_output_tokens;
        let fit = cfg.kv_token_budget() / per_request;
        assert!(
            (1..64).contains(&fit),
            "test needs a tight budget, fit={fit}"
        );
        let mut replica = Replica::new(&cfg, 0);
        for i in 0..(fit + 8) as u64 {
            replica.enqueue(request(i, 0.0, 512, 4), 0.0);
        }
        // After the first admission round, at most `fit` requests run at once.
        assert!(replica.running.len() <= fit);
        drain(&mut replica);
        assert_eq!(replica.take_completed().len(), fit + 8);
        assert!(replica.metrics().peak_running() <= fit);
    }

    #[test]
    fn output_len_is_clamped_to_the_deployment_cap() {
        let mut cfg = config();
        cfg.max_output_tokens = 32;
        let mut replica = Replica::new(&cfg, 0);
        // Asks for far more tokens than the cap allows.
        replica.enqueue(request(0, 0.0, 128, 10_000), 0.0);
        drain(&mut replica);
        let completed = replica.take_completed();
        assert_eq!(completed.len(), 1);
        assert_eq!(completed[0].output_len, 32);
        assert!(replica.peak_kv_tokens() <= 128 + 32);
    }

    #[test]
    fn impossible_request_is_dropped_not_wedged() {
        let mut cfg = config();
        cfg.kv_memory_fraction = 0.25;
        cfg.max_output_tokens = 16_384;
        let budget = cfg.kv_token_budget();
        let mut replica = Replica::new(&cfg, 0);
        // A prompt larger than the whole budget can never be admitted.
        replica.enqueue(request(0, 0.0, budget + 1, 4), 0.0);
        replica.enqueue(request(1, 0.0, 512, 4), 0.0);
        drain(&mut replica);
        assert_eq!(replica.dropped(), 1);
        let completed = replica.take_completed();
        assert_eq!(completed.len(), 1);
        assert_eq!(completed[0].id, 1);
    }

    #[test]
    fn preemption_evicts_most_recent_first() {
        // Pins the eviction policy: victims are chosen by descending admission
        // sequence, survivors keep their batch order, and the queue front holds
        // the victims in ascending admission order (so the earliest-admitted
        // victim is re-admitted first).
        let mut replica = Replica::new(&config().with_preemption(), 0);
        replica.kv_budget = 3_000;
        for (seq, id) in [(0u64, 10u64), (1, 11), (2, 12), (3, 13)] {
            replica.running.push(RunningEntry {
                req: request(id, 0.0, 1_000, 64),
                generated: 0.0,
                first_token_s: Some(0.5),
                admitted_s: 0.1,
                preemptions: 0,
                prefill_pending: false,
                admit_seq: seq,
                shared_tokens: 0,
            });
        }
        // 4 x 1000 KV tokens against a 3000 budget: exactly one eviction, and it
        // must be the most recently admitted entry.
        replica.preempt_until_fitting(0.0);
        assert_eq!(replica.running.len(), 3);
        let seqs: Vec<u64> = replica.running.iter().map(|e| e.admit_seq).collect();
        assert_eq!(seqs, vec![0, 1, 2], "survivors keep batch order");
        assert_eq!(replica.queue.len(), 1);
        assert_eq!(replica.queue[0].req.id, 13);
        assert_eq!(replica.queue[0].preemptions, 1);

        // Tighten the budget: two more evictions (seq 2 then seq 1); the queue
        // front ends up ascending by admission sequence, ahead of request 13.
        replica.kv_budget = 1_000;
        replica.preempt_until_fitting(0.0);
        assert_eq!(replica.running.len(), 1);
        assert_eq!(replica.running[0].admit_seq, 0);
        let ids: Vec<u64> = replica.queue.iter().map(|e| e.req.id).collect();
        assert_eq!(ids, vec![11, 12, 13]);
        assert_eq!(replica.metrics().preemptions(), 3);
    }

    #[test]
    fn preemption_evicts_and_resumes_under_kv_pressure() {
        let mut cfg = config().with_preemption();
        cfg.kv_memory_fraction = 0.25;
        // Optimistic admission: everything fits at prompt size, but decoding to
        // 16K tokens each must overflow the budget and trigger evictions.
        cfg.max_output_tokens = 16_384;
        let budget = cfg.kv_token_budget();
        let n = (budget / 5_000).max(4) as u64;
        let mut replica = Replica::new(&cfg, 0);
        for i in 0..n {
            replica.enqueue(request(i, 0.0, 1_024, 16_384), 0.0);
        }
        drain(&mut replica);
        let completed = replica.take_completed();
        assert_eq!(
            completed.len(),
            n as usize,
            "all requests finish eventually"
        );
        assert!(
            replica.metrics().preemptions() > 0,
            "KV pressure must trigger preemption"
        );
        assert!(completed.iter().any(|r| r.preemptions > 0));
    }

    #[test]
    fn adaptive_sd_speeds_up_a_small_batch() {
        use tlt_rollout::SdManagerConfig;
        let requests: Vec<ServeRequest> = (0..4).map(|i| request(i, 0.0, 512, 256)).collect();
        let run = |cfg: &ServeConfig| {
            let mut replica = Replica::new(cfg, 0);
            for r in &requests {
                replica.enqueue(*r, 0.0);
            }
            drain(&mut replica)
        };
        let vanilla_end = run(&config());
        let sd_end = run(&config().with_sd_mode(SdMode::Adaptive {
            config: SdManagerConfig::default(),
        }));
        assert!(
            sd_end < vanilla_end * 0.7,
            "SD should speed up small batches: {sd_end} vs {vanilla_end}"
        );
    }

    #[test]
    fn zero_token_request_is_clamped_and_still_prefills() {
        // Regression: a zero-length prompt used to be admitted with a 0-token
        // prefill, skipping the prefill step entirely and leaving the entry
        // `prefill_pending` through its whole decode. Both dimensions now clamp
        // to one token, so the request goes through a real prefill and completes
        // exactly once.
        let mut replica = Replica::new(&config(), 0);
        replica.enqueue(request(0, 0.0, 0, 0), 0.0);
        drain(&mut replica);
        let completed = replica.take_completed();
        assert_eq!(completed.len(), 1);
        assert_eq!(completed[0].prompt_len, 1);
        assert_eq!(completed[0].output_len, 1);
        assert!(completed[0].first_token_s > 0.0, "a prefill step ran");
        assert!(completed[0].finish_s >= completed[0].first_token_s);
    }

    #[test]
    fn preemption_during_prefill_returns_victim_to_queue_cleanly() {
        // Regression: a victim evicted while its admitting prefill is still
        // pending must go back to the queue with no first-token timestamp (it
        // never produced one) and its original admission time preserved, so it
        // re-prefills from scratch on re-admission.
        let mut replica = Replica::new(&config().with_preemption(), 0);
        replica.kv_budget = 1_500;
        for (seq, id) in [(0u64, 20u64), (1, 21)] {
            replica.running.push(RunningEntry {
                req: request(id, 0.0, 1_000, 64),
                generated: 0.0,
                first_token_s: None,
                admitted_s: 0.25,
                preemptions: 0,
                prefill_pending: seq == 1,
                admit_seq: seq,
                shared_tokens: 0,
            });
        }
        replica.preempt_until_fitting(0.0);
        assert_eq!(replica.running.len(), 1);
        assert_eq!(replica.running[0].req.id, 20);
        assert_eq!(replica.queue.len(), 1);
        let victim = &replica.queue[0];
        assert_eq!(victim.req.id, 21);
        assert_eq!(victim.first_token_s, None);
        assert_eq!(victim.admitted_s, Some(0.25));
        assert_eq!(victim.preemptions, 1);
        assert_eq!(victim.prefill_tokens(), 1_000, "re-prefills from scratch");
    }

    #[test]
    fn restart_with_a_non_empty_queue_starts_work_immediately() {
        // Regression: requests enqueued while the replica is down must start as
        // soon as the replica restarts, not wait for the next enqueue.
        let mut replica = Replica::new(&config(), 0);
        let drained = replica.crash(0.0);
        assert!(drained.is_empty());
        replica.enqueue(request(0, 0.5, 256, 8), 0.5);
        assert_eq!(
            replica.next_event_s(),
            f64::MAX,
            "down replica schedules nothing"
        );
        replica.restart(1.0);
        assert!(
            replica.next_event_s() < f64::MAX,
            "restart kicks the queued work"
        );
        drain(&mut replica);
        let completed = replica.take_completed();
        assert_eq!(completed.len(), 1);
        assert!(completed[0].admitted_s >= 1.0);
    }

    #[test]
    fn crash_drains_everything_preserving_progress_and_order() {
        let mut replica = Replica::new(&config(), 0);
        replica.enqueue(request(0, 0.0, 256, 64), 0.0);
        replica.enqueue(request(1, 0.0, 256, 64), 0.0);
        // Three events: prefill of request 0, prefill of request 1 (admitted
        // after the first prefill), then one decode step committing a token to
        // both.
        let t1 = replica.next_event_s();
        replica.on_step_complete(t1);
        let t2 = replica.next_event_s();
        replica.on_step_complete(t2);
        let t3 = replica.next_event_s();
        replica.on_step_complete(t3);
        let drained = replica.crash(t3 + 0.001);
        assert!(!replica.is_up());
        assert_eq!(replica.crashes(), 1);
        assert_eq!(drained.len(), 2);
        assert_eq!(
            drained.iter().map(|f| f.req.id).collect::<Vec<_>>(),
            vec![0, 1],
            "running batch drains in admission order"
        );
        let first_tokens = [Some(t1), Some(t2)];
        for (fo, expected_first) in drained.iter().zip(first_tokens) {
            assert_eq!(fo.generated, 1.0, "streamed tokens keep their credit");
            assert_eq!(fo.first_token_s, expected_first);
            assert_eq!(fo.preemptions, 1, "crash counts as a forced recompute");
        }
        // Failover onto a fresh replica completes both with original timestamps.
        let mut survivor = Replica::new(&config(), 1);
        for fo in drained {
            survivor.enqueue_failover(fo, t3 + 0.001);
        }
        drain(&mut survivor);
        let completed = survivor.take_completed();
        assert_eq!(completed.len(), 2);
        for (r, expected_first) in completed.iter().zip(first_tokens) {
            assert_eq!(
                Some(r.first_token_s),
                expected_first,
                "original first-token time preserved"
            );
            assert_eq!(r.output_len, 64);
            assert_eq!(r.preemptions, 1);
        }
    }

    #[test]
    fn crash_during_prefill_drains_pending_entries_without_first_token() {
        let mut replica = Replica::new(&config(), 0);
        replica.enqueue(request(7, 0.0, 512, 16), 0.0);
        // The prefill step is in flight; crash before it completes.
        assert!(replica.next_event_s() < f64::MAX);
        let drained = replica.crash(0.001);
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].first_token_s, None);
        assert_eq!(drained[0].generated, 0.0);
        assert_eq!(replica.next_event_s(), f64::MAX, "in-flight step aborted");
    }

    #[test]
    fn slow_factor_stretches_the_whole_run_proportionally() {
        let run = |factor: f64| {
            let mut replica = Replica::new(&config(), 0);
            replica.set_slow_factor(factor);
            replica.enqueue(request(0, 0.0, 512, 32), 0.0);
            drain(&mut replica)
        };
        let normal = run(1.0);
        let slowed = run(3.0);
        assert!(
            (slowed - 3.0 * normal).abs() < 1e-9 * slowed.max(1.0),
            "3x straggler: {slowed} vs 3 x {normal}"
        );
    }

    #[test]
    fn optimistic_admission_drops_requests_that_can_never_fit_alone() {
        // Regression: under optimistic admission a request whose prompt fits but
        // whose full footprint exceeds the entire budget used to be admitted and
        // then grow past the KV budget with nothing left to preempt.
        let mut cfg = config().with_preemption();
        cfg.kv_memory_fraction = 0.25;
        cfg.max_output_tokens = usize::MAX >> 1;
        let budget = cfg.kv_token_budget();
        let mut replica = Replica::new(&cfg, 0);
        replica.enqueue(request(0, 0.0, 512, budget + 1), 0.0);
        replica.enqueue(request(1, 0.0, 512, 128), 0.0);
        drain(&mut replica);
        assert_eq!(replica.dropped(), 1);
        assert_eq!(replica.dropped_ids(), &[0]);
        let completed = replica.take_completed();
        assert_eq!(completed.len(), 1);
        assert_eq!(completed[0].id, 1);
        assert!(replica.peak_kv_tokens() <= budget);
    }

    fn prefixed_request(id: u64, prompt: usize, prefix: usize, output: usize) -> ServeRequest {
        ServeRequest {
            id,
            arrival_s: 0.0,
            prompt_len: prompt,
            output_len: output,
            prefix_id: 1,
            prefix_len: prefix,
        }
    }

    #[test]
    fn shared_prefix_admits_strictly_more_at_a_fixed_block_budget() {
        // The capacity win, pinned: at the same block budget, a workload whose
        // requests share a system prompt admits strictly more concurrent
        // requests than one with disjoint prompts — and never exceeds the
        // pool. (Conservative admission; shared blocks charged once.)
        let mut cfg = config().with_paged_kv(16);
        cfg.kv_memory_fraction = 0.25;
        cfg.max_output_tokens = 2048;
        let budget = cfg.kv_block_budget();
        assert!(
            budget > 256,
            "test needs a budget over 256 blocks: {budget}"
        );

        let run = |shared: bool| {
            let mut replica = Replica::new(&cfg, 0);
            let n = (budget / 64 + 16) as u64;
            for i in 0..n {
                let req = if shared {
                    prefixed_request(i, 2048, 2048, 64)
                } else {
                    request(i, 0.0, 2048, 64)
                };
                replica.enqueue(req, 0.0);
            }
            drain(&mut replica);
            assert_eq!(replica.take_completed().len(), n as usize);
            assert!(
                replica.peak_kv_blocks() <= replica.kv_block_budget(),
                "pool exceeded: {} > {}",
                replica.peak_kv_blocks(),
                replica.kv_block_budget()
            );
            assert!(replica.kv_pool_check().is_ok());
            assert_eq!(replica.kv_pool_leaked(), 0, "blocks leaked after drain");
            (replica.metrics().peak_running(), replica.prefix_hit_rate())
        };
        let (disjoint_admitted, disjoint_hits) = run(false);
        let (shared_admitted, shared_hits) = run(true);
        assert!(
            shared_admitted > disjoint_admitted,
            "sharing must admit strictly more: {shared_admitted} vs {disjoint_admitted}"
        );
        assert_eq!(disjoint_hits, 0.0);
        assert!(
            shared_hits > 0.0,
            "later admissions hit the resident prefix"
        );
    }

    #[test]
    fn resident_prefix_shortens_the_second_requests_prefill() {
        // First request of a prefix group pays the full prefill and leaves the
        // blocks resident; the next request prefills only its novel tokens.
        let cfg = config().with_paged_kv(16);
        let mut replica = Replica::new(&cfg, 0);
        replica.enqueue(prefixed_request(0, 1024, 1024, 4), 0.0);
        let t_first_prefill = replica.next_event_s();
        drain(&mut replica);
        let cold = replica.take_completed();
        assert_eq!(cold.len(), 1);

        // Same replica, same prompt shape: the prefix is now resident.
        let arrive = replica.next_event_s().min(10.0);
        replica.enqueue(prefixed_request(1, 1024, 1024, 4), arrive);
        let warm_prefill = replica.next_event_s() - arrive;
        drain(&mut replica);
        let warm = replica.take_completed();
        assert_eq!(warm.len(), 1);
        assert!(
            warm_prefill < (t_first_prefill - 0.0) * 0.5,
            "warm prefill {warm_prefill} should be far below cold {t_first_prefill}"
        );
        assert!(replica.prefix_hit_rate() > 0.0);
        let stats = replica.stats(10.0);
        assert!(stats.pool_utilization > 0.0 && stats.pool_utilization <= 1.0);
        assert!(stats.prefix_hit_rate > 0.0);
    }

    #[test]
    fn growing_prefix_charges_the_extension_and_reuses_only_resident_blocks() {
        // Regression: prefix lengths are clamped per request, so one group id
        // can carry different full-block counts. A longer prefix must charge
        // (and prefill) the blocks beyond what is resident — reusing only the
        // materialised part — instead of treating the whole prefix as cached.
        let cfg = config().with_paged_kv(16);
        let mut replica = Replica::new(&cfg, 0);
        replica.enqueue(prefixed_request(0, 256, 256, 4), 0.0);
        drain(&mut replica);
        assert_eq!(replica.take_completed().len(), 1);
        assert_eq!(
            replica.pool_stats().expect("paged").in_use_blocks,
            16,
            "short prefix leaves 16 blocks resident"
        );

        replica.enqueue(prefixed_request(1, 768, 768, 4), 100.0);
        drain(&mut replica);
        assert_eq!(replica.take_completed().len(), 1);
        // Only the resident 256 tokens were reusable; the 512-token extension
        // was computed by the second request's own prefill.
        let expected_hit = 256.0 / (256.0 + 768.0);
        assert!(
            (replica.prefix_hit_rate() - expected_hit).abs() < 1e-9,
            "hit rate {} should count only resident blocks ({expected_hit})",
            replica.prefix_hit_rate()
        );
        assert_eq!(
            replica.pool_stats().expect("paged").in_use_blocks,
            48,
            "the group grew to the longer prefix"
        );
        assert!(replica.kv_pool_check().is_ok());
    }

    #[test]
    fn prefix_cache_survives_steps_without_pressure_under_preemption() {
        // Regression: the resident prefix cache is reclaimed only under
        // actual pool pressure — an idle, nearly empty replica must not wipe
        // it at every step start just because preemption is enabled.
        let cfg = config().with_preemption().with_paged_kv(16);
        let mut replica = Replica::new(&cfg, 0);
        replica.enqueue(prefixed_request(0, 256, 256, 4), 0.0);
        drain(&mut replica);
        assert_eq!(
            replica.pool_stats().expect("paged").in_use_blocks,
            16,
            "group stays resident with no pressure"
        );
        replica.enqueue(prefixed_request(1, 256, 256, 4), 50.0);
        drain(&mut replica);
        assert!(
            replica.prefix_hit_rate() > 0.0,
            "the second request hits the surviving cache"
        );
    }

    #[test]
    fn paged_preemption_under_pressure_completes_everything_within_the_pool() {
        let mut cfg = config().with_preemption().with_paged_kv(16);
        cfg.kv_memory_fraction = 0.25;
        cfg.max_output_tokens = 16_384;
        let budget = cfg.kv_block_budget();
        let n = ((budget * 16) / 5_000).max(4) as u64;
        let mut replica = Replica::new(&cfg, 0);
        for i in 0..n {
            let mut req = prefixed_request(i, 1_024, 512, 16_384);
            req.arrival_s = 0.0;
            replica.enqueue(req, 0.0);
        }
        drain(&mut replica);
        let completed = replica.take_completed();
        assert_eq!(completed.len(), n as usize, "all requests finish");
        assert!(
            replica.metrics().preemptions() > 0,
            "KV pressure must preempt"
        );
        assert!(replica.peak_kv_blocks() <= replica.kv_block_budget());
        assert!(replica.kv_pool_check().is_ok());
        assert_eq!(replica.kv_pool_leaked(), 0);
    }

    #[test]
    fn crash_frees_every_block_including_the_prefix_cache() {
        let cfg = config().with_paged_kv(16);
        let mut replica = Replica::new(&cfg, 0);
        replica.enqueue(prefixed_request(0, 1024, 1024, 64), 0.0);
        replica.enqueue(prefixed_request(1, 1024, 1024, 64), 0.0);
        let t = replica.next_event_s();
        replica.on_step_complete(t);
        assert!(replica.pool_stats().expect("paged").in_use_blocks > 0);
        let drained = replica.crash(t + 0.01);
        assert_eq!(drained.len(), 2);
        assert_eq!(
            replica.pool_stats().expect("paged").in_use_blocks,
            0,
            "crash frees private and resident blocks alike"
        );
        assert_eq!(replica.kv_pool_leaked(), 0);
        assert!(replica.kv_pool_check().is_ok());
    }

    #[test]
    fn replica_is_deterministic() {
        use tlt_rollout::SdManagerConfig;
        let cfg = config().with_sd_mode(SdMode::Adaptive {
            config: SdManagerConfig::default(),
        });
        let run = || {
            let mut replica = Replica::new(&cfg, 3);
            for i in 0..16 {
                replica.enqueue(request(i, i as f64 * 0.01, 256, 64), i as f64 * 0.01);
                while replica.next_event_s() < (i + 1) as f64 * 0.01 {
                    let t = replica.next_event_s();
                    replica.on_step_complete(t);
                }
            }
            let end = drain(&mut replica);
            (end, replica.take_completed())
        };
        let (end_a, completed_a) = run();
        let (end_b, completed_b) = run();
        assert_eq!(end_a, end_b);
        assert_eq!(completed_a, completed_b);
    }

    #[test]
    fn inbound_migration_reservation_blocks_admission_until_released() {
        // Pinned regression for in-flight-migration-aware admission: blocks
        // reserved for a transfer still on the wire must be invisible to the
        // admission planner, so a landing mid-step can never over-commit the
        // pool. Before the fix, `plan_paged_admission` ignored the inbound
        // charge and handed the same blocks to a queued request.
        let cfg = config().with_paged_kv(16).with_preemption();
        let mut replica = Replica::new(&cfg, 0);
        let budget = replica.kv_block_budget();
        assert!(budget > 8, "test needs a few blocks of headroom");
        // A migration big enough to leave fewer blocks than the next request
        // needs (under optimistic admission a 64+16 request takes 5 blocks).
        let inbound = MigratedEntry {
            req: request(100, 0.0, (budget - 2) * 16, 16),
            generated: 0.0,
            admitted_s: 0.0,
            preemptions: 0,
            source_blocks: budget - 2,
            wire_blocks: budget - 2,
        };
        let reserved = replica
            .plan_inbound(&inbound, 0)
            .expect("migration fits an empty replica");
        assert_eq!(reserved, budget - 2);
        replica.reserve_inbound(reserved);
        replica.enqueue(request(0, 0.0, 64, 16), 0.0);
        let load = replica.load();
        assert_eq!(
            (load.running, load.queued),
            (0, 1),
            "the reservation must block admission"
        );
        // A second migration that would overflow must be refused outright.
        assert_eq!(replica.plan_inbound(&inbound, 0), None);
        // Releasing the reservation (the transfer aborted) frees the blocks.
        replica.cancel_inbound(reserved);
        replica.enqueue(request(1, 0.1, 64, 16), 0.1);
        let load = replica.load();
        assert_eq!((load.running, load.queued), (2, 0));
        drain(&mut replica);
        assert_eq!(replica.kv_pool_leaked(), 0);
        assert_eq!(replica.take_completed().len(), 2);
    }

    #[test]
    fn prefill_only_replica_hands_off_after_prefill() {
        let cfg = config().with_paged_kv(16);
        let mut replica = Replica::new(&cfg, 0);
        replica.set_prefill_only(true);
        replica.enqueue(request(0, 0.0, 256, 64), 0.0);
        let t = replica.next_event_s();
        assert!(t.is_finite());
        replica.on_step_complete(t);
        let handoffs: Vec<_> = replica.drain_handoffs().collect();
        assert_eq!(handoffs.len(), 1);
        let m = &handoffs[0];
        assert_eq!(m.req.id, 0);
        assert_eq!(m.wire_blocks, 256usize.div_ceil(16));
        assert_eq!(m.source_blocks, m.wire_blocks, "no shared prefix");
        // The handed-off KV stays charged as outbound until the wire copy
        // lands; completing the transfer frees it.
        let stats = replica.pool_stats().expect("paged");
        assert_eq!(stats.in_use_blocks, m.source_blocks);
        assert!(replica.take_completed().is_empty(), "prefill never decodes");
        replica.complete_outbound(m.source_blocks);
        assert_eq!(replica.pool_stats().expect("paged").in_use_blocks, 0);
        assert_eq!(replica.kv_pool_leaked(), 0);
    }

    #[test]
    fn migrated_entry_decodes_with_zero_recompute() {
        let cfg = config().with_paged_kv(16);
        let mut replica = Replica::new(&cfg, 0);
        let entry = MigratedEntry {
            req: request(7, 0.0, 256, 32),
            generated: 0.0,
            admitted_s: 0.05,
            preemptions: 0,
            source_blocks: 16,
            wire_blocks: 16,
        };
        let reserved = replica.plan_inbound(&entry, 0).expect("fits");
        replica.reserve_inbound(reserved);
        replica.deliver_migrated(entry, reserved, 0.2);
        // The first step is a decode, not a prefill: zero recompute.
        let t1 = replica.next_event_s();
        assert!(t1.is_finite());
        let end = drain(&mut replica);
        let completed = replica.take_completed();
        assert_eq!(completed.len(), 1);
        let r = &completed[0];
        assert_eq!(r.preemptions, 0);
        assert_eq!(r.admitted_s, 0.05, "prefill-side admission time is kept");
        assert_eq!(
            r.first_token_s, t1,
            "first token at the first decode commit"
        );
        assert!(end > 0.2);
        assert_eq!(replica.kv_pool_leaked(), 0);
        assert!(replica.kv_pool_check().is_ok());
    }

    /// SplitMix64: the differential test's op stream.
    struct OpRng(u64);

    impl OpRng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// Everything a driver can observe of twin replicas is equal.
    fn assert_twins_agree(a: &mut Replica, b: &mut Replica, now: f64, what: &str) {
        assert_eq!(
            a.next_event_s().to_bits(),
            b.next_event_s().to_bits(),
            "{what}"
        );
        assert_eq!(a.load(), b.load(), "{what}");
        assert_eq!(a.take_completed(), b.take_completed(), "{what}");
        assert_eq!(a.kv_pool_check(), Ok(()), "{what}");
        assert_eq!(b.kv_pool_check(), Ok(()), "{what}");
        assert_eq!(a.kv_pool_leaked(), b.kv_pool_leaked(), "{what}");
        assert_eq!(a.stats(now), b.stats(now), "{what}");
        assert_eq!(a.dropped_ids(), b.dropped_ids(), "{what}");
    }

    /// Feeds twin replicas one random op sequence; `b` settles before every
    /// step completion, so it never carries a step. Returns the steps `a`
    /// carried and its final accounting.
    fn run_twins(cfg: &ServeConfig, fractional: bool, seed: u64) -> (usize, ReplicaStats) {
        let (mut a, mut b) = (Replica::new(cfg, 0), Replica::new(cfg, 0));
        let mut rng = OpRng(seed);
        let (mut now, mut next_id, mut carried) = (0.0f64, 0u64, 0usize);
        let mut failovers: Vec<FailoverRequest> = Vec::new();
        // A fractional `generated` is what an SD replica hands over. One token
        // and five ulps is the value that tells a carried run from a walked
        // one: adding 1.0 seven times rounds it down, adding 7.0 once rounds up.
        let progress = |rng: &mut OpRng, output: usize| {
            if fractional && rng.below(2) == 0 {
                f64::from_bits(1.0f64.to_bits() + 5)
            } else {
                rng.below(output) as f64
            }
        };
        for op in 0..4_000 {
            let roll = rng.below(100);
            // Ops land between the last event and the next, as a driver's do.
            let t = match a.next_event_s() {
                next if next < f64::MAX => now + (next - now) * (rng.below(4) as f64 / 4.0),
                _ => now + 0.01,
            };
            let mut fresh = |rng: &mut OpRng| {
                next_id += 1;
                let prompt = if rng.below(100) == 0 {
                    5_000
                } else {
                    40 + rng.below(400)
                };
                let mut req = request(next_id, t, prompt, 1 + rng.below(200));
                if rng.below(3) == 0 {
                    req.prefix_id = 1 + rng.below(2) as u64;
                    req.prefix_len = rng.below(300);
                }
                req
            };
            let what = format!("seed {seed} op {op} roll {roll}");
            match roll {
                0..=59 => {
                    // A quiet stretch: up to eight steps with nothing between.
                    for _ in 0..=rng.below(8) {
                        if a.next_event_s() == f64::MAX {
                            break;
                        }
                        now = a.next_event_s();
                        let carries = |run: &Run| run.lag + 1 < run.to_finish;
                        carried += usize::from(a.active_run().is_some_and(carries));
                        a.on_step_complete(now);
                        b.settle();
                        b.on_step_complete(now);
                        assert_twins_agree(&mut a, &mut b, now, &what);
                    }
                }
                60..=74 => {
                    let req = fresh(&mut rng);
                    a.enqueue(req, t);
                    b.enqueue(req, t);
                }
                75..=82 if a.is_up() => {
                    let req = fresh(&mut rng);
                    let entry = MigratedEntry {
                        req,
                        generated: progress(&mut rng, req.output_len),
                        admitted_s: t,
                        preemptions: 0,
                        source_blocks: 0,
                        wire_blocks: 0,
                    };
                    let plan = a.plan_inbound(&entry, 0);
                    assert_eq!(plan, b.plan_inbound(&entry, 0), "{what}");
                    if let Some(blocks) = plan {
                        for r in [&mut a, &mut b] {
                            r.reserve_inbound(blocks);
                            // One reservation in four is an aborted transfer.
                            if roll == 75 {
                                r.cancel_inbound(blocks);
                            } else {
                                r.deliver_migrated(entry, blocks, t);
                            }
                        }
                    }
                }
                83..=84 if a.is_up() => {
                    let drained = a.crash(t);
                    assert_eq!(drained, b.crash(t), "{what}");
                    failovers.extend(drained);
                }
                85..=88 if !a.is_up() => {
                    a.restart(t);
                    b.restart(t);
                }
                89..=93 => {
                    let fo = failovers.pop().unwrap_or_else(|| {
                        let req = fresh(&mut rng);
                        FailoverRequest {
                            req,
                            generated: progress(&mut rng, req.output_len),
                            first_token_s: Some(t),
                            admitted_s: Some(t),
                            preemptions: 1,
                        }
                    });
                    a.enqueue_failover(fo, t);
                    b.enqueue_failover(fo, t);
                }
                94..=96 => {
                    let factor = [1.0, 1.5, 3.0][rng.below(3)];
                    a.set_slow_factor(factor);
                    b.set_slow_factor(factor);
                }
                _ => {
                    a.kick(t);
                    b.kick(t);
                }
            }
            assert_twins_agree(&mut a, &mut b, now.max(t), &what);
        }
        (carried, a.stats(now))
    }

    #[test]
    fn a_replica_that_never_runs_is_indistinguishable_at_every_op() {
        // ROADMAP 9(a). Both twins execute the same code, so what is compared
        // is a step carried by the run's sums against the same step walked.
        use tlt_rollout::SdManagerConfig;
        let accountings = [
            KvAccounting::Tokens,
            KvAccounting::Paged { block_size: 16 },
            // Divides neither the prompts nor the prefixes.
            KvAccounting::Paged { block_size: 7 },
        ];
        let adaptive = SdMode::Adaptive {
            config: SdManagerConfig {
                // Low enough that one batch crosses it in both directions.
                elastic_threshold: 2,
                ..SdManagerConfig::default()
            },
        };
        for (i, kv_accounting) in accountings.into_iter().enumerate() {
            for preemption in [false, true] {
                for sd_mode in [SdMode::Disabled, adaptive.clone()] {
                    for fractional in [false, true] {
                        let mut cfg = config().with_sd_mode(sd_mode.clone());
                        // A 3,000-token pool: admission and preemption bind.
                        cfg.kv_memory_fraction = (cfg.cost.model.weight_bytes()
                            + 3_000.5 * cfg.cost.model.kv_bytes_per_token())
                            / cfg.cost.gpu.memory_bytes();
                        cfg.max_output_tokens = 256;
                        cfg.max_running_requests = 12;
                        cfg.preemption = preemption;
                        cfg.kv_accounting = kv_accounting;
                        assert_eq!(cfg.kv_token_budget(), 3_000);
                        let seed = (i * 8 + usize::from(preemption) * 4) as u64
                            + u64::from(fractional) * 2
                            + u64::from(sd_mode == SdMode::Disabled);
                        let (carried, stats) = run_twins(&cfg, fractional, seed);
                        let cell =
                            format!("{kv_accounting:?} {preemption} {sd_mode:?} {fractional}");
                        assert!(carried > 500, "{cell}: {carried} steps carried");
                        assert_eq!(stats.preemptions > 0, preemption, "{cell}");
                        assert!(stats.crashes > 0 && stats.failovers > 0, "{cell}");
                    }
                }
            }
        }
    }
}
