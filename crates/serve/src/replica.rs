//! Per-replica continuous-batching engine.
//!
//! Each replica owns an admission queue and a running batch and alternates
//! **prefill** steps (packed admission of queued requests, bounded by the KV token
//! budget and a chunking limit) with **decode** steps (one committed token per
//! sequence vanilla, the carried whole part of the expected accept length
//! speculatively). Every decode step is decided, costed on
//! [`tlt_gpusim::LlmCostModel`] and fed back to the tuner by
//! [`tlt_rollout::SdStepEvaluator`], the same evaluator the rollout engine
//! advances by, with the elastic threshold driven by the *live load* (running
//! batch plus queue depth), so speculation switches itself off exactly when a
//! backlog guarantees large batches — the paper's elastic-SD insight applied to
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
//! A decode step costs O(1), and a change to the batch costs what changed,
//! not a pass per member. Every decode step, vanilla or speculative, commits
//! the same whole number of tokens to every running sequence, so the running
//! batch is always a **run** (`Run`): each entry's `generated` is stored
//! relative to the run's `lag`, completing a step of `n` tokens is `lag += n`
//! on one scalar, and the next step's inputs come from sums the run keeps.
//! Every change to the batch goes through them:
//! - an admission or a landed migration joins with `Run::enter`, pushed last;
//! - a preemption victim or a finisher leaves with `Run::leave`, which
//!   writes the lag back into its `generated`; the walk that removes it
//!   recounts what the survivors owe and which of them are unstamped;
//! - entries still owed their first token are stamped by the next completed
//!   decode step (`Run::unstamped`, a tail of the batch), entries whose
//!   prefill is in flight by that prefill (`prefill_pending`, a tail too);
//! - a crash, or a prefill-pool handoff, adds the lag to each entry as it
//!   drains.
//!
//! So a step boundary visits entries only to evict them, to clear a
//! prefill's `prefill_pending` flags, or to remove finishers. The `&self`
//! readers ([`Replica::load`], [`Replica::kv_pool_leaked`],
//! [`Replica::plan_inbound`]) read the sums, and what conservative admission
//! reserves is a sum kept at every change to the batch (`Replica::held`).

use crate::balancer::ReplicaLoad;
use crate::config::{KvAccounting, ServeConfig};
use crate::metrics::{ReplicaMetrics, ReplicaStats};
use crate::request::{CompletedRequest, ServeRequest};
use std::collections::VecDeque;
use tlt_model::paged_kv::BlockLedger;
use tlt_obs::{record, EventKind, ObsEvent, Track, NO_REQ};
use tlt_rollout::{SdMode, SdStepEvaluator, SdStepModel};

/// Maximum prompt tokens packed into one prefill step (the chunking bound): a
/// step admits queued prompts until the next one would exceed it, but always
/// admits at least one.
const MAX_PREFILL_TOKENS: usize = 8192;

/// A request waiting in the admission queue (possibly preempted mid-decode).
#[derive(Debug, Clone)]
struct QueuedEntry {
    req: ServeRequest,
    generated: usize,
    first_token_s: Option<f64>,
    admitted_s: Option<f64>,
    preemptions: u32,
}

impl QueuedEntry {
    fn fresh(req: ServeRequest) -> Self {
        QueuedEntry {
            req,
            generated: 0,
            first_token_s: None,
            admitted_s: None,
            preemptions: 0,
        }
    }

    /// Tokens a prefill step must process to (re)start this request: the prompt
    /// plus any previously generated tokens lost to preemption (recompute).
    fn prefill_tokens(&self) -> usize {
        self.req.prompt_len + self.generated
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
    pub generated: usize,
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
    pub generated: usize,
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
    /// Output tokens produced, less the run's lag (wrapping) while in the
    /// batch; a landed migration holds its actual count until it joins.
    generated: usize,
    first_token_s: Option<f64>,
    admitted_s: f64,
    preemptions: u32,
    /// Set while the admitting prefill step is still in flight.
    prefill_pending: bool,
    /// Admission sequence number; preemption evicts the most recent first.
    admit_seq: u64,
    /// Full-block shared-prefix tokens this entry references (charged once
    /// per replica, not per entry; 0 under token accounting).
    shared_tokens: usize,
}

impl RunningEntry {
    /// KV footprint in tokens (per-sequence attention context) at the run's
    /// `lag`.
    fn kv_tokens(&self, lag: usize) -> usize {
        self.req.prompt_len + self.generated.wrapping_add(lag)
    }

    /// Tokens this entry stores privately at `lag` (everything beyond the
    /// shared full-block prefix).
    fn private_tokens(&self, lag: usize) -> usize {
        self.kv_tokens(lag) - self.shared_tokens
    }

    /// Tokens still owed, plus the run's lag: the lag at which it finishes.
    fn remaining(&self) -> usize {
        self.req.output_len.wrapping_sub(self.generated)
    }

    /// What this entry reserves for its whole life under conservative
    /// admission, in `ledger` blocks (tokens under token accounting, whose
    /// blocks hold one token each).
    fn reservation(&self, ledger: &BlockLedger, max_output: usize) -> usize {
        ledger.blocks_for(self.req.prompt_len - self.shared_tokens + max_output)
    }
}

/// Outcome of planning one admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Admission {
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
    /// A decode step committing `tokens` tokens to every running sequence
    /// (`speculative` marks an SD round, for the flight recorder). A `u32`
    /// keeps `PendingStep`, inline in every replica, at three words.
    Decode { tokens: u32, speculative: bool },
}

#[derive(Debug, Clone)]
struct PendingStep {
    work: StepWork,
    finish_s: f64,
    duration_s: f64,
}

/// The running batch as a run of decode steps (module header): the tokens
/// not yet written into the entries, and the batch's sums with them.
#[derive(Debug, Clone, PartialEq)]
struct Run {
    /// Tokens every entry has produced beyond its `generated`.
    lag: usize,
    /// The `lag` at which the next entry finishes.
    to_finish: usize,
    /// KV tokens, a shared prefix counted once per referencing entry: the
    /// per-sequence attention context the cost model sees.
    kv_tokens: usize,
    /// Private (unshared) blocks the batch occupies.
    private_blocks: usize,
    /// Decode tokens the batch still owes (its share of [`Replica::load`]).
    outstanding: u64,
    /// Prompt tokens of the entries whose prefill is in flight (their share
    /// of [`Replica::load`]).
    pending_prompt: u64,
    /// Entries by `(private_tokens - lag) % block_size`.
    residues: Vec<u32>,
    /// The residue class that gains a block on the next step.
    boundary: usize,
    /// Entries at the batch's end, from the first one still owed its first
    /// token: the next completed decode step stamps them.
    unstamped: usize,
}

impl Run {
    /// Empty sums over `block_size`-token blocks.
    fn new(block_size: usize) -> Self {
        Run {
            lag: 0,
            to_finish: usize::MAX,
            kv_tokens: 0,
            private_blocks: 0,
            outstanding: 0,
            pending_prompt: 0,
            residues: vec![0; block_size],
            boundary: 0,
            unstamped: 0,
        }
    }

    /// Empties the sums of a drained batch, keeping the table.
    fn clear(&mut self) {
        let mut residues = std::mem::take(&mut self.residues);
        residues.fill(0);
        *self = Run {
            residues,
            ..Run::new(0)
        };
    }

    /// Adds `entry`, about to be pushed last with its actual `generated`, to
    /// the sums, and stores its `generated` relative to the lag.
    fn enter(&mut self, entry: &mut RunningEntry, ledger: &BlockLedger) {
        entry.generated = entry.generated.wrapping_sub(self.lag);
        self.kv_tokens += entry.kv_tokens(self.lag);
        let private = entry.private_tokens(self.lag);
        self.private_blocks += ledger.blocks_for(private);
        self.residues[(private + self.boundary) % ledger.block_size()] += 1;
        if entry.prefill_pending {
            self.pending_prompt += entry.req.prompt_len as u64;
        }
        self.count(entry);
    }

    /// Takes `entry` off the sums and writes the lag back into its
    /// `generated`, unclamped: a finisher keeps what the finishing step
    /// committed past its end. The walk that removes it counts the
    /// survivors back in.
    fn leave(&mut self, entry: &mut RunningEntry, ledger: &BlockLedger) {
        self.kv_tokens -= entry.kv_tokens(self.lag);
        let private = entry.private_tokens(self.lag);
        self.private_blocks -= ledger.blocks_for(private);
        self.residues[(private + self.boundary) % ledger.block_size()] -= 1;
        if entry.prefill_pending {
            self.pending_prompt -= entry.req.prompt_len as u64;
        }
        entry.generated = entry.generated.wrapping_add(self.lag);
    }

    /// Forgets what the batch owes and where its unstamped tail starts, for
    /// a walk that removes entries to count the survivors back in.
    fn uncount(&mut self) {
        (self.to_finish, self.outstanding, self.unstamped) = (usize::MAX, 0, 0);
    }

    /// Counts `entry`, the batch's last so far, into what the batch owes and
    /// into its unstamped tail.
    fn count(&mut self, entry: &RunningEntry) {
        self.to_finish = self.to_finish.min(entry.remaining());
        self.outstanding += (entry.remaining() - self.lag) as u64;
        if self.unstamped > 0 || entry.first_token_s.is_none() {
            self.unstamped += 1;
        }
    }

    /// Commits `n` tokens to each of the `batch` entries; returns whether the
    /// step finishes nobody. A step that finishes somebody leaves
    /// `outstanding` to the finish walk: a finisher owed fewer than `n`.
    fn advance(&mut self, batch: usize, n: usize) -> bool {
        self.lag += n;
        self.kv_tokens += batch * n;
        let last = self.residues.len() - 1;
        for _ in 0..n {
            // A token that follows a full block opens a new one.
            self.private_blocks += self.residues[self.boundary] as usize;
            self.boundary = self.boundary.checked_sub(1).unwrap_or(last);
        }
        let carried = self.lag < self.to_finish;
        if carried {
            self.outstanding -= (batch * n) as u64;
        }
        carried
    }
}

/// One continuous-batching replica.
#[derive(Debug, Clone)]
pub struct Replica {
    index: usize,
    config: ServeConfig,
    /// The KV pool every admission, preemption and report goes through:
    /// `block_size`-token blocks under [`KvAccounting::Paged`], one-token
    /// blocks under [`KvAccounting::Tokens`], where no prefix is shared.
    ledger: BlockLedger,
    /// Decides, costs and records every decode step (shared with the rollout
    /// engine of `tlt-rollout`).
    sd: SdStepEvaluator,
    queue: VecDeque<QueuedEntry>,
    running: Vec<RunningEntry>,
    step: Option<PendingStep>,
    /// The running batch's sums (module header), boxed when the first entry
    /// joins, so that a replica that never ran one, or was released, holds a
    /// word.
    run: Option<Box<Run>>,
    /// What the running batch reserves under conservative admission, each
    /// entry's `RunningEntry::reservation` summed, kept at every change to
    /// the batch.
    held: usize,
    /// See [`Replica::entry_visits`].
    entry_visits: u64,
    admit_seq: u64,
    /// Whether the engine is serving (false between `crash` and `restart`).
    up: bool,
    /// Step-duration multiplier (> 1.0 models a straggler replica).
    slow_factor: f64,
    /// Every scalar tally, as plain counters updated in place
    /// ([`ReplicaStats`] is read out of them at report time).
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
        let block_size = config.kv_accounting.block_size().unwrap_or(1);
        Replica {
            index,
            ledger: BlockLedger::new(block_size, config.kv_token_budget() / block_size),
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
            held: 0,
            entry_visits: 0,
            admit_seq: 0,
            up: true,
            slow_factor: 1.0,
            metrics: ReplicaMetrics::default(),
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
    pub(crate) fn track(&self) -> Track {
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
        self.up = false;
        self.step = None;
        self.metrics.crashes += 1;
        record(
            ObsEvent::instant(now, self.track(), EventKind::Crash, NO_REQ)
                .with_args(self.running.len() as f64, self.queue.len() as f64),
        );
        // The crash wipes the replica's KV pool: every block — private
        // footprints and the resident prefix cache alike — is freed.
        self.ledger.reset();
        let mut drained = Vec::with_capacity(self.running.len() + self.queue.len());
        let lag = self.run.as_deref().map_or(0, |run| run.lag);
        for entry in self.running.drain(..) {
            drained.push(FailoverRequest {
                req: entry.req,
                generated: entry.generated.wrapping_add(lag),
                first_token_s: entry.first_token_s,
                admitted_s: Some(entry.admitted_s),
                preemptions: entry.preemptions + 1,
            });
        }
        if let Some(run) = self.run.as_deref_mut() {
            run.clear();
        }
        self.held = 0;
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
        self.metrics.failovers += 1;
        record(
            ObsEvent::instant(now, self.track(), EventKind::Failover, fo.req.id)
                .with_args(fo.generated as f64, 0.0),
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
        // A prefill-pool replica only owes prefill compute: the decode tokens
        // belong to whichever decode replica the sequence lands on.
        let decodes = !self.prefill_only;
        let queued: u64 = self
            .queue
            .iter()
            .map(|e| {
                // Work still owed: the (re)prefill plus the decode tokens not
                // yet produced (preempted entries keep their `generated`
                // credit).
                let decode = if decodes {
                    e.req.output_len.saturating_sub(e.generated)
                } else {
                    0
                };
                (e.prefill_tokens() + decode) as u64
            })
            .sum();
        let running = self.run.as_deref().map_or(0, |run| {
            run.pending_prompt + if decodes { run.outstanding } else { 0 }
        });
        ReplicaLoad {
            queued: self.queue.len(),
            running: self.running.len(),
            outstanding_tokens: queued + running,
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
        self.metrics.busy_s += step.duration_s;
        let track = self.track();
        let batch = self.running.len();
        let run = self.run.as_deref_mut().expect("a step has a batch");
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
                if self.prefill_only {
                    // Every running entry has now completed its prefill: hand
                    // the whole batch off for migration. The shared-prefix
                    // reference drops (the blocks stay resident as the
                    // affinity cache) and the private footprint converts into
                    // an outbound charge held until the transfer lands. A
                    // prefill-pool replica never produces an output token:
                    // the first token arrives on the decode side, after the
                    // migration.
                    self.entry_visits += batch as u64;
                    for entry in self.running.drain(..) {
                        if entry.shared_tokens > 0 {
                            self.ledger.release_shared(entry.req.prefix_id);
                        }
                        let source_blocks = self.ledger.blocks_for(entry.private_tokens(run.lag));
                        self.ledger.begin_outbound(source_blocks);
                        self.metrics.migrations_out += 1;
                        self.handoffs.push(MigratedEntry {
                            req: entry.req,
                            generated: entry.generated.wrapping_add(run.lag),
                            admitted_s: entry.admitted_s,
                            preemptions: entry.preemptions,
                            source_blocks,
                            wire_blocks: self.ledger.blocks_for(entry.kv_tokens(run.lag)),
                        });
                    }
                    run.clear();
                    self.held = 0;
                } else {
                    // The prefilled entries are the batch's tail (admission
                    // pushes them last) and all now hold their first token.
                    let mut cleared = 0;
                    for entry in self.running.iter_mut().rev() {
                        if !entry.prefill_pending {
                            break;
                        }
                        entry.prefill_pending = false;
                        entry.first_token_s.get_or_insert(now);
                        cleared += 1;
                    }
                    self.entry_visits += cleared as u64;
                    run.pending_prompt = 0;
                    if run.unstamped <= cleared {
                        run.unstamped = 0;
                    }
                }
            }
            StepWork::Decode {
                tokens,
                speculative,
            } => {
                let tokens = tokens as usize;
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
                    .with_args(batch as f64, tokens as f64),
                );
                let carried = run.advance(batch, tokens);
                // Migrated entries skip the local prefill, so their first
                // token is produced by their first decode commit here.
                self.entry_visits += run.unstamped as u64;
                for entry in &mut self.running[batch - run.unstamped..] {
                    entry.first_token_s.get_or_insert(now);
                }
                run.unstamped = 0;
                if !carried {
                    self.remove_finishers(now);
                }
            }
        }
        self.start_step(now);
    }

    /// The walk of a decode step that finishes somebody: finished entries
    /// leave the run and drain straight into the completed log (in admission
    /// order), survivors keep their batch order and are counted back in.
    /// Finished entries drop their shared-prefix reference; the blocks stay
    /// resident for future admissions until pool pressure reclaims them.
    fn remove_finishers(&mut self, now: f64) {
        self.entry_visits += self.running.len() as u64;
        let track = self.track();
        let replica_index = self.index;
        let max_output = self.config.max_output_tokens;
        let run = self
            .run
            .as_deref_mut()
            .expect("a decoding batch has its run");
        let lag = run.lag;
        run.uncount();
        let completed = &mut self.completed;
        let metrics = &mut self.metrics;
        let ledger = &mut self.ledger;
        let held = &mut self.held;
        self.running.retain_mut(|entry| {
            if entry.remaining() > lag {
                run.count(entry);
                return true;
            }
            run.leave(entry, ledger);
            *held -= entry.reservation(ledger, max_output);
            metrics.completed += 1;
            record(
                ObsEvent::instant(now, track, EventKind::Completion, entry.req.id)
                    .with_args(entry.req.output_len as f64, now - entry.req.arrival_s),
            );
            if entry.shared_tokens > 0 {
                ledger.release_shared(entry.req.prefix_id);
            }
            completed.push(CompletedRequest {
                id: entry.req.id,
                replica: replica_index,
                arrival_s: entry.req.arrival_s,
                admitted_s: entry.admitted_s,
                first_token_s: entry.first_token_s.expect("the step stamped the batch"),
                finish_s: now,
                prompt_len: entry.req.prompt_len,
                output_len: entry.req.output_len,
                preemptions: entry.preemptions,
            });
            false
        });
    }

    /// Actual private (unshared) blocks the running batch occupies.
    fn private_blocks_in_use(&self) -> usize {
        self.run.as_deref().map_or(0, |run| run.private_blocks)
    }

    /// Full-block tokens of `req`'s shared prefix (partial blocks stay
    /// private; 0 without a prefix, and under token accounting, which
    /// charges every prefix per request).
    fn shared_prefix_tokens(&self, req: &ServeRequest) -> usize {
        match self.config.kv_accounting {
            KvAccounting::Paged { block_size } if req.prefix_id != 0 => {
                (req.prefix_len.min(req.prompt_len) / block_size) * block_size
            }
            _ => 0,
        }
    }

    /// Whether admission reserves an entry's current footprint (optimistic
    /// admission, or a prefill-pool replica) rather than its worst case.
    fn reserves_footprint(&self) -> bool {
        self.prefill_only || self.config.preemption
    }

    /// Private blocks the running batch reserves under the active policy
    /// (the ledger charges its shared groups): its footprint, or the kept
    /// worst case under conservative admission.
    fn reserved(&self) -> usize {
        if self.reserves_footprint() {
            self.private_blocks_in_use()
        } else {
            self.held
        }
    }

    /// Blocks charged outside the batch's private footprints: the resident
    /// shared groups, charged once, and both migration directions.
    fn unbatched_blocks(&self) -> usize {
        self.ledger.shared_blocks() + self.ledger.inbound_blocks() + self.ledger.outbound_blocks()
    }

    /// Actual blocks charged right now: per-entry private footprints (rounded
    /// up to whole blocks) plus everything charged outside the batch.
    fn blocks_in_use(&self) -> usize {
        self.private_blocks_in_use() + self.unbatched_blocks()
    }

    /// Plans the admission of `entry` against the current reservations
    /// without mutating anything.
    fn plan_admission(&self, entry: &QueuedEntry, reserved: usize) -> Admission {
        let ledger = &self.ledger;
        let budget = ledger.capacity_blocks();
        let shared = self.shared_prefix_tokens(&entry.req);
        let shared_blocks = shared / ledger.block_size();
        // A request that cannot fit even an otherwise-empty replica will never
        // be admittable: drop it instead of wedging the queue. Under
        // optimistic admission the prefill may fit today but the request's
        // full footprint (prompt + clamped output) can still exceed the whole
        // pool — running it alone would overflow KV with nothing left to
        // preempt, so it is just as impossible. The shared prefix is charged
        // once.
        let lone_private = if self.prefill_only {
            entry.prefill_tokens() - shared
        } else if self.config.preemption {
            entry.req.prompt_len - shared + entry.req.output_len
        } else {
            entry.req.prompt_len - shared + self.config.max_output_tokens
        };
        if ledger.blocks_for(lone_private) + shared_blocks > budget {
            return Admission::Impossible;
        }
        // Only the blocks already resident hold materialised KV a prefill can
        // reuse; a longer clamped prefix must compute — and charge — the
        // extension blocks itself (the group grows at admission).
        let reused_blocks = if shared_blocks > 0 {
            shared_blocks.min(ledger.resident_blocks_of(entry.req.prefix_id))
        } else {
            0
        };
        let private_need = if self.reserves_footprint() {
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
        if reserved + self.unbatched_blocks() + need > budget {
            return Admission::OverBudget;
        }
        // Reused resident blocks mean their KV is already materialised: the
        // prefill skips those tokens (keeping at least one novel token so the
        // step still produces first-token logits). The first request of a
        // group pays the full prefill and leaves the blocks resident.
        let cached =
            (reused_blocks * ledger.block_size()).min(entry.prefill_tokens().saturating_sub(1));
        Admission::Admit {
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
        let mut reserved = self.reserved();
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
            let mut plan = self.plan_admission(&front, reserved);
            if plan == Admission::OverBudget {
                // Reclaim prefix-cache groups nothing references — except
                // the front request's own group, whose eviction would buy
                // no headroom (its blocks move straight back into `need`)
                // while destroying the cache hit — and retry once.
                let keep = (front.req.prefix_id != 0).then_some(front.req.prefix_id);
                if self.ledger.evict_unreferenced_except(keep) > 0 {
                    plan = self.plan_admission(&front, reserved);
                }
            }
            let (entry_cached, entry_private_blocks, entry_shared_blocks) = match plan {
                Admission::Impossible => {
                    let entry = self.queue.pop_front().expect("front exists");
                    self.dropped_ids.push(entry.req.id);
                    continue;
                }
                Admission::OverBudget => break,
                Admission::Admit {
                    cached,
                    private_blocks,
                    shared_blocks,
                } => (cached, private_blocks, shared_blocks),
            };
            let chunk = front.prefill_tokens() - entry_cached;
            if admitted > 0 && prefill_tokens + chunk > MAX_PREFILL_TOKENS {
                break;
            }
            let entry = self.queue.pop_front().expect("front exists");
            let shared = self.shared_prefix_tokens(&entry.req);
            reserved += entry_private_blocks;
            if entry_shared_blocks > 0 {
                self.ledger
                    .admit_shared(entry.req.prefix_id, entry_shared_blocks);
            }
            prefill_tokens += chunk;
            cached_tokens += entry_cached;
            // Hit-rate accounting is over *prompt* tokens: preemption-lost
            // output tokens are recomputed by the prefill but can never come
            // from the prefix cache, so they stay out of the denominator.
            self.metrics.admitted_prompt_tokens += entry.req.prompt_len as u64;
            self.metrics.prefix_hit_tokens += entry_cached.min(entry.req.prompt_len) as u64;
            record(
                ObsEvent::instant(now, self.track(), EventKind::Admission, entry.req.id)
                    .with_args(chunk as f64, entry_cached as f64),
            );
            admitted += 1;
            let entry = RunningEntry {
                admitted_s: entry.admitted_s.unwrap_or(now),
                req: entry.req,
                generated: entry.generated,
                first_token_s: entry.first_token_s,
                preemptions: entry.preemptions,
                prefill_pending: true,
                admit_seq: self.admit_seq,
                shared_tokens: shared,
            };
            self.join(entry);
            self.admit_seq += 1;
        }
        (prefill_tokens, cached_tokens)
    }

    /// Evicts most-recently-admitted requests back to the queue front until the
    /// actual KV footprint fits the budget again (optimistic admission only).
    ///
    /// The batch is in admission order, so the victims come off its end and
    /// the survivors keep their order; pushing each victim to the queue front
    /// leaves the front ascending by admission sequence, ahead of everything
    /// already queued (pinned by `preemption_evicts_most_recent_first`).
    fn preempt_until_fitting(&mut self, now: f64) {
        // The fitting check runs in blocks against the ledger. Unreferenced
        // prefix-cache groups stay resident until there is actual pressure;
        // when the batch is over budget they are reclaimed before any
        // running work is evicted.
        let budget = self.ledger.capacity_blocks();
        let mut charged = self.blocks_in_use();
        if charged > budget {
            self.ledger.evict_unreferenced();
            charged = self.blocks_in_use();
        }
        if charged <= budget || self.running.len() <= 1 {
            return;
        }
        self.entry_visits += self.running.len() as u64;
        let track = self.track();
        let run = self.run.as_deref_mut().expect("a batch has its run");
        while charged > budget && self.running.len() > 1 {
            let mut victim = self.running.pop().expect("a batch of two or more");
            charged -= self.ledger.blocks_for(victim.private_tokens(run.lag));
            if victim.shared_tokens > 0 {
                // Evicting a group's last referencing entry frees the group's
                // blocks too (reclaimed by the trailing sweep), so the loop
                // credits them and stops earlier.
                let id = victim.req.prefix_id;
                self.ledger.release_shared(id);
                let orphaned = self.ledger.shared_groups().iter().find(|g| g.id == id);
                if let Some(group) = orphaned.filter(|g| g.refs == 0) {
                    charged = charged.saturating_sub(group.blocks);
                }
            }
            run.leave(&mut victim, &self.ledger);
            self.held -= victim.reservation(&self.ledger, self.config.max_output_tokens);
            self.metrics.preemptions += 1;
            record(ObsEvent::instant(
                now,
                track,
                EventKind::Preemption,
                victim.req.id,
            ));
            self.queue.push_front(QueuedEntry {
                req: victim.req,
                generated: victim.generated,
                first_token_s: victim.first_token_s,
                admitted_s: Some(victim.admitted_s),
                preemptions: victim.preemptions + 1,
            });
        }
        run.uncount();
        for entry in &self.running {
            run.count(entry);
        }
        // Eviction may have orphaned a shared group; if the batch still does
        // not fit, reclaim those blocks too.
        self.ledger.evict_unreferenced();
    }

    /// Pushes `entry`, with its actual `generated`, onto the batch's end: it
    /// enters the run (boxed when the first entry joins) and the kept
    /// reservation.
    fn join(&mut self, mut entry: RunningEntry) {
        let run = self
            .run
            .get_or_insert_with(|| Box::new(Run::new(self.ledger.block_size())));
        run.enter(&mut entry, &self.ledger);
        self.held += entry.reservation(&self.ledger, self.config.max_output_tokens);
        self.running.push(entry);
    }

    /// Landed migrations join the batch at a step boundary, pushed last
    /// (their `admit_seq` is the newest, so the batch stays in admission
    /// order). The inbound reservation converts into a regular private
    /// footprint (picked up by `sync_private` in `start_step`) the moment the
    /// entry starts decoding.
    fn merge_arriving(&mut self) {
        // Taken out while `join` borrows the replica; the buffer goes back.
        let mut arriving = std::mem::take(&mut self.arriving);
        for (entry, reserved) in arriving.drain(..) {
            self.ledger.commit_inbound(reserved);
            self.join(entry);
        }
        self.arriving = arriving;
    }

    /// Under `debug_assertions`, recounts what the replica keeps about its
    /// batch: the conservative reservation and every sum of the run. Checks
    /// too that the batch is in admission order (eviction pops its end) with
    /// the entries whose prefill is in flight at its tail.
    fn check_sums(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        let max_output = self.config.max_output_tokens;
        let held: usize = self
            .running
            .iter()
            .map(|e| e.reservation(&self.ledger, max_output))
            .sum();
        assert_eq!(self.held, held, "kept reservation");
        assert!(
            self.running
                .windows(2)
                .all(|w| w[0].admit_seq < w[1].admit_seq),
            "the batch is in admission order"
        );
        assert!(
            self.running
                .iter()
                .skip_while(|e| !e.prefill_pending)
                .all(|e| e.prefill_pending),
            "pending prefills are the batch's tail"
        );
        let Some(run) = self.run.as_deref() else {
            assert!(self.running.is_empty(), "a batch has its run");
            return;
        };
        // Recounted apart from `Run::enter`, and without allocating: the
        // allocation tests step replicas in debug builds too.
        let (batch, lag) = (&self.running, run.lag);
        let kv_tokens: usize = batch.iter().map(|e| e.kv_tokens(lag)).sum();
        assert_eq!(run.kv_tokens, kv_tokens, "KV tokens");
        let private_blocks: usize = batch
            .iter()
            .map(|e| self.ledger.blocks_for(e.private_tokens(lag)))
            .sum();
        assert_eq!(run.private_blocks, private_blocks, "private blocks");
        let owed: u64 = batch.iter().map(|e| (e.remaining() - lag) as u64).sum();
        assert_eq!(run.outstanding, owed, "outstanding tokens");
        let pending: u64 = batch
            .iter()
            .filter(|e| e.prefill_pending)
            .map(|e| e.req.prompt_len as u64)
            .sum();
        assert_eq!(run.pending_prompt, pending, "pending prompt tokens");
        let next_finish = batch.iter().map(RunningEntry::remaining).min();
        assert_eq!(
            run.to_finish,
            next_finish.unwrap_or(usize::MAX),
            "next finish"
        );
        let stamped = batch
            .iter()
            .take_while(|e| e.first_token_s.is_some())
            .count();
        assert_eq!(run.unstamped, batch.len() - stamped, "unstamped tail");
        let block_size = self.ledger.block_size();
        for (class, &members) in run.residues.iter().enumerate() {
            let recount = batch
                .iter()
                .filter(|e| (e.private_tokens(lag) + run.boundary) % block_size == class)
                .count();
            assert_eq!(members as usize, recount, "residue class {class}");
        }
    }

    /// Chooses and schedules the next step at time `now` (idle if no work):
    /// landed migrations join, victims leave and queued requests are
    /// admitted, each through the run's sums.
    fn start_step(&mut self, now: f64) {
        debug_assert!(self.step.is_none());
        self.merge_arriving();
        if self.config.preemption {
            self.preempt_until_fitting(now);
        }
        let (prefill_tokens, cached_tokens) = self.try_admit(now);
        self.check_sums();
        let (kv_in_use, private_blocks) = self
            .run
            .as_deref()
            .map_or((0, 0), |run| (run.kv_tokens, run.private_blocks));
        let metrics = &mut self.metrics;
        metrics.peak_running = metrics.peak_running.max(self.running.len());
        metrics.peak_kv_tokens = metrics.peak_kv_tokens.max(kv_in_use);
        self.ledger.sync_private(private_blocks);
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

        self.metrics.decode_steps += 1;
        if step.speculative {
            self.metrics.sd_steps += 1;
            self.metrics.accept_len_sum += step.accept_len;
            // Quantise for the trace recorder: at least the bonus token is
            // always produced, and the unary SD bitstream caps one step's
            // accept length at 63 tokens.
            let accept = step.accept_len.round().clamp(1.0, 63.0) as u8;
            match self.sd_accepts.last_mut() {
                Some((value, count)) if *value == accept && *count < u32::MAX => *count += 1,
                _ => self.sd_accepts.push((accept, 1)),
            }
        }
        self.step = Some(PendingStep {
            work: StepWork::Decode {
                tokens: u32::try_from(step.tokens).expect("an SD step commits few tokens"),
                speculative: step.speculative,
            },
            finish_s: now + step.time_s,
            duration_s: step.time_s,
        });
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
        self.dropped_ids.len()
    }

    /// Ids of the requests dropped at admission (in drop order).
    pub fn dropped_ids(&self) -> &[u64] {
        &self.dropped_ids
    }

    /// Times this replica has crashed.
    pub fn crashes(&self) -> u64 {
        self.metrics.crashes
    }

    /// Crash-drained requests re-delivered to this replica by the frontend.
    pub fn failovers(&self) -> u64 {
        self.metrics.failovers
    }

    /// Largest KV-token footprint observed at a step start (post-preemption).
    pub fn peak_kv_tokens(&self) -> usize {
        self.metrics.peak_kv_tokens
    }

    /// Running entries the step path has visited (evictions and finishes
    /// walk the batch, a prefill its admitted tail, a decode step its
    /// unstamped tail): the exact host-cost proxy `tests/event_counts.rs`
    /// pins.
    #[doc(hidden)]
    pub fn entry_visits(&self) -> u64 {
        self.entry_visits
    }

    /// This replica's tallies.
    pub fn metrics(&self) -> &ReplicaMetrics {
        &self.metrics
    }

    /// The ledger as the reports show it: `None` under token accounting,
    /// whose one-token blocks the block readings leave out.
    fn pool(&self) -> Option<&BlockLedger> {
        self.config.kv_accounting.block_size().map(|_| &self.ledger)
    }

    /// KV capacity in blocks (0 under token accounting).
    pub fn kv_block_budget(&self) -> usize {
        self.pool().map_or(0, BlockLedger::capacity_blocks)
    }

    /// Largest number of KV blocks charged at a step start (0 under token
    /// accounting).
    pub fn peak_kv_blocks(&self) -> usize {
        self.pool().map_or(0, BlockLedger::peak_in_use_blocks)
    }

    /// Fraction of admitted prompt tokens served from resident prefix blocks.
    pub fn prefix_hit_rate(&self) -> f64 {
        let m = &self.metrics;
        if m.admitted_prompt_tokens == 0 {
            0.0
        } else {
            m.prefix_hit_tokens as f64 / m.admitted_prompt_tokens as f64
        }
    }

    /// Structural check of the block ledger under either accounting: shared
    /// refcounts must equal the running entries referencing each prefix
    /// (none under token accounting), charges must stay within capacity.
    pub fn kv_pool_check(&self) -> Result<(), String> {
        let expected_refs = self.running.iter().filter(|e| e.shared_tokens > 0).count();
        self.ledger.check_conservation(expected_refs)
    }

    /// Blocks that are neither free nor reclaimable: private footprints of
    /// running work plus shared groups still referenced. Zero after a full
    /// drain — the pool-leak assertion the chaos matrix enforces.
    pub fn kv_pool_leaked(&self) -> usize {
        let ledger = &self.ledger;
        let referenced: usize = ledger
            .shared_groups()
            .iter()
            .filter(|g| g.refs > 0)
            .map(|g| g.blocks)
            .sum();
        self.private_blocks_in_use()
            + referenced
            + ledger.inbound_blocks()
            + ledger.outbound_blocks()
    }

    /// Drains the prefilled sequences awaiting migration to the decode pool
    /// (the buffer keeps its capacity for the next prefill step).
    pub fn drain_handoffs(&mut self) -> std::vec::Drain<'_, MigratedEntry> {
        self.handoffs.drain(..)
    }

    /// Blocks of `prefix_id` resident in this replica's prefix cache (0 under
    /// token accounting) — the affinity signal the cluster router uses.
    pub fn resident_prefix_blocks(&self, prefix_id: u64) -> usize {
        self.ledger.resident_blocks_of(prefix_id)
    }

    /// Plans the landing of a migrated sequence on this replica without
    /// mutating anything: `Some(blocks)` is the inbound reservation to charge
    /// via [`Replica::reserve_inbound`], `None` means the migration does not
    /// fit right now. `pending_entries` counts migrations already bound for
    /// this replica (reserved or on the wire) so the running-batch cap holds.
    /// Mirrors the admission arithmetic: worst case under conservative
    /// admission, actual footprint under optimistic admission.
    pub fn plan_inbound(&self, entry: &MigratedEntry, pending_entries: usize) -> Option<usize> {
        if !self.up {
            return None;
        }
        if self.running.len() + self.arriving.len() + pending_entries
            >= self.config.max_running_requests
        {
            return None;
        }
        let need_tokens = if self.config.preemption {
            entry.req.prompt_len + entry.generated
        } else {
            entry.req.prompt_len + self.config.max_output_tokens
        };
        let blocks = self.ledger.blocks_for(need_tokens);
        let charged = self.reserved() + self.unbatched_blocks();
        (charged + blocks <= self.ledger.capacity_blocks()).then_some(blocks)
    }

    /// Charges an inbound migration reservation (from [`Replica::plan_inbound`])
    /// while the transfer is on the wire.
    pub fn reserve_inbound(&mut self, blocks: usize) {
        self.ledger.reserve_inbound(blocks);
    }

    /// Releases an inbound reservation whose transfer was aborted. A crash
    /// already wiped the ledger, so this is only for a live destination losing
    /// its *source* mid-transfer.
    pub fn cancel_inbound(&mut self, blocks: usize) {
        self.ledger.cancel_inbound(blocks);
    }

    /// Releases the source-side outbound charge once its transfer lands.
    pub fn complete_outbound(&mut self, blocks: usize) {
        self.ledger.complete_outbound(blocks);
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
        let kv_tokens = entry.req.prompt_len + entry.generated;
        self.metrics.migrations_in += 1;
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
        let m = &self.metrics;
        ReplicaStats {
            replica: self.index,
            completed: m.completed as usize,
            dropped: self.dropped(),
            busy_s: m.busy_s,
            utilization: if makespan_s > 0.0 {
                (m.busy_s / makespan_s).min(1.0)
            } else {
                0.0
            },
            sd_step_fraction: if m.decode_steps == 0 {
                0.0
            } else {
                m.sd_steps as f64 / m.decode_steps as f64
            },
            mean_accept_length: if m.sd_steps == 0 {
                1.0
            } else {
                m.accept_len_sum / m.sd_steps as f64
            },
            preemptions: m.preemptions,
            failovers: m.failovers,
            crashes: m.crashes,
            peak_running: m.peak_running,
            peak_kv_tokens: m.peak_kv_tokens,
            kv_block_budget: self.kv_block_budget(),
            peak_kv_blocks: self.peak_kv_blocks(),
            pool_utilization: self.pool().map_or(0.0, BlockLedger::utilization),
            prefix_hit_rate: self.prefix_hit_rate(),
            migrations_out: m.migrations_out,
            migrations_in: m.migrations_in,
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

    /// The completed-request records accumulated so far, moved out as a
    /// driver moves them into its log.
    fn take_log(replica: &mut Replica) -> Vec<CompletedRequest> {
        let mut log = Vec::new();
        replica.move_completed_into(&mut log);
        log
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
        let completed = take_log(&mut replica);
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
        let completed = take_log(&mut replica);
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
        assert_eq!(take_log(&mut replica).len(), fit + 8);
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
        let completed = take_log(&mut replica);
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
        let completed = take_log(&mut replica);
        assert_eq!(completed.len(), 1);
        assert_eq!(completed[0].id, 1);
    }

    #[test]
    fn preemption_evicts_most_recent_first() {
        // Pins the eviction policy: victims are chosen by descending admission
        // sequence, survivors keep their batch order, and the queue front holds
        // the victims in ascending admission order (so the earliest-admitted
        // victim is re-admitted first).
        let mut replica = Replica::new(
            &ServeConfig {
                preemption: true,
                ..config()
            },
            0,
        );
        replica.ledger = BlockLedger::new(1, 3_000);
        for (seq, id) in [(0u64, 10u64), (1, 11), (2, 12), (3, 13)] {
            let entry = RunningEntry {
                req: request(id, 0.0, 1_000, 64),
                generated: 0,
                first_token_s: Some(0.5),
                admitted_s: 0.1,
                preemptions: 0,
                prefill_pending: false,
                admit_seq: seq,
                shared_tokens: 0,
            };
            replica.join(entry);
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
        replica.ledger = BlockLedger::new(1, 1_000);
        replica.preempt_until_fitting(0.0);
        assert_eq!(replica.running.len(), 1);
        assert_eq!(replica.running[0].admit_seq, 0);
        let ids: Vec<u64> = replica.queue.iter().map(|e| e.req.id).collect();
        assert_eq!(ids, vec![11, 12, 13]);
        assert_eq!(replica.metrics().preemptions(), 3);
    }

    #[test]
    fn preemption_evicts_and_resumes_under_kv_pressure() {
        let mut cfg = config();
        cfg.preemption = true;
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
        let completed = take_log(&mut replica);
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
        let completed = take_log(&mut replica);
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
        let mut replica = Replica::new(
            &ServeConfig {
                preemption: true,
                ..config()
            },
            0,
        );
        replica.ledger = BlockLedger::new(1, 1_500);
        for (seq, id) in [(0u64, 20u64), (1, 21)] {
            let entry = RunningEntry {
                req: request(id, 0.0, 1_000, 64),
                generated: 0,
                first_token_s: None,
                admitted_s: 0.25,
                preemptions: 0,
                prefill_pending: seq == 1,
                admit_seq: seq,
                shared_tokens: 0,
            };
            replica.join(entry);
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
        let completed = take_log(&mut replica);
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
            assert_eq!(fo.generated, 1, "streamed tokens keep their credit");
            assert_eq!(fo.first_token_s, expected_first);
            assert_eq!(fo.preemptions, 1, "crash counts as a forced recompute");
        }
        // Failover onto a fresh replica completes both with original timestamps.
        let mut survivor = Replica::new(&config(), 1);
        for fo in drained {
            survivor.enqueue_failover(fo, t3 + 0.001);
        }
        drain(&mut survivor);
        let completed = take_log(&mut survivor);
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
        assert_eq!(drained[0].generated, 0);
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
        let mut cfg = config();
        cfg.preemption = true;
        cfg.kv_memory_fraction = 0.25;
        cfg.max_output_tokens = usize::MAX >> 1;
        let budget = cfg.kv_token_budget();
        let mut replica = Replica::new(&cfg, 0);
        replica.enqueue(request(0, 0.0, 512, budget + 1), 0.0);
        replica.enqueue(request(1, 0.0, 512, 128), 0.0);
        drain(&mut replica);
        assert_eq!(replica.dropped(), 1);
        assert_eq!(replica.dropped_ids(), &[0]);
        let completed = take_log(&mut replica);
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
            assert_eq!(take_log(&mut replica).len(), n as usize);
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
        let cold = take_log(&mut replica);
        assert_eq!(cold.len(), 1);

        // Same replica, same prompt shape: the prefix is now resident.
        let arrive = replica.next_event_s().min(10.0);
        replica.enqueue(prefixed_request(1, 1024, 1024, 4), arrive);
        let warm_prefill = replica.next_event_s() - arrive;
        drain(&mut replica);
        let warm = take_log(&mut replica);
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
        assert_eq!(take_log(&mut replica).len(), 1);
        assert_eq!(
            replica.ledger.in_use_blocks(),
            16,
            "short prefix leaves 16 blocks resident"
        );

        replica.enqueue(prefixed_request(1, 768, 768, 4), 100.0);
        drain(&mut replica);
        assert_eq!(take_log(&mut replica).len(), 1);
        // Only the resident 256 tokens were reusable; the 512-token extension
        // was computed by the second request's own prefill.
        let expected_hit = 256.0 / (256.0 + 768.0);
        assert!(
            (replica.prefix_hit_rate() - expected_hit).abs() < 1e-9,
            "hit rate {} should count only resident blocks ({expected_hit})",
            replica.prefix_hit_rate()
        );
        assert_eq!(
            replica.ledger.in_use_blocks(),
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
        let mut cfg = config().with_paged_kv(16);
        cfg.preemption = true;
        let mut replica = Replica::new(&cfg, 0);
        replica.enqueue(prefixed_request(0, 256, 256, 4), 0.0);
        drain(&mut replica);
        assert_eq!(
            replica.ledger.in_use_blocks(),
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
        let mut cfg = config().with_paged_kv(16);
        cfg.preemption = true;
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
        let completed = take_log(&mut replica);
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
        assert!(replica.ledger.in_use_blocks() > 0);
        let drained = replica.crash(t + 0.01);
        assert_eq!(drained.len(), 2);
        assert_eq!(
            replica.ledger.in_use_blocks(),
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
            (end, take_log(&mut replica))
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
        let mut cfg = config().with_paged_kv(16);
        cfg.preemption = true;
        let mut replica = Replica::new(&cfg, 0);
        let budget = replica.kv_block_budget();
        assert!(budget > 8, "test needs a few blocks of headroom");
        // A migration big enough to leave fewer blocks than the next request
        // needs (under optimistic admission a 64+16 request takes 5 blocks).
        let inbound = MigratedEntry {
            req: request(100, 0.0, (budget - 2) * 16, 16),
            generated: 0,
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
        assert_eq!(take_log(&mut replica).len(), 2);
    }

    /// While a prefill is in flight the replica owes its prompt: a prefill-pool
    /// replica reports exactly the prompt's tokens (prefix-affinity routing's
    /// fallback reads this), a mono replica the prompt plus the decode tokens
    /// still owed.
    #[test]
    fn load_counts_the_prompt_of_a_prefill_in_flight() {
        let cfg = config().with_paged_kv(16);
        for (prefill_only, owed) in [(true, 256), (false, 256 + 64)] {
            let mut replica = Replica::new(&cfg, 0);
            replica.set_prefill_only(prefill_only);
            replica.enqueue(request(0, 0.0, 256, 64), 0.0);
            assert!(
                replica.next_event_s().is_finite(),
                "the prefill is in flight"
            );
            let load = replica.load();
            assert_eq!((load.running, load.queued), (1, 0));
            assert_eq!(load.outstanding_tokens, owed, "prefill_only {prefill_only}");
        }
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
        assert_eq!(replica.ledger.in_use_blocks(), m.source_blocks);
        assert!(take_log(&mut replica).is_empty(), "prefill never decodes");
        replica.complete_outbound(m.source_blocks);
        assert_eq!(replica.ledger.in_use_blocks(), 0);
        assert_eq!(replica.kv_pool_leaked(), 0);
    }

    #[test]
    fn migrated_entry_decodes_with_zero_recompute() {
        let cfg = config().with_paged_kv(16);
        let mut replica = Replica::new(&cfg, 0);
        let entry = MigratedEntry {
            req: request(7, 0.0, 256, 32),
            generated: 0,
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
        let completed = take_log(&mut replica);
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

    /// `cfg` with a 3,000-token KV pool, so that admission and preemption
    /// bind.
    fn with_a_3000_token_pool(mut cfg: ServeConfig) -> ServeConfig {
        cfg.kv_memory_fraction = (cfg.cost.model.weight_bytes()
            + 3_000.5 * cfg.cost.model.kv_bytes_per_token())
            / cfg.cost.gpu.memory_bytes();
        assert_eq!(cfg.kv_token_budget(), 3_000);
        cfg
    }

    #[test]
    fn decode_steps_behind_a_blocked_queue_visit_no_entry() {
        // Conservative admission over a full pool: two requests run and a
        // third waits for a reservation no step frees. A decode step that
        // finishes nobody is carried by the run's sums, queue or not.
        let mut cfg = with_a_3000_token_pool(config());
        cfg.max_output_tokens = 256;
        let mut replica = Replica::new(&cfg, 0);
        for id in 0..3 {
            // 1,256 tokens reserved each: two fit, the third does not.
            replica.enqueue(request(id, 0.0, 1_000, 200), 0.0);
        }
        // The first request's prefill, then the second's.
        for _ in 0..2 {
            let t = replica.next_event_s();
            replica.on_step_complete(t);
        }
        assert!(matches!(
            replica.step,
            Some(PendingStep {
                work: StepWork::Decode { .. },
                ..
            })
        ));
        assert_eq!((replica.running.len(), replica.queue.len()), (2, 1));
        let (visits, steps) = (replica.entry_visits(), replica.metrics().decode_steps());
        for _ in 0..100 {
            let t = replica.next_event_s();
            replica.on_step_complete(t);
        }
        assert_eq!(replica.metrics().decode_steps(), steps + 100);
        assert_eq!(replica.queue.len(), 1, "the third request still waits");
        assert!(take_log(&mut replica).is_empty());
        assert_eq!(replica.entry_visits(), visits);
    }

    /// What a replica's decode steps covered: all of them, and those that
    /// changed the batch.
    #[derive(Debug, Default)]
    struct Coverage {
        steps: usize,
        /// Speculative ones.
        speculative: usize,
        /// Followed by landed migrations joining the batch.
        joins: usize,
        /// Stamping somebody's first token.
        first_tokens: usize,
        /// Finishing somebody.
        finishes: usize,
    }

    /// Checks `r` after an op: its pool is consistent, its kept sums equal a
    /// recount (debug builds), and every offered request (`offered[id]`) is
    /// in exactly one place: queued, running, arriving, handed off, completed
    /// (`done[id]` counts the completions collected so far), dropped, or
    /// drained by a crash and not yet re-offered (`drained`).
    fn check_replica(
        r: &mut Replica,
        offered: &[bool],
        done: &mut [u32],
        drained: &[FailoverRequest],
        what: &str,
    ) {
        for c in take_log(r) {
            done[c.id as usize] += 1;
        }
        assert_eq!(r.kv_pool_check(), Ok(()), "{what}");
        r.check_sums();
        let mut seen = done.to_vec();
        let held = r.queue.iter().map(|e| e.req.id);
        let held = held.chain(r.running.iter().map(|e| e.req.id));
        let held = held.chain(r.arriving.iter().map(|(e, _)| e.req.id));
        let held = held.chain(r.handoffs.iter().map(|m| m.req.id));
        let held = held.chain(r.dropped_ids.iter().copied());
        for id in held.chain(drained.iter().map(|f| f.req.id)) {
            seen[id as usize] += 1;
        }
        for (id, (&offered, &seen)) in offered.iter().zip(&seen).enumerate() {
            assert_eq!(seen, u32::from(offered), "{what}: request {id}");
        }
    }

    /// Feeds one replica a random op sequence and checks it after every op
    /// (`check_replica`). Returns what its decode steps covered and its final
    /// accounting.
    fn drive_ops(cfg: &ServeConfig, seed: u64) -> (Coverage, ReplicaStats) {
        const OPS: usize = 4_000;
        let mut r = Replica::new(cfg, 0);
        let mut rng = OpRng(seed);
        let (mut now, mut next_id) = (0.0f64, 0u64);
        let mut coverage = Coverage::default();
        let mut failovers: Vec<FailoverRequest> = Vec::new();
        // By request id; an op makes at most one request.
        let (mut offered, mut done) = (vec![false; OPS + 1], vec![0u32; OPS + 1]);
        for op in 0..OPS {
            let roll = rng.below(100);
            // Ops land between the last event and the next, as a driver's do.
            let t = match r.next_event_s() {
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
                        if r.next_event_s() == f64::MAX {
                            break;
                        }
                        now = r.next_event_s();
                        if let Some(PendingStep {
                            work:
                                StepWork::Decode {
                                    tokens,
                                    speculative,
                                },
                            ..
                        }) = r.step
                        {
                            let run = r.run.as_deref().expect("a decoding batch has its run");
                            coverage.steps += 1;
                            coverage.speculative += usize::from(speculative);
                            coverage.finishes +=
                                usize::from(run.lag + tokens as usize >= run.to_finish);
                            coverage.first_tokens += usize::from(run.unstamped > 0);
                            coverage.joins += usize::from(!r.arriving.is_empty());
                        }
                        r.on_step_complete(now);
                        check_replica(&mut r, &offered, &mut done, &failovers, &what);
                    }
                }
                60..=74 => {
                    let req = fresh(&mut rng);
                    offered[req.id as usize] = true;
                    r.enqueue(req, t);
                }
                75..=82 if r.is_up() => {
                    let req = fresh(&mut rng);
                    let entry = MigratedEntry {
                        req,
                        generated: rng.below(req.output_len),
                        admitted_s: t,
                        preemptions: 0,
                        source_blocks: 0,
                        wire_blocks: 0,
                    };
                    if let Some(blocks) = r.plan_inbound(&entry, 0) {
                        r.reserve_inbound(blocks);
                        // One reservation in four is an aborted transfer.
                        if roll == 75 {
                            r.cancel_inbound(blocks);
                        } else {
                            offered[req.id as usize] = true;
                            r.deliver_migrated(entry, blocks, t);
                        }
                    }
                }
                83..=84 if r.is_up() => failovers.extend(r.crash(t)),
                85..=88 if !r.is_up() => r.restart(t),
                89..=93 => {
                    let fo = failovers.pop().unwrap_or_else(|| {
                        let req = fresh(&mut rng);
                        offered[req.id as usize] = true;
                        FailoverRequest {
                            req,
                            generated: rng.below(req.output_len),
                            first_token_s: Some(t),
                            admitted_s: Some(t),
                            preemptions: 1,
                        }
                    });
                    r.enqueue_failover(fo, t);
                }
                94..=96 => r.set_slow_factor([1.0, 1.5, 3.0][rng.below(3)]),
                _ => r.kick(t),
            }
            check_replica(&mut r, &offered, &mut done, &failovers, &what);
        }
        (coverage, r.stats(now))
    }

    #[test]
    fn a_replica_conserves_requests_and_sums_at_every_op() {
        // Every decode step, vanilla or speculative, is carried by the run's
        // sums, through joins, first tokens, finishes, preemptions and
        // crashes; debug builds recount the sums after every op.
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
                    let mut cfg = with_a_3000_token_pool(config().with_sd_mode(sd_mode.clone()));
                    cfg.max_output_tokens = 256;
                    cfg.max_running_requests = 12;
                    cfg.preemption = preemption;
                    cfg.kv_accounting = kv_accounting;
                    let seed = (i * 8 + usize::from(preemption) * 4) as u64
                        + u64::from(sd_mode == SdMode::Disabled);
                    let (coverage, stats) = drive_ops(&cfg, seed);
                    let cell = format!("{kv_accounting:?} {preemption} {sd_mode:?}");
                    assert!(coverage.steps > 500, "{cell}: {coverage:?}");
                    assert_eq!(
                        coverage.speculative > 0,
                        sd_mode != SdMode::Disabled,
                        "{cell}"
                    );
                    assert!(coverage.finishes >= 10, "{cell}: {coverage:?}");
                    // Only a migrated entry reaches a decode step unstamped.
                    assert!(coverage.joins >= 2, "{cell}: {coverage:?}");
                    assert!(coverage.first_tokens >= 2, "{cell}: {coverage:?}");
                    assert_eq!(stats.preemptions > 0, preemption, "{cell}");
                    assert!(stats.crashes > 0 && stats.failovers > 0, "{cell}");
                }
            }
        }
    }
}
