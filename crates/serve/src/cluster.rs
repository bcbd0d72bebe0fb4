//! Disaggregated prefill/decode serving cluster.
//!
//! [`ClusterSim`] splits the deployment into a **prefill pool** and a **decode
//! pool** joined by a serial KV [`TransferLink`]. A request's lifecycle:
//!
//! 1. The frontend routes the arrival to a prefill replica by **prefix-cache
//!    affinity** — the replica whose resident prefix cache holds the most
//!    blocks of the request's prefix wins; without a hit, least outstanding
//!    prefill tokens — so shared-prefix traffic concentrates where its KV
//!    already lives.
//! 2. The prefill replica runs the (possibly prefix-cached) prefill and hands
//!    the sequence off as a [`MigratedEntry`]: a block-table handoff whose
//!    private blocks stay charged on the source as an *outbound* migration.
//! 3. The handoff is dispatched FIFO to the decode replica with the least
//!    outstanding decode work that can reserve the sequence's blocks
//!    (*inbound* charge), and the KV crosses the link at its configured
//!    bandwidth + latency, costed from block count × block bytes.
//! 4. On landing, the decode replica merges the sequence into its batch with
//!    **zero recompute** and streams tokens to completion.
//!
//! A reactive autoscaler (optional) ticks on a fixed interval and grows or
//! drains either pool one replica at a time against queue-depth / outstanding-
//! token signals, with drain-before-retire semantics: a draining replica takes
//! no new work and leaves the pool only when it is completely empty and no
//! in-flight migration references it.
//!
//! Everything — routing, dispatch, autoscaling, transfer timing — is a pure
//! function of the configuration and seed, so cluster runs are bit-identical
//! per seed (the chaos harness double-runs and compares flight-recorder event
//! streams).

use crate::balancer::{BalancerPolicy, LoadBalancer};
use crate::config::ServeConfig;
use crate::events::{drive, DriveOutcome, DriveState, Driver, EventCore, EventKey};
use crate::metrics::ServeReport;
use crate::replica::{FailoverRequest, MigratedEntry, Replica};
use crate::request::ServeRequest;
use crate::transfer::{TransferLink, TransferLinkConfig};
use serde::Serialize;
use std::collections::VecDeque;
use tlt_obs::{hooks, record, EventKind, ObsEvent, Track, NO_REQ};

/// Reactive autoscaler parameters. Signals are per-*active*-replica averages
/// sampled at each tick; one scaling action per pool per tick.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct AutoscaleConfig {
    /// Seconds between autoscaler decisions.
    pub interval_s: f64,
    /// Prefill-pool size bounds.
    pub min_prefill: usize,
    /// Upper bound on prefill replicas.
    pub max_prefill: usize,
    /// Decode-pool size bounds.
    pub min_decode: usize,
    /// Upper bound on decode replicas.
    pub max_decode: usize,
    /// Scale the prefill pool up when mean queued requests per active prefill
    /// replica exceeds this.
    pub prefill_queue_high: f64,
    /// Scale the prefill pool down when the same signal falls below this.
    pub prefill_queue_low: f64,
    /// Scale the decode pool up when mean outstanding tokens per active decode
    /// replica exceeds this.
    pub decode_tokens_high: f64,
    /// Scale the decode pool down when the same signal falls below this.
    pub decode_tokens_low: f64,
    /// Seconds between a scale-up decision and the new replica taking work.
    pub spawn_delay_s: f64,
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        AutoscaleConfig {
            interval_s: 2.0,
            min_prefill: 1,
            max_prefill: 8,
            min_decode: 1,
            max_decode: 8,
            prefill_queue_high: 4.0,
            prefill_queue_low: 0.5,
            decode_tokens_high: 24_000.0,
            decode_tokens_low: 4_000.0,
            spawn_delay_s: 1.0,
        }
    }
}

impl AutoscaleConfig {
    fn validate(&self) {
        assert!(
            self.interval_s.is_finite() && self.interval_s > 0.0,
            "autoscale interval must be finite and positive"
        );
        assert!(
            self.min_prefill >= 1 && self.min_prefill <= self.max_prefill,
            "prefill bounds must satisfy 1 <= min <= max"
        );
        assert!(
            self.min_decode >= 1 && self.min_decode <= self.max_decode,
            "decode bounds must satisfy 1 <= min <= max"
        );
        assert!(
            self.spawn_delay_s.is_finite() && self.spawn_delay_s >= 0.0,
            "spawn delay must be finite and non-negative"
        );
        // A NaN threshold compares false both ways and silently pins its pool;
        // low >= high drains and respawns on alternate ticks.
        for threshold in [
            self.prefill_queue_high,
            self.prefill_queue_low,
            self.decode_tokens_high,
            self.decode_tokens_low,
        ] {
            assert!(
                threshold.is_finite() && threshold >= 0.0,
                "autoscale thresholds must be finite and non-negative"
            );
        }
        assert!(
            self.prefill_queue_low < self.prefill_queue_high,
            "prefill_queue_low must be below prefill_queue_high"
        );
        assert!(
            self.decode_tokens_low < self.decode_tokens_high,
            "decode_tokens_low must be below decode_tokens_high"
        );
    }
}

/// Configuration of a disaggregated cluster.
#[derive(Debug, Clone)]
pub struct DisaggConfig {
    /// Per-replica engine configuration shared by both pools. Must use paged
    /// KV accounting — migration is a block-table handoff.
    pub base: ServeConfig,
    /// Initial prefill-pool size.
    pub prefill_replicas: usize,
    /// Initial decode-pool size.
    pub decode_replicas: usize,
    /// The pool-to-pool KV transfer link.
    pub link: TransferLinkConfig,
    /// Optional reactive autoscaler.
    pub autoscale: Option<AutoscaleConfig>,
}

impl DisaggConfig {
    /// A cluster of `prefill_replicas` + `decode_replicas` over `base`, with
    /// the default NVLink-class link and no autoscaler.
    ///
    /// # Panics
    ///
    /// Panics unless `base` uses paged KV accounting and both pools are
    /// non-empty.
    pub fn new(base: ServeConfig, prefill_replicas: usize, decode_replicas: usize) -> Self {
        let config = DisaggConfig {
            base,
            prefill_replicas,
            decode_replicas,
            link: TransferLinkConfig::default(),
            autoscale: None,
        };
        config.validate();
        config
    }

    /// Replaces the transfer-link parameters.
    pub fn with_link(mut self, link: TransferLinkConfig) -> Self {
        link.validate();
        self.link = link;
        self
    }

    /// Enables the reactive autoscaler.
    pub fn with_autoscale(mut self, autoscale: AutoscaleConfig) -> Self {
        autoscale.validate();
        self.autoscale = Some(autoscale);
        self
    }

    fn validate(&self) {
        assert!(
            self.base.kv_accounting.block_size().is_some(),
            "disaggregated serving requires paged KV accounting (the migration \
             unit is the block)"
        );
        assert!(
            self.prefill_replicas >= 1 && self.decode_replicas >= 1,
            "both pools need at least one replica"
        );
        self.link.validate();
        if let Some(a) = &self.autoscale {
            a.validate();
            assert!(
                self.prefill_replicas >= a.min_prefill
                    && self.prefill_replicas <= a.max_prefill
                    && self.decode_replicas >= a.min_decode
                    && self.decode_replicas <= a.max_decode,
                "initial pool sizes must lie within the autoscale bounds"
            );
        }
        // Per-replica block geometry must be identical across pools for the
        // block-table handoff to be meaningful; both pools share `base`, so
        // only a zero budget can break this.
        assert!(
            self.base.kv_block_budget() > 0,
            "replica KV budget must hold at least one block"
        );
    }
}

/// Which pool a replica belongs to (event args encode prefill=0, decode=1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pool {
    Prefill,
    Decode,
}

impl Pool {
    fn arg(self) -> f64 {
        match self {
            Pool::Prefill => 0.0,
            Pool::Decode => 1.0,
        }
    }
}

/// A pool member with its autoscaler lifecycle state.
#[derive(Debug, Clone)]
struct PoolReplica {
    replica: Replica,
    /// Takes no new work; retires when empty and unreferenced.
    draining: bool,
    /// Left the pool (terminal; stops costing replica-seconds).
    retired: bool,
    /// Spawn warm-up: takes no work before this time.
    ready_at_s: f64,
    /// In-flight transfers bound for this (decode) replica, and the blocks
    /// they reserved on it: kept in step with `ClusterSim::in_flight`.
    bound_entries: usize,
    bound_blocks: usize,
}

impl PoolReplica {
    fn new(replica: Replica, ready_at_s: f64) -> Self {
        PoolReplica {
            replica,
            draining: false,
            retired: false,
            ready_at_s,
            bound_entries: 0,
            bound_blocks: 0,
        }
    }

    /// Eligible for new work right now (asked of live members only).
    fn accepting(&self, now: f64) -> bool {
        self.replica.is_up() && !self.draining && now + 1e-12 >= self.ready_at_s
    }
}

/// One pool: every member ever spawned — a retired replica keeps its index,
/// track, RNG stream and statistics until the report — plus the ascending
/// indices of the live (non-retired) ones, which is all that per-event and
/// per-arrival code walks. The autoscaler never reuses a retired slot, so a
/// long run retires hundreds of members while a handful stay live.
#[derive(Debug, Clone, Default)]
struct ReplicaPool {
    members: Vec<PoolReplica>,
    live: Vec<usize>,
    /// Live members currently draining; retirement checks are skipped at 0.
    draining: usize,
}

impl ReplicaPool {
    /// Adds a fresh live member and returns its index.
    fn push(&mut self, member: PoolReplica) -> usize {
        let index = self.members.len();
        self.members.push(member);
        self.live.push(index);
        index
    }

    /// Every member ever spawned, retired ones included, in index order.
    fn iter(&self) -> std::slice::Iter<'_, PoolReplica> {
        self.members.iter()
    }

    /// `(index, member)` of every live member, in index order.
    fn live(&self) -> impl Iterator<Item = (usize, &PoolReplica)> {
        self.live.iter().map(|&i| (i, &self.members[i]))
    }

    /// Provisioned (non-retired) members.
    fn provisioned(&self) -> usize {
        self.live.len()
    }

    fn set_draining(&mut self, i: usize, draining: bool) {
        debug_assert!(self.members[i].draining != draining && !self.members[i].retired);
        self.members[i].draining = draining;
        if draining {
            self.draining += 1;
        } else {
            self.draining -= 1;
        }
    }

    /// Retires, in index order, every draining member that is empty and not
    /// `referenced` by a migration; returns how many left the pool.
    fn retire_drained(
        &mut self,
        pool: Pool,
        now: f64,
        referenced: impl Fn(usize, &PoolReplica) -> bool,
    ) -> u64 {
        if self.draining == 0 {
            return 0;
        }
        let members = &mut self.members;
        let before = self.live.len();
        self.live.retain(|&i| {
            let p = &mut members[i];
            if !p.draining || p.replica.has_work() || referenced(i, p) {
                return true;
            }
            p.retired = true;
            p.replica.release_buffers();
            record(
                ObsEvent::instant(now, Track::Autoscaler, EventKind::Retire, NO_REQ)
                    .with_args(i as f64, pool.arg()),
            );
            false
        });
        let retired = before - self.live.len();
        self.draining -= retired;
        retired as u64
    }

    /// The live list is exactly the non-retired members in ascending order,
    /// and `draining` counts the live members that are draining.
    fn is_consistent(&self) -> bool {
        self.live
            .iter()
            .copied()
            .eq((0..self.members.len()).filter(|&i| !self.members[i].retired))
            && self.draining == self.live().filter(|(_, p)| p.draining).count()
    }
}

impl std::ops::Index<usize> for ReplicaPool {
    type Output = PoolReplica;

    fn index(&self, i: usize) -> &PoolReplica {
        &self.members[i]
    }
}

impl std::ops::IndexMut<usize> for ReplicaPool {
    fn index_mut(&mut self, i: usize) -> &mut PoolReplica {
        &mut self.members[i]
    }
}

/// A migration on the wire.
#[derive(Debug, Clone)]
struct InFlightTransfer {
    entry: MigratedEntry,
    source: usize,
    dest: usize,
    reserved_blocks: usize,
    start_s: f64,
    finish_s: f64,
}

/// Event classes for deterministic same-time ordering: transfer landings,
/// then prefill steps, then decode steps, then autoscaler ticks.
const CLASS_TRANSFER: u8 = 0;
const CLASS_PREFILL: u8 = 1;
const CLASS_DECODE: u8 = 2;
const CLASS_TICK: u8 = 3;

/// The disaggregated cluster simulator, driven through [`Driver`] like
/// [`ServeSim`](crate::ServeSim). Faults address replicas by **global fault
/// index**: `< initial prefill size` is the prefill pool, the rest the decode
/// pool, both by initial numbering (stable under autoscaling).
#[derive(Debug, Clone)]
pub struct ClusterSim {
    config: DisaggConfig,
    prefill: ReplicaPool,
    decode: ReplicaPool,
    /// Initial prefill-pool size: global fault indices `< this` address the
    /// prefill pool, the rest the decode pool (stable under autoscaling).
    initial_prefill: usize,
    link: TransferLink,
    /// Migrations on the wire, in landing order (the serial link guarantees
    /// the front finishes first).
    in_flight: VecDeque<InFlightTransfer>,
    /// Handoffs awaiting a feasible decode destination, FIFO.
    pending: VecDeque<(MigratedEntry, usize)>,
    fallback: LoadBalancer,
    /// Clock, completion log, orphans (parked while no prefill replica is
    /// up), fault counters, budget and event core.
    state: DriveState,
    aborted_transfers: u64,
    scale_ups: u64,
    scale_downs: u64,
    retires: u64,
    /// Autoscaler ticks already fired.
    ticks: u64,
    /// Provisioned-capacity integral: Σ provisioned replicas × dt.
    replica_seconds: f64,
    last_account_s: f64,
}

/// Cluster-level outcome: the standard serving report plus migration, link,
/// and autoscaler accounting. `goodput_per_replica` is the headline metric —
/// SLO-meeting completions per second per provisioned replica.
#[derive(Debug, Clone, Serialize)]
pub struct ClusterReport {
    /// The standard serving report over both pools' replicas.
    pub serve: ServeReport,
    /// Final prefill-pool size (provisioned, i.e. not retired).
    pub prefill_replicas: usize,
    /// Final decode-pool size (provisioned).
    pub decode_replicas: usize,
    /// Migrations scheduled over the link.
    pub migrations: u64,
    /// Blocks moved over the link.
    pub migrated_blocks: u64,
    /// Migrations abandoned mid-wire by a crash.
    pub aborted_transfers: u64,
    /// Seconds the link was held.
    pub transfer_busy_s: f64,
    /// Mean wire time per migration.
    pub mean_transfer_s: f64,
    /// Autoscaler scale-up actions.
    pub scale_ups: u64,
    /// Autoscaler scale-down (drain) actions.
    pub scale_downs: u64,
    /// Drained replicas that left the pool.
    pub retires: u64,
    /// Time-averaged provisioned replica count over the makespan.
    pub avg_active_replicas: f64,
    /// `serve.goodput_rps / avg_active_replicas`.
    pub goodput_per_replica: f64,
}

impl ClusterSim {
    /// Builds the cluster: prefill replicas `0..P` (tracked as `prefill {i}`)
    /// and decode replicas (engine indices `1000 + j`, tracked as
    /// `decode {j}`) with disjoint deterministic RNG streams.
    pub fn new(config: DisaggConfig) -> Self {
        config.validate();
        let block_size = config
            .base
            .kv_accounting
            .block_size()
            .expect("validated paged");
        let block_bytes =
            (config.base.cost.model.kv_bytes_per_token() * block_size as f64).ceil() as usize;
        let link = TransferLink::new(config.link, block_bytes);
        let mut sim = ClusterSim {
            prefill: ReplicaPool::default(),
            decode: ReplicaPool::default(),
            initial_prefill: config.prefill_replicas,
            link,
            in_flight: VecDeque::new(),
            pending: VecDeque::new(),
            fallback: LoadBalancer::new(BalancerPolicy::LeastOutstandingTokens),
            state: DriveState::default(),
            aborted_transfers: 0,
            scale_ups: 0,
            scale_downs: 0,
            retires: 0,
            ticks: 0,
            replica_seconds: 0.0,
            last_account_s: 0.0,
            config,
        };
        for i in 0..sim.config.prefill_replicas {
            let fresh = sim.spawn_prefill(i, 0.0);
            sim.prefill.push(fresh);
        }
        for j in 0..sim.config.decode_replicas {
            let fresh = sim.spawn_decode(j, 0.0);
            sim.decode.push(fresh);
        }
        sim.touch_tick();
        sim
    }

    /// Re-pushes prefill replica `i`'s key after a mutation that started from
    /// next-event time `before_s` (unchanged keys push nothing).
    fn touch_prefill(&mut self, i: usize, before_s: f64) {
        if self.state.core == EventCore::IndexedHeap {
            let now = self.prefill[i].replica.next_event_s();
            if now.to_bits() != before_s.to_bits() {
                self.state.queue.push(now, CLASS_PREFILL, i);
            }
        }
    }

    /// Re-pushes decode replica `j`'s key; see [`ClusterSim::touch_prefill`].
    fn touch_decode(&mut self, j: usize, before_s: f64) {
        if self.state.core == EventCore::IndexedHeap {
            let now = self.decode[j].replica.next_event_s();
            if now.to_bits() != before_s.to_bits() {
                self.state.queue.push(now, CLASS_DECODE, j);
            }
        }
    }

    /// Pushes the current link-front landing time (called whenever the front
    /// of `in_flight` may have changed; duplicates are discarded lazily).
    fn touch_link(&mut self) {
        if self.state.core == EventCore::IndexedHeap {
            if let Some(t) = self.in_flight.front() {
                self.state.queue.push(t.finish_s, CLASS_TRANSFER, 0);
            }
        }
    }

    /// Pushes the next autoscaler tick's key (exactly one per fired tick, so
    /// tick keys are never duplicated).
    fn touch_tick(&mut self) {
        if self.state.core == EventCore::IndexedHeap {
            if let Some(a) = &self.config.autoscale {
                self.state
                    .queue
                    .push((self.ticks + 1) as f64 * a.interval_s, CLASS_TICK, 0);
            }
        }
    }

    fn spawn_prefill(&self, index: usize, ready_at_s: f64) -> PoolReplica {
        let mut replica = Replica::new(&self.config.base, index);
        replica.set_prefill_only(true);
        replica.set_track(Track::PrefillReplica(index as u32));
        PoolReplica::new(replica, ready_at_s)
    }

    fn spawn_decode(&self, index: usize, ready_at_s: f64) -> PoolReplica {
        // Engine index 1000 + j keeps the decode pool's RNG streams, stats
        // labels, and any per-replica cost overrides disjoint from prefill's.
        let mut replica = Replica::new(&self.config.base, 1000 + index);
        replica.set_track(Track::DecodeReplica(index as u32));
        PoolReplica::new(replica, ready_at_s)
    }

    /// Integrates the provisioned-capacity cost up to `t`.
    fn account_to(&mut self, t: f64) {
        let dt = t - self.last_account_s;
        if dt > 0.0 {
            let provisioned = self.prefill.provisioned() + self.decode.provisioned();
            self.replica_seconds += dt * provisioned as f64;
            self.last_account_s = t;
        }
    }

    /// See [`Driver::offer`]: routes a fresh arrival onto the prefill pool.
    pub fn offer(&mut self, req: ServeRequest) -> Option<usize> {
        let now = self.state.now_s.max(req.arrival_s);
        self.account_to(now);
        self.state.now_s = now;
        let target = self.route_prefill(&req);
        self.state.admit(&req, now, target);
        let i = target?;
        let before = self.prefill[i].replica.next_event_s();
        self.prefill[i].replica.enqueue(req, now);
        self.touch_prefill(i, before);
        Some(i)
    }

    /// Prefix-affinity routing over the prefill pool: the accepting replica
    /// holding the most resident blocks of the request's prefix wins (ties to
    /// the lowest index); with no resident hit anywhere, least outstanding
    /// prefill tokens. `None` when no prefill replica is accepting.
    fn route_prefill(&mut self, req: &ServeRequest) -> Option<usize> {
        let now = self.state.now_s;
        let accepting = || self.prefill.live().filter(|(_, p)| p.accepting(now));
        if req.prefix_id != 0 {
            let mut best = (0, None);
            for (i, p) in accepting() {
                let resident = p.replica.resident_prefix_blocks(req.prefix_id);
                if resident > best.0 {
                    best = (resident, Some(i));
                }
            }
            if best.1.is_some() {
                return best.1;
            }
        }
        self.fallback.pick_among(
            self.prefill.members.len(),
            accepting().map(|(i, p)| (i, p.replica.load())),
        )
    }

    /// Re-routes a crash-drained (or orphaned) request back through prefill.
    fn deliver_failover(&mut self, fo: FailoverRequest, now: f64) {
        match self.route_prefill(&fo.req) {
            Some(i) => {
                self.state.requeued += 1;
                let before = self.prefill[i].replica.next_event_s();
                self.prefill[i].replica.enqueue_failover(fo, now);
                self.touch_prefill(i, before);
            }
            None => self.state.orphans.push_back(fo),
        }
    }

    /// Drains fresh handoffs from a prefill replica into the dispatch queue.
    fn collect_handoffs(&mut self, source: usize) {
        let handoffs = self.prefill[source].replica.drain_handoffs();
        self.pending.extend(handoffs.map(|entry| (entry, source)));
    }

    /// Dispatches pending handoffs FIFO onto the link: each goes to the
    /// accepting decode replica with the least outstanding work (decode load
    /// plus blocks already bound its way) that can reserve the sequence's
    /// blocks. Strictly FIFO: an infeasible head blocks the queue (KV ordering
    /// is part of the determinism contract).
    fn dispatch_pending(&mut self, now: f64) {
        let link_was_idle = self.in_flight.is_empty();
        while let Some((entry, _source)) = self.pending.front() {
            let entry = *entry;
            let mut best: Option<(u64, usize, usize)> = None; // (score, dest, blocks)
            for (j, p) in self.decode.live() {
                if !p.accepting(now) {
                    continue;
                }
                let Some(blocks) = p.replica.plan_inbound(&entry, p.bound_entries) else {
                    continue;
                };
                let bound_tokens = (p.bound_blocks * self.block_size()) as u64;
                let score = p.replica.load().outstanding_tokens + bound_tokens;
                if best.map(|(s, d, _)| (score, j) < (s, d)).unwrap_or(true) {
                    best = Some((score, j, blocks));
                }
            }
            let Some((_score, dest, blocks)) = best else {
                break;
            };
            let (entry, source) = self.pending.pop_front().expect("front exists");
            let bound = &mut self.decode[dest];
            bound.replica.reserve_inbound(blocks);
            bound.bound_entries += 1;
            bound.bound_blocks += blocks;
            let (start_s, finish_s) = self.link.schedule(now, entry.wire_blocks);
            self.in_flight.push_back(InFlightTransfer {
                entry,
                source,
                dest,
                reserved_blocks: blocks,
                start_s,
                finish_s,
            });
        }
        // The serial link only grows at the back; the front key changes only
        // when a dispatch lands on a previously idle link.
        if link_was_idle {
            self.touch_link();
        }
    }

    /// Takes a transfer that left `in_flight` (landed or aborted) off its
    /// destination's bound counters.
    fn unbind(&mut self, t: &InFlightTransfer) {
        let dest = &mut self.decode[t.dest];
        dest.bound_entries -= 1;
        dest.bound_blocks -= t.reserved_blocks;
    }

    fn block_size(&self) -> usize {
        self.config
            .base
            .kv_accounting
            .block_size()
            .expect("validated paged")
    }

    /// Lands the front in-flight transfer (its `finish_s` is due now).
    fn land_transfer(&mut self, now: f64) {
        let t = self.in_flight.pop_front().expect("a transfer is due");
        self.unbind(&t);
        self.touch_link();
        record(
            ObsEvent::span(
                t.start_s,
                t.finish_s - t.start_s,
                Track::TransferLink,
                EventKind::Transfer,
                t.entry.req.id,
            )
            .with_args(t.entry.wire_blocks as f64, t.dest as f64),
        );
        // The source stayed up (a source crash aborts its transfers), so its
        // outbound charge releases exactly as the destination's reservation
        // converts into a running footprint.
        let before = self.prefill[t.source].replica.next_event_s();
        self.prefill[t.source]
            .replica
            .complete_outbound(t.entry.source_blocks);
        self.prefill[t.source].replica.kick(now);
        self.touch_prefill(t.source, before);
        let before = self.decode[t.dest].replica.next_event_s();
        let dest = t.dest;
        self.decode[t.dest]
            .replica
            .deliver_migrated(t.entry, t.reserved_blocks, now);
        self.touch_decode(dest, before);
        self.check_retirements(now);
        self.dispatch_pending(now);
    }

    /// Crashes prefill replica `i`: its held requests (queue, running batch,
    /// un-dispatched handoffs) fail over, its pending and in-flight migrations
    /// are aborted — the KV lived in the crashed pool — and every affected
    /// request is re-routed through the surviving prefill replicas for a fresh
    /// prefill.
    fn crash_prefill(&mut self, i: usize, now: f64) {
        self.state.crashes += 1;
        let mut failovers = self.prefill[i].replica.crash(now);
        // Pending handoffs whose KV died with the source.
        let mut kept = VecDeque::with_capacity(self.pending.len());
        for (entry, source) in std::mem::take(&mut self.pending) {
            if source == i {
                failovers.push(Self::migration_failover(entry));
            } else {
                kept.push_back((entry, source));
            }
        }
        self.pending = kept;
        // In-flight transfers from the dead source: release the destination's
        // reservation and re-queue the request.
        let mut kept = VecDeque::with_capacity(self.in_flight.len());
        for t in std::mem::take(&mut self.in_flight) {
            if t.source == i {
                self.unbind(&t);
                self.aborted_transfers += 1;
                self.link.note_abort();
                record(
                    ObsEvent::instant(
                        now,
                        Track::TransferLink,
                        EventKind::TransferAbort,
                        t.entry.req.id,
                    )
                    .with_args(t.entry.wire_blocks as f64, 0.0),
                );
                if self.decode[t.dest].replica.is_up() {
                    self.decode[t.dest]
                        .replica
                        .cancel_inbound(t.reserved_blocks);
                }
                failovers.push(Self::migration_failover(t.entry));
            } else {
                kept.push_back(t);
            }
        }
        self.in_flight = kept;
        self.touch_link();
        for fo in failovers {
            self.deliver_failover(fo, now);
        }
        self.dispatch_pending(now);
    }

    /// Crashes decode replica `j`: running/arriving sequences fail over for a
    /// fresh prefill; in-flight transfers to it are aborted with the request
    /// going back to the *front* of the dispatch queue — its KV is still
    /// intact on the source, which keeps the outbound charge until a retry
    /// lands elsewhere.
    fn crash_decode(&mut self, j: usize, now: f64) {
        self.state.crashes += 1;
        let failovers = self.decode[j].replica.crash(now);
        let mut retry: Vec<(MigratedEntry, usize)> = Vec::new();
        let mut kept = VecDeque::with_capacity(self.in_flight.len());
        for t in std::mem::take(&mut self.in_flight) {
            if t.dest == j {
                self.unbind(&t);
                self.aborted_transfers += 1;
                self.link.note_abort();
                record(
                    ObsEvent::instant(
                        now,
                        Track::TransferLink,
                        EventKind::TransferAbort,
                        t.entry.req.id,
                    )
                    .with_args(t.entry.wire_blocks as f64, 1.0),
                );
                retry.push((t.entry, t.source));
            } else {
                kept.push_back(t);
            }
        }
        self.in_flight = kept;
        self.touch_link();
        for item in retry.into_iter().rev() {
            self.pending.push_front(item);
        }
        for fo in failovers {
            self.deliver_failover(fo, now);
        }
        self.dispatch_pending(now);
    }

    /// A migration whose KV was lost: back through prefill, with the
    /// preemption counter charged for the forced recompute.
    fn migration_failover(entry: MigratedEntry) -> FailoverRequest {
        FailoverRequest {
            req: entry.req,
            generated: entry.generated,
            first_token_s: None,
            admitted_s: Some(entry.admitted_s),
            preemptions: entry.preemptions + 1,
        }
    }

    /// The next event due: `(time, class, index)` with the deterministic
    /// same-time order transfer < prefill step < decode step < tick.
    fn next_event(&self, include_ticks: bool) -> Option<(f64, u8, usize)> {
        let mut best: Option<(f64, u8, usize)> = None;
        let mut consider = |t: f64, class: u8, idx: usize| {
            if t == f64::MAX {
                return;
            }
            let better = match best {
                None => true,
                Some((bt, bc, bi)) => t < bt || (t == bt && (class, idx) < (bc, bi)),
            };
            if better {
                best = Some((t, class, idx));
            }
        };
        if let Some(t) = self.in_flight.front() {
            consider(t.finish_s, CLASS_TRANSFER, 0);
        }
        for (i, p) in self.prefill.live() {
            consider(p.replica.next_event_s(), CLASS_PREFILL, i);
        }
        for (j, p) in self.decode.live() {
            consider(p.replica.next_event_s(), CLASS_DECODE, j);
        }
        if include_ticks {
            if let Some(a) = &self.config.autoscale {
                consider((self.ticks + 1) as f64 * a.interval_s, CLASS_TICK, 0);
            }
        }
        best
    }

    /// Processes the event described by a validated `(time, class, index)`
    /// triple — the single dispatch shared by both event cores and both drive
    /// loops.
    fn dispatch_event(&mut self, et: f64, class: u8, idx: usize) {
        match class {
            CLASS_TRANSFER => self.land_transfer(et),
            CLASS_PREFILL => {
                let replica = &mut self.prefill[idx].replica;
                replica.on_step_complete(et);
                replica.move_completed_into(&mut self.state.log);
                self.touch_prefill(idx, et);
                self.collect_handoffs(idx);
                self.check_retirements(et);
                self.dispatch_pending(et);
            }
            CLASS_DECODE => {
                let replica = &mut self.decode[idx].replica;
                replica.on_step_complete(et);
                replica.move_completed_into(&mut self.state.log);
                self.touch_decode(idx, et);
                self.check_retirements(et);
                self.dispatch_pending(et);
            }
            _ => self.autoscale_tick(et),
        }
    }

    /// Pops the earliest *valid* due event strictly before `t`, discarding
    /// stale keys along the way. A due-but-suppressed tick (when
    /// `include_ticks` is false) is stashed and re-pushed on exit so the
    /// one-sided heap invariant survives drain loops that exclude ticks.
    fn pop_due_event(&mut self, t: f64, include_ticks: bool) -> Option<(f64, u8, usize)> {
        let mut deferred_tick: Option<EventKey> = None;
        let due = loop {
            let Some(key) = self.state.queue.peek() else {
                break None;
            };
            if key.time_s() >= t {
                break None;
            }
            let key = self.state.queue.pop().expect("peeked");
            let (class, idx) = (key.class(), key.index());
            let valid = match class {
                CLASS_TRANSFER => {
                    self.in_flight.front().map(|f| f.finish_s.to_bits()) == Some(key.time_bits())
                }
                CLASS_PREFILL => {
                    self.prefill[idx].replica.next_event_s().to_bits() == key.time_bits()
                }
                CLASS_DECODE => {
                    self.decode[idx].replica.next_event_s().to_bits() == key.time_bits()
                }
                _ => {
                    self.config
                        .autoscale
                        .as_ref()
                        .map(|a| ((self.ticks + 1) as f64 * a.interval_s).to_bits())
                        == Some(key.time_bits())
                }
            };
            if !valid {
                hooks::on_sim_stale_event();
                continue;
            }
            if class == CLASS_TICK && !include_ticks {
                // Tick keys are never duplicated, so one stash slot suffices.
                deferred_tick = Some(key);
                continue;
            }
            break Some((key.time_s(), class, idx));
        };
        if let Some(key) = deferred_tick {
            self.state.queue.push_key(key);
        }
        due
    }

    /// The one event loop: processes every due event strictly before `t`,
    /// under either core. While draining, autoscaler ticks fire only as long
    /// as work remains, so the loop terminates.
    fn run_events(&mut self, t: f64, draining: bool) -> DriveOutcome {
        loop {
            let include_ticks = !draining || self.has_work();
            let next = match self.state.core {
                EventCore::IndexedHeap => self.pop_due_event(t, include_ticks),
                EventCore::LinearScan => self.next_event(include_ticks).filter(|e| e.0 < t),
            };
            let Some((et, class, idx)) = next else {
                return DriveOutcome::Completed;
            };
            if !self.state.begin_event() {
                // Put the valid key back and stop.
                if self.state.core == EventCore::IndexedHeap {
                    self.state.queue.push(et, class, idx);
                }
                return self.state.budget_outcome();
            }
            self.account_to(et);
            self.state.now_s = self.state.now_s.max(et);
            self.dispatch_event(et, class, idx);
        }
    }

    /// See [`Driver::advance_before`]; the clock is then moved to `t`.
    pub fn advance_before(&mut self, t: f64) -> DriveOutcome {
        let outcome = self.run_events(t, false);
        self.advance_now(t);
        outcome
    }

    /// See [`Driver::run_until_drained`].
    pub fn run_until_drained(&mut self) -> DriveOutcome {
        self.run_events(f64::MAX, true)
    }

    /// One autoscaler decision: at most one action per pool, driven by
    /// per-active-replica signals. Scale-up first re-activates a draining
    /// replica (free), else spawns a fresh one after the warm-up delay;
    /// scale-down drains the highest-index active replica.
    fn autoscale_tick(&mut self, now: f64) {
        self.ticks += 1;
        self.touch_tick();
        let a = *self.config.autoscale.as_ref().expect("ticks imply config");

        // Prefill pool: queue-depth signal.
        if let Some((active, queued, last)) =
            Self::active_signal(&self.prefill, now, |r| r.load().queued as u64)
        {
            let per = queued as f64 / active as f64;
            if per > a.prefill_queue_high && self.prefill.provisioned() < a.max_prefill {
                self.scale_up(Pool::Prefill, now);
            } else if per < a.prefill_queue_low && active > a.min_prefill {
                self.scale_down(Pool::Prefill, last, now);
            }
        }

        // Decode pool: outstanding-token signal (decode work plus blocks
        // already bound over the link).
        if let Some((active, mut outstanding, last)) =
            Self::active_signal(&self.decode, now, |r| r.load().outstanding_tokens)
        {
            outstanding += self
                .in_flight
                .iter()
                .map(|t| (t.reserved_blocks * self.block_size()) as u64)
                .sum::<u64>();
            let per = outstanding as f64 / active as f64;
            if per > a.decode_tokens_high && self.decode.provisioned() < a.max_decode {
                self.scale_up(Pool::Decode, now);
            } else if per < a.decode_tokens_low && active > a.min_decode {
                self.scale_down(Pool::Decode, last, now);
            }
        }

        self.check_retirements(now);
        self.dispatch_pending(now);
    }

    /// Over the accepting members of `pool`: how many there are, the sum of
    /// `signal` over them, and the highest index among them (the scale-down
    /// victim). `None` when nothing is accepting.
    fn active_signal(
        pool: &ReplicaPool,
        now: f64,
        signal: impl Fn(&Replica) -> u64,
    ) -> Option<(usize, u64, usize)> {
        let mut active = None;
        for (i, p) in pool.live().filter(|(_, p)| p.accepting(now)) {
            let (count, sum, _) = active.unwrap_or((0, 0, i));
            active = Some((count + 1, sum + signal(&p.replica), i));
        }
        active
    }

    fn scale_up(&mut self, pool: Pool, now: f64) {
        self.scale_ups += 1;
        let a = self.config.autoscale.as_ref().expect("autoscale on");
        let members = match pool {
            Pool::Prefill => &mut self.prefill,
            Pool::Decode => &mut self.decode,
        };
        // Cheapest capacity first: cancel an in-progress drain.
        let draining = members.live().find(|(_, p)| p.draining).map(|(i, _)| i);
        if let Some(i) = draining {
            members.set_draining(i, false);
            let before = members[i].replica.next_event_s();
            members[i].replica.kick(now);
            match pool {
                Pool::Prefill => self.touch_prefill(i, before),
                Pool::Decode => self.touch_decode(i, before),
            }
            record(
                ObsEvent::instant(now, Track::Autoscaler, EventKind::ScaleUp, NO_REQ)
                    .with_args(i as f64, pool.arg()),
            );
            return;
        }
        let ready = now + a.spawn_delay_s;
        let index = match pool {
            Pool::Prefill => {
                let fresh = self.spawn_prefill(self.prefill.members.len(), ready);
                self.prefill.push(fresh)
            }
            Pool::Decode => {
                let fresh = self.spawn_decode(self.decode.members.len(), ready);
                self.decode.push(fresh)
            }
        };
        record(
            ObsEvent::instant(now, Track::Autoscaler, EventKind::ScaleUp, NO_REQ)
                .with_args(index as f64, pool.arg()),
        );
    }

    fn scale_down(&mut self, pool: Pool, victim: usize, now: f64) {
        self.scale_downs += 1;
        match pool {
            Pool::Prefill => self.prefill.set_draining(victim, true),
            Pool::Decode => self.decode.set_draining(victim, true),
        }
        record(
            ObsEvent::instant(now, Track::Autoscaler, EventKind::ScaleDown, NO_REQ)
                .with_args(victim as f64, pool.arg()),
        );
    }

    /// Retires draining replicas that are empty and unreferenced by any
    /// pending or in-flight migration (drain-before-retire). Costs nothing
    /// while no live replica is draining.
    fn check_retirements(&mut self, now: f64) {
        let (in_flight, pending) = (&self.in_flight, &self.pending);
        self.retires += self.prefill.retire_drained(Pool::Prefill, now, |i, _| {
            in_flight.iter().any(|t| t.source == i) || pending.iter().any(|(_, s)| *s == i)
        });
        self.retires += self
            .decode
            .retire_drained(Pool::Decode, now, |_, p| p.bound_entries > 0);
        debug_assert!(self.pools_consistent());
    }

    /// The invariants the live lists and bound counters are kept under: each
    /// live list is `{i : !retired}` in ascending order and within the
    /// autoscaler's ceiling, and each decode replica's bound counters match
    /// the transfers on the wire toward it.
    fn pools_consistent(&self) -> bool {
        let within_bounds = self.config.autoscale.as_ref().is_none_or(|a| {
            self.prefill.provisioned() <= a.max_prefill && self.decode.provisioned() <= a.max_decode
        });
        let bound_matches = self.decode.iter().enumerate().all(|(j, p)| {
            let toward = self.in_flight.iter().filter(|t| t.dest == j);
            let (entries, blocks) = toward.fold((0, 0), |(entries, blocks), t| {
                (entries + 1, blocks + t.reserved_blocks)
            });
            (p.bound_entries, p.bound_blocks) == (entries, blocks)
        });
        within_bounds
            && bound_matches
            && self.prefill.is_consistent()
            && self.decode.is_consistent()
    }

    /// Migrations abandoned mid-wire by crashes.
    pub fn aborted_transfers(&self) -> u64 {
        self.aborted_transfers
    }

    /// Final report over both pools (SLO from the base config), built around
    /// the completion log as [`ServeSim::into_report`](crate::ServeSim::into_report)
    /// is: one 72-byte record per completed request is what the run retained.
    pub fn into_report(mut self) -> ClusterReport {
        let members = self.prefill.members.iter_mut();
        let replicas = members
            .chain(self.decode.members.iter_mut())
            .map(|p| &mut p.replica);
        let log = std::mem::take(&mut self.state.log);
        let serve = ServeReport::from_run(log, replicas, self.config.base.slo);
        self.account_to(serve.makespan_s.max(self.state.now_s));
        let span = self.last_account_s.max(1e-9);
        let avg_active_replicas = self.replica_seconds / span;
        let goodput_per_replica = serve.goodput_rps / avg_active_replicas.max(1e-9);
        ClusterReport {
            prefill_replicas: self.prefill.provisioned(),
            decode_replicas: self.decode.provisioned(),
            migrations: self.link.transfers(),
            migrated_blocks: self.link.blocks_moved(),
            aborted_transfers: self.aborted_transfers,
            transfer_busy_s: self.link.busy_s(),
            mean_transfer_s: self.link.mean_transfer_s(),
            scale_ups: self.scale_ups,
            scale_downs: self.scale_downs,
            retires: self.retires,
            avg_active_replicas,
            goodput_per_replica,
            serve,
        }
    }
}

impl Driver for ClusterSim {
    type Report = ClusterReport;

    fn state(&self) -> &DriveState {
        &self.state
    }

    fn state_mut(&mut self) -> &mut DriveState {
        &mut self.state
    }

    /// Prefill pool first, then decode pool (prefill-only replicas never
    /// speculate, so the SD accept stream comes from the decode pool).
    fn members(&self) -> impl Iterator<Item = (&'static str, usize, &Replica)> {
        let prefill = self.prefill.iter().enumerate();
        let decode = self.decode.iter().enumerate();
        prefill
            .map(|(i, p)| ("prefill", i, &p.replica))
            .chain(decode.map(|(j, p)| ("decode", j, &p.replica)))
    }

    /// Re-seeds from the pool replicas, the link front and the next tick.
    fn set_event_core(&mut self, core: EventCore) {
        self.state.core = core;
        self.state.queue.clear();
        if core == EventCore::IndexedHeap {
            for (i, p) in self.prefill.live() {
                let t = p.replica.next_event_s();
                self.state.queue.push(t, CLASS_PREFILL, i);
            }
            for (j, p) in self.decode.live() {
                let t = p.replica.next_event_s();
                self.state.queue.push(t, CLASS_DECODE, j);
            }
            self.touch_link();
            self.touch_tick();
        }
    }

    fn advance_before(&mut self, t: f64) -> DriveOutcome {
        ClusterSim::advance_before(self, t)
    }

    /// Integrates the provisioned-capacity cost on the way.
    fn advance_now(&mut self, t: f64) {
        if t > self.state.now_s {
            self.account_to(t);
            self.state.now_s = t;
        }
    }

    fn offer(&mut self, req: ServeRequest) -> Option<usize> {
        ClusterSim::offer(self, req)
    }

    fn run_until_drained(&mut self) -> DriveOutcome {
        ClusterSim::run_until_drained(self)
    }

    /// Transfer landing, pool step or (while work remains) autoscaler tick.
    fn next_event_s(&self) -> f64 {
        self.next_event(self.has_work())
            .map(|(t, _, _)| t)
            .unwrap_or(f64::MAX)
    }

    fn has_work(&self) -> bool {
        !self.in_flight.is_empty()
            || !self.pending.is_empty()
            || !self.state.orphans.is_empty()
            || self
                .prefill
                .live()
                .chain(self.decode.live())
                .any(|(_, p)| p.replica.has_work())
    }

    fn crash_replica(&mut self, idx: usize, now: f64) {
        self.advance_now(now);
        if idx < self.initial_prefill {
            self.crash_prefill(idx, now);
        } else {
            self.crash_decode(idx - self.initial_prefill, now);
        }
    }

    /// Drains parked orphans back into routing once the replica is up.
    fn restart_replica(&mut self, idx: usize, now: f64) {
        self.advance_now(now);
        self.state.restarts += 1;
        if idx < self.initial_prefill {
            let before = self.prefill[idx].replica.next_event_s();
            self.prefill[idx].replica.restart(now);
            self.touch_prefill(idx, before);
        } else {
            let j = idx - self.initial_prefill;
            let before = self.decode[j].replica.next_event_s();
            self.decode[j].replica.restart(now);
            self.touch_decode(j, before);
        }
        while let Some(fo) = self.state.orphans.pop_front() {
            match self.route_prefill(&fo.req) {
                Some(i) => {
                    self.state.requeued += 1;
                    let before = self.prefill[i].replica.next_event_s();
                    self.prefill[i].replica.enqueue_failover(fo, now);
                    self.touch_prefill(i, before);
                }
                None => {
                    self.state.orphans.push_front(fo);
                    break;
                }
            }
        }
        self.dispatch_pending(now);
    }

    fn set_slow_factor(&mut self, idx: usize, factor: f64) {
        let (pool, i) = match idx.checked_sub(self.initial_prefill) {
            None => (&mut self.prefill, idx),
            Some(j) => (&mut self.decode, j),
        };
        pool[i].replica.set_slow_factor(factor);
    }

    fn into_report(self) -> ClusterReport {
        ClusterSim::into_report(self)
    }

    fn serve_report(report: &ClusterReport) -> &ServeReport {
        &report.serve
    }
}

/// Runs a full disaggregated simulation over a pre-sorted arrival stream,
/// mirroring [`crate::frontend::simulate_serving`].
pub fn simulate_disagg(
    config: DisaggConfig,
    arrivals: &[tlt_workload::RequestArrival],
) -> ClusterReport {
    let mut sim = ClusterSim::new(config);
    sim.state.reserve_completions(arrivals.len());
    drive(&mut sim, arrivals.iter().copied(), |_, _| {});
    sim.into_report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::drive_schedule;
    use tlt_gpusim::{GpuType, LlmCostModel};
    use tlt_model::ModelSpec;
    use tlt_workload::{generate_arrivals, ArrivalConfig, RequestArrival};

    fn base_config(seed: u64) -> ServeConfig {
        let cost = LlmCostModel::new(ModelSpec::qwen2_5_7b(), GpuType::H100.spec(), 1);
        let mut config = ServeConfig::new(cost, 1).with_paged_kv(16);
        config.kv_memory_fraction = 0.25;
        config.max_output_tokens = 256;
        config.seed = seed;
        config
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

    #[test]
    fn disagg_serves_everything_with_zero_recompute_and_no_leaks() {
        let arrivals = generate_arrivals(&ArrivalConfig::constant(6.0, 8.0, 42));
        let mut sim = ClusterSim::new(DisaggConfig::new(base_config(42), 2, 2));
        drive(&mut sim, arrivals.iter().copied(), |_, _| {});
        assert!(!sim.has_work(), "cluster drained");
        assert!(sim.kv_pool_check().is_ok());
        assert_eq!(sim.kv_pool_leaked(), 0, "all blocks free after drain");
        let report = sim.into_report();
        assert_eq!(
            report.serve.completed.len() + report.serve.dropped,
            arrivals.len()
        );
        assert_eq!(report.aborted_transfers, 0);
        // Every completion crossed the link exactly once (no crash retries).
        assert_eq!(report.migrations, report.serve.completed.len() as u64);
        let (prefill_out, prefill_done): (u64, usize) = report
            .serve
            .replicas
            .iter()
            .filter(|r| r.replica < 1000)
            .map(|r| (r.migrations_out, r.completed))
            .fold((0, 0), |acc, x| (acc.0 + x.0, acc.1 + x.1));
        assert_eq!(prefill_done, 0, "prefill replicas never decode");
        assert_eq!(prefill_out, report.migrations);
        let decode_in: u64 = report
            .serve
            .replicas
            .iter()
            .filter(|r| r.replica >= 1000)
            .map(|r| r.migrations_in)
            .sum();
        assert_eq!(decode_in, report.migrations);
        // Zero recompute: nothing that only migrated is charged a preemption.
        assert!(report.serve.completed.iter().all(|r| r.preemptions == 0));
        assert!(report.avg_active_replicas > 3.9 && report.avg_active_replicas < 4.1);
        assert!(report.goodput_per_replica > 0.0);
    }

    #[test]
    fn disagg_runs_are_bit_identical_per_seed() {
        let arrivals =
            generate_arrivals(&ArrivalConfig::constant(8.0, 6.0, 7).with_prefix(0.5, 256));
        let run = || simulate_disagg(DisaggConfig::new(base_config(7), 2, 2), &arrivals);
        let (a, b) = (run(), run());
        assert_eq!(a.serve.completed, b.serve.completed);
        assert_eq!(a.serve.replicas, b.serve.replicas);
        assert_eq!(a.migrations, b.migrations);
        assert_eq!(a.migrated_blocks, b.migrated_blocks);
        assert_eq!(a.transfer_busy_s.to_bits(), b.transfer_busy_s.to_bits());
        assert_eq!(
            a.goodput_per_replica.to_bits(),
            b.goodput_per_replica.to_bits()
        );
    }

    #[test]
    fn prefix_affinity_concentrates_a_shared_prefix_on_one_prefill_replica() {
        // All requests share prefix group 1; once the first prefill leaves the
        // group's blocks resident on the replica that ran it, every later
        // arrival must follow them there, whatever the load spread says.
        let arrivals: Vec<RequestArrival> = (0..12u64)
            .map(|id| RequestArrival {
                id,
                time_ns: id * 400_000_000,
                prompt_len: 512,
                output_len: 32,
                prefix_id: 1,
                prefix_len: 256,
            })
            .collect();
        let report = simulate_disagg(DisaggConfig::new(base_config(3), 2, 2), &arrivals);
        assert_eq!(report.serve.completed.len(), 12);
        let outs: Vec<u64> = report
            .serve
            .replicas
            .iter()
            .filter(|r| r.replica < 1000)
            .map(|r| r.migrations_out)
            .collect();
        assert_eq!(outs, vec![12, 0], "affinity pins the group to replica 0");
        let hit = report
            .serve
            .replicas
            .iter()
            .find(|r| r.replica == 0)
            .expect("prefill 0")
            .prefix_hit_rate;
        assert!(hit > 0.3, "resident prefix served repeatedly, got {hit}");
    }

    #[test]
    fn source_crash_mid_transfer_fails_over_losslessly() {
        let config = DisaggConfig::new(base_config(11), 2, 1).with_link(TransferLinkConfig {
            bandwidth_gbps: 50.0,
            latency_s: 0.5, // long enough to crash mid-wire
        });
        let mut sim = ClusterSim::new(config);
        sim.offer(request(0, 0.0, 512, 32));
        sim.advance_before(0.3); // prefill done, transfer on the wire
        assert_eq!(sim.in_flight.len(), 1, "transfer must be in flight");
        sim.crash_replica(0, 0.3); // the source (least-tokens routing picks 0)
        sim.run_until_drained();
        assert_eq!(sim.aborted_transfers(), 1);
        assert_eq!(sim.kv_pool_leaked(), 0);
        let report = sim.into_report();
        assert_eq!(
            report.serve.completed.len(),
            1,
            "request survives the crash"
        );
        assert_eq!(
            report.serve.completed[0].preemptions, 1,
            "the lost KV costs one recompute"
        );
    }

    #[test]
    fn dest_crash_mid_transfer_retries_without_recompute() {
        let config = DisaggConfig::new(base_config(13), 1, 1).with_link(TransferLinkConfig {
            bandwidth_gbps: 50.0,
            latency_s: 0.5,
        });
        let mut sim = ClusterSim::new(config);
        sim.offer(request(0, 0.0, 512, 32));
        sim.advance_before(0.3);
        assert_eq!(sim.in_flight.len(), 1, "transfer must be in flight");
        sim.crash_replica(1, 0.3); // global index 1 = decode 0
        assert_eq!(sim.pending.len(), 1, "entry back at the dispatch front");
        sim.restart_replica(1, 0.6); // retry dispatches on restart
        sim.run_until_drained();
        assert_eq!(sim.aborted_transfers(), 1);
        assert_eq!(sim.kv_pool_leaked(), 0);
        let report = sim.into_report();
        assert_eq!(report.serve.completed.len(), 1);
        assert_eq!(
            report.serve.completed[0].preemptions, 0,
            "the KV never left the source: the retry needs no recompute"
        );
        assert_eq!(report.migrations, 2, "original transfer plus the retry");
    }

    #[test]
    fn autoscaler_grows_under_load_and_drains_back_to_the_floor() {
        let autoscale = AutoscaleConfig {
            interval_s: 0.5,
            min_prefill: 1,
            max_prefill: 4,
            min_decode: 1,
            max_decode: 4,
            prefill_queue_high: 2.0,
            prefill_queue_low: 0.25,
            decode_tokens_high: 4_000.0,
            decode_tokens_low: 200.0,
            spawn_delay_s: 0.25,
        };
        let config = DisaggConfig::new(base_config(5), 1, 1).with_autoscale(autoscale);
        // 40 rps floods a 1+1 cluster (one H100 decode replica sustains about
        // a third of that), so both pools must grow, then drain on the tail.
        let arrivals = generate_arrivals(&ArrivalConfig::constant(40.0, 4.0, 5));
        let report = simulate_disagg(config, &arrivals);
        assert_eq!(
            report.serve.completed.len() + report.serve.dropped,
            arrivals.len()
        );
        assert!(report.scale_ups > 0, "the burst must trigger growth");
        assert!(
            report.scale_downs > 0 && report.retires > 0,
            "the drain tail must shrink the pools again (downs {}, retires {})",
            report.scale_downs,
            report.retires
        );
        assert!(
            report.avg_active_replicas > 2.0,
            "capacity grew, got {}",
            report.avg_active_replicas
        );
    }

    /// Bursts against a fast, eager autoscaler: both pools grow to their
    /// ceilings and drain back over and over, so retired members pile up
    /// beside the live ones. After every arrival and every probe (5 ms apart,
    /// a no-op action of the drive loop) the live lists must be exactly the
    /// non-retired members in ascending order, within the autoscaler's
    /// ceilings, with the bound counters matching the wire.
    #[test]
    fn live_lists_track_the_non_retired_members_through_autoscaler_churn() {
        let autoscale = AutoscaleConfig {
            interval_s: 0.25,
            min_prefill: 1,
            max_prefill: 3,
            min_decode: 1,
            max_decode: 4,
            prefill_queue_high: 2.0,
            prefill_queue_low: 0.25,
            decode_tokens_high: 4_000.0,
            decode_tokens_low: 500.0,
            spawn_delay_s: 0.1,
        };
        let mut sim =
            ClusterSim::new(DisaggConfig::new(base_config(9), 1, 1).with_autoscale(autoscale));
        let mut checks = 0u64;
        let check = |sim: &ClusterSim, _: f64| {
            checks += 1;
            for pool in [&sim.prefill, &sim.decode] {
                let expected: Vec<usize> = (0..pool.members.len())
                    .filter(|&i| !pool.members[i].retired)
                    .collect();
                assert_eq!(pool.live, expected, "at {}", sim.state.now_s);
            }
            assert!(sim.prefill.live.len() <= autoscale.max_prefill);
            assert!(sim.decode.live.len() <= autoscale.max_decode);
            assert!(sim.pools_consistent(), "at {}", sim.state.now_s);
        };
        // Ten bursts of 40 simultaneous requests, 6 s apart.
        let arrivals: Vec<RequestArrival> = (0..400u64)
            .map(|id| RequestArrival {
                id,
                time_ns: id / 40 * 6_000_000_000,
                prompt_len: 512,
                output_len: 48,
                prefix_id: 0,
                prefix_len: 0,
            })
            .collect();
        let probes: Vec<(f64, ())> = (0..14_000).map(|i| (i as f64 * 0.005, ())).collect();
        let outcome = drive_schedule(&mut sim, &arrivals, &probes, |_, _, _| {}, check);
        assert_eq!(outcome, DriveOutcome::Completed);
        assert!(
            !sim.has_work() && sim.state.now_s < 70.0,
            "probes cover the run"
        );
        assert!(checks > 14_000, "checked {checks} times");
        let retired = |pool: &ReplicaPool| pool.members.len() - pool.live.len();
        assert!(
            retired(&sim.prefill) >= 10 && retired(&sim.decode) >= 10,
            "churn must leave retired members behind: {} prefill, {} decode",
            retired(&sim.prefill),
            retired(&sim.decode)
        );
        let report = sim.into_report();
        assert_eq!(report.serve.completed.len(), 400);
        assert_eq!(
            report.serve.replicas.len() as u64,
            2 + report.retires + (report.prefill_replicas + report.decode_replicas - 2) as u64,
            "retired replicas stay in the report"
        );
    }

    fn autoscale_with(edit: impl FnOnce(&mut AutoscaleConfig)) -> AutoscaleConfig {
        let mut autoscale = AutoscaleConfig::default();
        edit(&mut autoscale);
        autoscale
    }

    #[test]
    #[should_panic(expected = "thresholds must be finite and non-negative")]
    fn nan_autoscale_threshold_is_rejected() {
        let autoscale = autoscale_with(|a| a.decode_tokens_high = f64::NAN);
        DisaggConfig::new(base_config(1), 1, 1).with_autoscale(autoscale);
    }

    #[test]
    #[should_panic(expected = "thresholds must be finite and non-negative")]
    fn negative_autoscale_threshold_is_rejected() {
        let autoscale = autoscale_with(|a| a.prefill_queue_low = -0.5);
        DisaggConfig::new(base_config(1), 1, 1).with_autoscale(autoscale);
    }

    #[test]
    #[should_panic(expected = "prefill_queue_low must be below prefill_queue_high")]
    fn inverted_prefill_thresholds_are_rejected() {
        let autoscale = autoscale_with(|a| a.prefill_queue_low = a.prefill_queue_high);
        DisaggConfig::new(base_config(1), 1, 1).with_autoscale(autoscale);
    }

    #[test]
    #[should_panic(expected = "decode_tokens_low must be below decode_tokens_high")]
    fn inverted_decode_thresholds_are_rejected() {
        let autoscale = autoscale_with(|a| a.decode_tokens_low = 2.0 * a.decode_tokens_high);
        DisaggConfig::new(base_config(1), 1, 1).with_autoscale(autoscale);
    }

    #[test]
    #[should_panic(expected = "paged KV accounting")]
    fn token_accounting_is_rejected() {
        let cost = LlmCostModel::new(ModelSpec::qwen2_5_7b(), GpuType::H100.spec(), 1);
        DisaggConfig::new(ServeConfig::new(cost, 1), 1, 1);
    }
}
