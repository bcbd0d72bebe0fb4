//! Multi-replica frontend: merges the arrival stream with replica step events into
//! one deterministic discrete-event simulation.
//!
//! The frontend is exposed at two levels. [`simulate_serving`] is the closed-form
//! entry point: feed it a sorted arrival stream and get the aggregate SLO report.
//! Underneath sits [`ServeSim`], a steppable simulation the chaos harness drives
//! directly: external events (arrivals, crashes, restarts, slow-downs) are applied
//! at the caller's chosen times between [`ServeSim::advance_before`] calls, and
//! the frontend guarantees **request conservation** across faults — a crashed
//! replica's requests are re-queued onto surviving replicas (or parked in an
//! orphan buffer until a replica comes back), never lost and never duplicated.

use crate::balancer::LoadBalancer;
use crate::config::ServeConfig;
use crate::events::{DriveOutcome, EventCore, EventQueue};
use crate::metrics::ServeReport;
use crate::replica::{FailoverRequest, Replica};
use crate::request::{CompletedRequest, ServeRequest};
use std::collections::VecDeque;
use tlt_obs::{hooks, record, EventKind, ObsEvent, Track, NO_REQ};
use tlt_workload::RequestArrival;

/// Hard cap on processed events; prevents pathological configurations from
/// spinning forever.
const MAX_EVENTS: u64 = 200_000_000;

/// Event class of a replica step completion — `ServeSim`'s only internal
/// event, so heap order reduces to `(time, replica index)`, exactly the
/// first-minimum tie-break of the old linear scan.
const CLASS_STEP: u8 = 0;

/// A steppable multi-replica serving simulation with failure semantics.
#[derive(Debug)]
pub struct ServeSim {
    replicas: Vec<Replica>,
    balancer: LoadBalancer,
    slo: crate::metrics::SloSpec,
    now_s: f64,
    /// Every completion so far, in event order: moved out of the stepped
    /// replica after each step and handed to the report as is.
    log: Vec<CompletedRequest>,
    /// Failed-over requests waiting for any replica to come back up.
    orphans: VecDeque<FailoverRequest>,
    requeued: u64,
    crashes: u64,
    restarts: u64,
    events: u64,
    event_budget: u64,
    budget_reported: bool,
    core: EventCore,
    queue: EventQueue,
}

impl ServeSim {
    /// Builds an idle deployment described by `config`.
    pub fn new(config: &ServeConfig) -> Self {
        ServeSim {
            replicas: (0..config.num_replicas)
                .map(|i| Replica::new(config, i))
                .collect(),
            balancer: LoadBalancer::new(config.balancer),
            slo: config.slo,
            now_s: 0.0,
            log: Vec::new(),
            orphans: VecDeque::new(),
            requeued: 0,
            crashes: 0,
            restarts: 0,
            events: 0,
            event_budget: MAX_EVENTS,
            budget_reported: false,
            core: EventCore::default(),
            queue: EventQueue::new(),
        }
    }

    /// Switches the next-event implementation, re-seeding the heap from every
    /// replica's current state. The two cores are bit-identical (enforced by
    /// the `event_core` test suite); the scan is kept as the oracle and for
    /// the `sim_event_core_speedup` benchmark.
    pub fn set_event_core(&mut self, core: EventCore) {
        self.core = core;
        self.queue.clear();
        if core == EventCore::IndexedHeap {
            for i in 0..self.replicas.len() {
                self.queue
                    .push(self.replicas[i].next_event_s(), CLASS_STEP, i);
            }
        }
    }

    /// The next-event implementation in use.
    pub fn event_core(&self) -> EventCore {
        self.core
    }

    /// Sizes the completion log for `expected` requests in one allocation; past
    /// it the log grows as any `Vec`. A count read from outside input must be
    /// clamped by the caller.
    pub fn reserve_completions(&mut self, expected: usize) {
        self.log.reserve(expected);
    }

    /// Overrides the hard event budget (default 200M). Exposed so tests can
    /// exercise the typed [`DriveOutcome::BudgetExhausted`] path cheaply.
    pub fn set_event_budget(&mut self, budget: u64) {
        self.event_budget = budget;
    }

    /// Re-pushes `replica`'s current next-event key after a mutation that may
    /// have changed it; `before_s` is the pre-mutation time, so unchanged keys
    /// (e.g. enqueueing onto an already-busy replica) push nothing.
    fn touch(&mut self, replica: usize, before_s: f64) {
        if self.core == EventCore::IndexedHeap {
            let now = self.replicas[replica].next_event_s();
            if now.to_bits() != before_s.to_bits() {
                self.queue.push(now, CLASS_STEP, replica);
            }
        }
    }

    /// Current simulated time (the latest event applied).
    pub fn now_s(&self) -> f64 {
        self.now_s
    }

    /// Time of the next replica step completion (`f64::MAX` when all idle).
    pub fn next_event_s(&self) -> f64 {
        self.replicas
            .iter()
            .map(Replica::next_event_s)
            .fold(f64::MAX, f64::min)
    }

    /// Whether any request is still queued, running, in flight, or orphaned.
    pub fn has_work(&self) -> bool {
        !self.orphans.is_empty() || self.replicas.iter().any(Replica::has_work)
    }

    /// Whether the hard event budget has been exhausted. Once true,
    /// [`ServeSim::advance_before`] makes no further progress — callers driving
    /// their own event loop must stop instead of re-polling forever.
    pub fn event_budget_exhausted(&self) -> bool {
        self.events > self.event_budget
    }

    /// The replicas, for inspection (peak KV, drop ids, health).
    pub fn replicas(&self) -> &[Replica] {
        &self.replicas
    }

    /// Concatenated SD accept-length log of every replica, in replica order
    /// (each replica's speculative steps stay in step order). Since the sim is
    /// a pure function of (config, arrivals), this stream is bit-deterministic
    /// and the trace recorder persists it as a unary bitstream.
    pub fn sd_accept_trace(&self) -> Vec<u8> {
        self.replicas
            .iter()
            .flat_map(Replica::sd_accept_trace)
            .collect()
    }

    /// Failed-over requests re-delivered to a replica so far.
    pub fn requeued(&self) -> u64 {
        self.requeued
    }

    /// Crash / restart events applied so far.
    pub fn fault_counts(&self) -> (u64, u64) {
        (self.crashes, self.restarts)
    }

    /// Failed-over requests still waiting for a replica to come back.
    pub fn orphaned(&self) -> usize {
        self.orphans.len()
    }

    /// Ids dropped at admission across all replicas.
    pub fn dropped_ids(&self) -> Vec<u64> {
        self.replicas
            .iter()
            .flat_map(|r| r.dropped_ids().iter().copied())
            .collect()
    }

    /// Picks a healthy replica for the next request through the balancer;
    /// `None` while every replica is down.
    fn route(&mut self) -> Option<usize> {
        let up = self
            .replicas
            .iter()
            .enumerate()
            .filter(|(_, r)| r.is_up())
            .map(|(i, r)| (i, r.load()));
        self.balancer.pick_among(self.replicas.len(), up)
    }

    /// Routes one arriving request (must be offered in non-decreasing arrival
    /// order, after advancing the simulation past earlier step events). With
    /// zero healthy replicas the arrival is parked in the orphan buffer — never
    /// rejected — and delivered through the balancer by the next restart.
    /// Returns the replica the arrival was routed to, `None` when it was parked
    /// (a parked arrival is counted by [`ServeSim::requeued`] on delivery).
    pub fn offer(&mut self, req: ServeRequest) -> Option<usize> {
        let now = req.arrival_s;
        self.now_s = self.now_s.max(now);
        self.events += 1;
        let target = self.route();
        record(
            ObsEvent::instant(now, Track::Frontend, EventKind::Arrival, req.id).with_args(
                target.map(|i| i as f64).unwrap_or(-1.0),
                req.prompt_len as f64,
            ),
        );
        let Some(target) = target else {
            self.orphans.push_back(FailoverRequest {
                req,
                generated: 0.0,
                first_token_s: None,
                admitted_s: None,
                preemptions: 0,
            });
            return None;
        };
        let before = self.replicas[target].next_event_s();
        self.replicas[target].enqueue(req, now);
        self.touch(target, before);
        Some(target)
    }

    /// Advances the clock to `t` without processing events. External actors
    /// (fault injectors) call this before applying an action at `t` so that any
    /// resulting re-queues and restarts are stamped with the action's time, not
    /// the last internal event's.
    pub fn advance_now(&mut self, t: f64) {
        self.now_s = self.now_s.max(t);
    }

    /// Processes every replica step event strictly before `t` (arrivals and
    /// faults at `t` therefore win ties, matching the original frontend rule).
    /// Returns [`DriveOutcome::BudgetExhausted`] — reported once through the
    /// flight recorder — if the hard event budget tripped with an event still
    /// due.
    pub fn advance_before(&mut self, t: f64) -> DriveOutcome {
        match self.core {
            EventCore::IndexedHeap => self.advance_before_heap(t),
            EventCore::LinearScan => self.advance_before_scan(t),
        }
    }

    fn advance_before_heap(&mut self, t: f64) -> DriveOutcome {
        loop {
            let Some(key) = self.queue.peek() else {
                // Every live key is in the heap, so an empty heap means every
                // replica is idle.
                return DriveOutcome::Completed;
            };
            if key.time_s() >= t {
                // The heap minimum bounds every live key from below: nothing
                // (stale or not) is due before `t`.
                return DriveOutcome::Completed;
            }
            let key = self.queue.pop().expect("peeked");
            let idx = key.index();
            if self.replicas[idx].next_event_s().to_bits() != key.time_bits() {
                hooks::on_sim_stale_event();
                continue;
            }
            if self.events > self.event_budget {
                // Put the still-valid key back so the one-sided heap invariant
                // holds if the budget is ever raised.
                self.queue.push_key(key);
                return self.budget_outcome();
            }
            let t_step = key.time_s();
            self.now_s = t_step;
            self.step_replica(idx, t_step);
            // Only the just-stepped replica's key is dirty: re-push it alone
            // instead of re-deriving the global minimum.
            self.touch(idx, t_step);
        }
    }

    fn advance_before_scan(&mut self, t: f64) -> DriveOutcome {
        loop {
            let (idx, t_step) = self.soonest_step();
            if t_step >= t {
                return DriveOutcome::Completed;
            }
            if self.events > self.event_budget {
                return self.budget_outcome();
            }
            self.now_s = t_step;
            self.step_replica(idx, t_step);
        }
    }

    /// Completes replica `idx`'s step at `t_step` and moves what it finished
    /// into the log: the one event both cores process.
    fn step_replica(&mut self, idx: usize, t_step: f64) {
        let replica = &mut self.replicas[idx];
        replica.on_step_complete(t_step);
        replica.move_completed_into(&mut self.log);
        self.events += 1;
        hooks::on_sim_event();
    }

    /// Runs every remaining step event until the deployment drains (or the event
    /// budget is exhausted). Orphans can only be re-delivered by a restart, so
    /// they are left untouched here.
    pub fn run_until_drained(&mut self) -> DriveOutcome {
        self.advance_before(f64::MAX)
    }

    fn budget_outcome(&mut self) -> DriveOutcome {
        if !self.budget_reported {
            self.budget_reported = true;
            record(
                ObsEvent::instant(
                    self.now_s,
                    Track::Frontend,
                    EventKind::BudgetExhausted,
                    NO_REQ,
                )
                .with_args(self.events as f64, self.event_budget as f64),
            );
        }
        DriveOutcome::BudgetExhausted
    }

    fn soonest_step(&self) -> (usize, f64) {
        self.replicas
            .iter()
            .enumerate()
            .map(|(i, r)| (i, r.next_event_s()))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite or MAX"))
            .expect("at least one replica")
    }

    /// Crashes `replica` at the current time and re-queues every request it held
    /// onto surviving replicas through the balancer (orphaning them if no replica
    /// is up). Returns how many requests were drained.
    pub fn crash_replica(&mut self, replica: usize) -> usize {
        let now = self.now_s;
        let drained = self.replicas[replica].crash(now);
        self.crashes += 1;
        let n = drained.len();
        for fo in drained {
            self.deliver_failover(fo, now);
        }
        n
    }

    /// Restarts a crashed `replica` at the current time and re-delivers any
    /// orphaned requests through the balancer (which can now see it).
    pub fn restart_replica(&mut self, replica: usize) {
        let now = self.now_s;
        let before = self.replicas[replica].next_event_s();
        self.replicas[replica].restart(now);
        self.touch(replica, before);
        self.restarts += 1;
        while let Some(fo) = self.orphans.pop_front() {
            self.deliver_failover(fo, now);
        }
    }

    /// Sets the step-duration multiplier of one replica (a straggler runs slower
    /// than 1.0x); takes effect from its next scheduled step.
    pub fn set_slow_factor(&mut self, replica: usize, factor: f64) {
        self.replicas[replica].set_slow_factor(factor);
    }

    fn deliver_failover(&mut self, fo: FailoverRequest, now: f64) {
        let Some(target) = self.route() else {
            self.orphans.push_back(fo);
            return;
        };
        let before = self.replicas[target].next_event_s();
        self.replicas[target].enqueue_failover(fo, now);
        self.touch(target, before);
        self.requeued += 1;
        self.events += 1;
    }

    /// Consumes the simulation and builds the aggregate SLO report from the
    /// completion log, which becomes the report's `completed` without a copy.
    /// By now the simulation retains one 72-byte record per completed request
    /// and nothing per offer or per step.
    pub fn into_report(mut self) -> ServeReport {
        ServeReport::from_run(self.log, self.replicas.iter_mut(), self.slo)
    }
}

/// Simulates serving the `arrivals` stream on the deployment described by `config`
/// and returns the aggregate SLO report. Arrivals must be sorted by time (as
/// produced by [`tlt_workload::generate_arrivals`]); the simulation runs until
/// every admitted request has drained.
pub fn simulate_serving(config: &ServeConfig, arrivals: &[RequestArrival]) -> ServeReport {
    drive(config, arrivals, |_, _| {})
}

/// Like [`simulate_serving`], but also returns the frontend's per-request routing
/// trace (`(request id, replica)` in arrival order) so balancer behaviour can be
/// pinned by golden tests.
pub fn simulate_serving_traced(
    config: &ServeConfig,
    arrivals: &[RequestArrival],
) -> (ServeReport, Vec<(u64, usize)>) {
    let mut trace = Vec::with_capacity(arrivals.len());
    let report = drive(config, arrivals, |id, replica| trace.push((id, replica)));
    (report, trace)
}

/// The drive loop of both entry points; `routed(id, replica)` sees every
/// arrival the balancer placed (parked arrivals are not routing decisions).
fn drive(
    config: &ServeConfig,
    arrivals: &[RequestArrival],
    mut routed: impl FnMut(u64, usize),
) -> ServeReport {
    let mut sim = ServeSim::new(config);
    sim.reserve_completions(arrivals.len());
    for arrival in arrivals {
        sim.advance_before(arrival.time_s());
        if let Some(replica) = sim.offer(ServeRequest::from_arrival(arrival)) {
            routed(arrival.id, replica);
        }
    }
    sim.run_until_drained();
    sim.into_report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balancer::BalancerPolicy;
    use tlt_gpusim::{GpuType, LlmCostModel};
    use tlt_model::ModelSpec;
    use tlt_rollout::{SdManagerConfig, SdMode, SdStrategy};
    use tlt_workload::{ArrivalConfig, LengthDistribution, RateCurve};

    fn qwen7b_config(replicas: usize) -> ServeConfig {
        ServeConfig::new(
            LlmCostModel::new(ModelSpec::qwen2_5_7b(), GpuType::H100.spec(), 1),
            replicas,
        )
    }

    fn arrivals(rps: f64, horizon: f64, seed: u64) -> Vec<RequestArrival> {
        tlt_workload::generate_arrivals(&ArrivalConfig {
            curve: RateCurve::Constant { rps },
            horizon_s: horizon,
            prompt_len_range: (256, 512),
            output_lengths: LengthDistribution::LongTailMixture {
                mu: 5.0,
                sigma: 0.8,
                truncation_mass: 0.02,
                max_len: 2048,
            },
            prefix: None,
            seed,
        })
    }

    #[test]
    fn every_arrival_completes_and_metrics_are_sane() {
        let config = qwen7b_config(2);
        let stream = arrivals(4.0, 30.0, 1);
        let report = simulate_serving(&config, &stream);
        assert_eq!(report.completed.len() + report.dropped, stream.len());
        assert_eq!(report.dropped, 0);
        assert!(report.makespan_s > 0.0);
        assert!(report.throughput_tokens_per_s > 0.0);
        assert!(report.ttft.p50_s > 0.0);
        assert!(report.ttft.p50_s <= report.ttft.p99_s);
        assert!(report.e2e.p50_s >= report.ttft.p50_s);
        assert_eq!(report.replicas.len(), 2);
        for r in &report.replicas {
            assert!(r.utilization > 0.0 && r.utilization <= 1.0);
        }
    }

    #[test]
    fn serving_is_deterministic_per_seed() {
        let config = qwen7b_config(3).with_sd_mode(SdMode::Adaptive {
            config: SdManagerConfig::default(),
        });
        let stream = arrivals(6.0, 20.0, 2);
        let a = simulate_serving(&config, &stream);
        let b = simulate_serving(&config, &stream);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.makespan_s, b.makespan_s);
        assert_eq!(a.throughput_tokens_per_s, b.throughput_tokens_per_s);
        assert_eq!(a.goodput_rps, b.goodput_rps);
    }

    #[test]
    fn adaptive_sd_improves_latency_at_low_load() {
        let stream = arrivals(2.0, 30.0, 3);
        let vanilla = simulate_serving(&qwen7b_config(2), &stream);
        let adaptive = simulate_serving(
            &qwen7b_config(2).with_sd_mode(SdMode::Adaptive {
                config: SdManagerConfig::default(),
            }),
            &stream,
        );
        assert!(
            adaptive.e2e.p50_s < vanilla.e2e.p50_s,
            "adaptive {res} vs vanilla {base}",
            res = adaptive.e2e.p50_s,
            base = vanilla.e2e.p50_s
        );
        assert!(adaptive.mean_sd_fraction() > 0.5);
        assert!(vanilla.mean_sd_fraction() == 0.0);
    }

    #[test]
    fn always_on_sd_collapses_under_heavy_load() {
        // At a high arrival rate the batch stays large; forcing SD on every step
        // (static, infinite threshold) must hurt tail latency versus the elastic
        // adaptive policy that switches SD off under backlog.
        let stream = arrivals(30.0, 20.0, 4);
        let static_sd = simulate_serving(
            &qwen7b_config(1).with_sd_mode(SdMode::Static {
                strategy: SdStrategy::default(),
                threshold: usize::MAX,
            }),
            &stream,
        );
        let adaptive = simulate_serving(
            &qwen7b_config(1).with_sd_mode(SdMode::Adaptive {
                config: SdManagerConfig::default(),
            }),
            &stream,
        );
        assert!(
            adaptive.e2e.p99_s < static_sd.e2e.p99_s,
            "adaptive p99 {a} should beat always-on SD p99 {s}",
            a = adaptive.e2e.p99_s,
            s = static_sd.e2e.p99_s
        );
        assert!(adaptive.mean_sd_fraction() < 1.0);
    }

    #[test]
    fn balancers_spread_load_and_jsq_beats_unlucky_round_robin_tail() {
        let stream = arrivals(8.0, 25.0, 5);
        for policy in BalancerPolicy::all() {
            let report = simulate_serving(&qwen7b_config(4).with_balancer(policy), &stream);
            assert_eq!(report.completed.len(), stream.len(), "{}", policy.name());
            // Every replica should see some work at this rate.
            for r in &report.replicas {
                assert!(r.completed > 0, "{}: idle replica", policy.name());
            }
        }
    }

    #[test]
    fn empty_arrival_stream_yields_empty_report() {
        let report = simulate_serving(&qwen7b_config(2), &[]);
        assert!(report.completed.is_empty());
        assert_eq!(report.makespan_s, 0.0);
    }

    #[test]
    fn routing_trace_covers_every_arrival_exactly_once() {
        let stream = arrivals(6.0, 15.0, 6);
        let (report, trace) = simulate_serving_traced(&qwen7b_config(3), &stream);
        assert_eq!(trace.len(), stream.len());
        for (i, (id, replica)) in trace.iter().enumerate() {
            assert_eq!(*id, stream[i].id);
            assert!(*replica < 3);
        }
        assert_eq!(report.completed.len(), stream.len());
    }

    #[test]
    fn crashing_a_replica_mid_run_fails_over_without_loss_or_duplication() {
        let config = qwen7b_config(3);
        let stream = arrivals(8.0, 12.0, 7);
        let mut sim = ServeSim::new(&config);
        let crash_at = 5.0;
        let mut crashed = false;
        for arrival in &stream {
            let t = arrival.time_s();
            if !crashed && t >= crash_at {
                sim.advance_before(crash_at);
                let drained = sim.crash_replica(1);
                assert!(drained > 0, "crash mid-run should drain live requests");
                crashed = true;
            }
            sim.advance_before(t);
            sim.offer(ServeRequest::from_arrival(arrival));
        }
        sim.run_until_drained();
        assert!(crashed);
        assert!(sim.requeued() > 0);
        assert_eq!(sim.orphaned(), 0, "survivors absorb every failover");
        assert!(!sim.replicas()[1].is_up());
        let report = sim.into_report();
        let mut ids: Vec<u64> = report.completed.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(
            ids.len(),
            stream.len(),
            "every request completes exactly once"
        );
    }

    #[test]
    fn single_replica_crash_orphans_then_restart_recovers() {
        let config = qwen7b_config(1);
        let stream = arrivals(4.0, 4.0, 8);
        let mut sim = ServeSim::new(&config);
        for arrival in &stream {
            sim.advance_before(arrival.time_s());
            sim.offer(ServeRequest::from_arrival(arrival));
        }
        sim.advance_before(4.5);
        let drained = sim.crash_replica(0);
        assert!(drained > 0);
        assert_eq!(sim.orphaned(), drained, "no survivor: requests parked");
        assert_eq!(
            sim.next_event_s(),
            f64::MAX,
            "down replica schedules nothing"
        );
        sim.restart_replica(0);
        assert_eq!(sim.orphaned(), 0);
        sim.run_until_drained();
        let report = sim.into_report();
        assert_eq!(report.completed.len(), stream.len());
    }

    #[test]
    fn slow_replica_receives_less_jsq_traffic() {
        let config = qwen7b_config(2);
        let stream = arrivals(8.0, 20.0, 9);
        let mut sim = ServeSim::new(&config);
        sim.set_slow_factor(1, 4.0);
        for arrival in &stream {
            sim.advance_before(arrival.time_s());
            sim.offer(ServeRequest::from_arrival(arrival));
        }
        sim.run_until_drained();
        let report = sim.into_report();
        assert_eq!(report.completed.len(), stream.len());
        assert!(
            report.replicas[0].completed > report.replicas[1].completed,
            "JSQ should shift load off the straggler: {} vs {}",
            report.replicas[0].completed,
            report.replicas[1].completed
        );
    }
}
