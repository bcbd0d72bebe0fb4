//! Multi-replica frontend: merges the arrival stream with replica step events into
//! one deterministic discrete-event simulation.
//!
//! The frontend is exposed at two levels. [`simulate_serving`] is the closed-form
//! entry point: feed it a sorted arrival stream and get the aggregate SLO report.
//! Underneath sits [`ServeSim`], a steppable simulation driven through
//! [`Driver`] — by [`drive`] for a plain arrival stream, by
//! [`drive_schedule`](crate::drive_schedule) when faults (crashes, restarts,
//! slow-downs) are merged in — and the frontend guarantees **request
//! conservation** across faults: a crashed replica's requests are re-queued
//! onto surviving replicas (or parked in an orphan buffer until a replica
//! comes back), never lost and never duplicated.

use crate::balancer::LoadBalancer;
use crate::config::ServeConfig;
use crate::events::{drive, DriveOutcome, DriveState, Driver, EventCore};
use crate::metrics::ServeReport;
use crate::replica::{FailoverRequest, Replica};
use crate::request::ServeRequest;
use tlt_obs::hooks;
use tlt_workload::RequestArrival;

/// Event class of a replica step completion — `ServeSim`'s only internal
/// event, so heap order reduces to `(time, replica index)`, exactly the
/// first-minimum tie-break of the old linear scan.
const CLASS_STEP: u8 = 0;

/// A steppable multi-replica serving simulation with failure semantics,
/// driven through [`Driver`].
#[derive(Debug)]
pub struct ServeSim {
    replicas: Vec<Replica>,
    balancer: LoadBalancer,
    slo: crate::metrics::SloSpec,
    state: DriveState,
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
            state: DriveState::default(),
        }
    }

    /// Re-pushes `replica`'s current next-event key after a mutation that may
    /// have changed it; `before_s` is the pre-mutation time, so unchanged keys
    /// (e.g. enqueueing onto an already-busy replica) push nothing.
    fn touch(&mut self, replica: usize, before_s: f64) {
        if self.state.core == EventCore::IndexedHeap {
            let now = self.replicas[replica].next_event_s();
            if now.to_bits() != before_s.to_bits() {
                self.state.queue.push(now, CLASS_STEP, replica);
            }
        }
    }

    /// The replicas, for inspection (peak KV, drop ids, health).
    pub fn replicas(&self) -> &[Replica] {
        &self.replicas
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

    /// See [`Driver::offer`]. With zero healthy replicas the arrival is parked
    /// and delivered through the balancer by the next restart (counted by
    /// [`DriveState::requeued`] on delivery).
    pub fn offer(&mut self, req: ServeRequest) -> Option<usize> {
        let now = req.arrival_s;
        self.state.now_s = self.state.now_s.max(now);
        let target = self.route();
        self.state.admit(&req, now, target);
        let target = target?;
        let before = self.replicas[target].next_event_s();
        self.replicas[target].enqueue(req, now);
        self.touch(target, before);
        Some(target)
    }

    /// See [`Driver::advance_before`]. The clock is left at the last event
    /// processed; arrivals and faults at `t` win ties against steps.
    pub fn advance_before(&mut self, t: f64) -> DriveOutcome {
        loop {
            let Some((idx, t_step)) = self.pop_due_step(t) else {
                return DriveOutcome::Completed;
            };
            if !self.state.begin_event() {
                // Put the still-valid key back so the one-sided heap invariant
                // holds if the budget is ever raised.
                if self.state.core == EventCore::IndexedHeap {
                    self.state.queue.push(t_step, CLASS_STEP, idx);
                }
                return self.state.budget_outcome();
            }
            self.state.now_s = t_step;
            let replica = &mut self.replicas[idx];
            replica.on_step_complete(t_step);
            replica.move_completed_into(&mut self.state.log);
            // Only the just-stepped replica's key is dirty: re-push it alone
            // instead of re-deriving the global minimum.
            self.touch(idx, t_step);
        }
    }

    /// The earliest valid step due strictly before `t`, under either core.
    fn pop_due_step(&mut self, t: f64) -> Option<(usize, f64)> {
        if self.state.core == EventCore::LinearScan {
            let soonest = self
                .replicas
                .iter()
                .enumerate()
                .map(|(i, r)| (i, r.next_event_s()))
                .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite or MAX"))
                .expect("at least one replica");
            return (soonest.1 < t).then_some(soonest);
        }
        loop {
            // The heap minimum bounds every live key from below: once it is
            // not due (or the heap is empty) nothing is, stale or not.
            let key = self.state.queue.peek().filter(|k| k.time_s() < t)?;
            self.state.queue.pop();
            let idx = key.index();
            if self.replicas[idx].next_event_s().to_bits() == key.time_bits() {
                return Some((idx, key.time_s()));
            }
            hooks::on_sim_stale_event();
        }
    }

    /// See [`Driver::run_until_drained`]. Orphans can only be re-delivered by
    /// a restart, so they are left untouched here.
    pub fn run_until_drained(&mut self) -> DriveOutcome {
        self.advance_before(f64::MAX)
    }

    fn deliver_failover(&mut self, fo: FailoverRequest, now: f64) {
        let Some(target) = self.route() else {
            self.state.orphans.push_back(fo);
            return;
        };
        let before = self.replicas[target].next_event_s();
        self.replicas[target].enqueue_failover(fo, now);
        self.touch(target, before);
        self.state.requeued += 1;
    }

    /// See [`Driver::into_report`]. By now the simulation retains one 72-byte
    /// record per completed request and nothing per offer or per step.
    pub fn into_report(mut self) -> ServeReport {
        ServeReport::from_run(self.state.log, self.replicas.iter_mut(), self.slo)
    }
}

impl Driver for ServeSim {
    type Report = ServeReport;

    fn state(&self) -> &DriveState {
        &self.state
    }

    fn state_mut(&mut self) -> &mut DriveState {
        &mut self.state
    }

    fn members(&self) -> impl Iterator<Item = (&'static str, usize, &Replica)> {
        self.replicas
            .iter()
            .enumerate()
            .map(|(i, r)| ("replica", i, r))
    }

    fn set_event_core(&mut self, core: EventCore) {
        self.state.core = core;
        self.state.queue.clear();
        if core == EventCore::IndexedHeap {
            for (i, r) in self.replicas.iter().enumerate() {
                self.state.queue.push(r.next_event_s(), CLASS_STEP, i);
            }
        }
    }

    fn advance_before(&mut self, t: f64) -> DriveOutcome {
        ServeSim::advance_before(self, t)
    }

    fn advance_now(&mut self, t: f64) {
        self.state.now_s = self.state.now_s.max(t);
    }

    fn offer(&mut self, req: ServeRequest) -> Option<usize> {
        ServeSim::offer(self, req)
    }

    fn run_until_drained(&mut self) -> DriveOutcome {
        ServeSim::run_until_drained(self)
    }

    fn next_event_s(&self) -> f64 {
        self.replicas
            .iter()
            .map(Replica::next_event_s)
            .fold(f64::MAX, f64::min)
    }

    fn has_work(&self) -> bool {
        !self.state.orphans.is_empty() || self.replicas.iter().any(Replica::has_work)
    }

    /// Re-queues every request the replica held onto the survivors through
    /// the balancer (parking them if none is up).
    fn crash_replica(&mut self, idx: usize, now: f64) {
        self.advance_now(now);
        self.state.crashes += 1;
        for fo in self.replicas[idx].crash(now) {
            self.deliver_failover(fo, now);
        }
    }

    fn restart_replica(&mut self, idx: usize, now: f64) {
        self.advance_now(now);
        let before = self.replicas[idx].next_event_s();
        self.replicas[idx].restart(now);
        self.touch(idx, before);
        self.state.restarts += 1;
        while let Some(fo) = self.state.orphans.pop_front() {
            self.deliver_failover(fo, now);
        }
    }

    fn set_slow_factor(&mut self, idx: usize, factor: f64) {
        self.replicas[idx].set_slow_factor(factor);
    }

    fn into_report(self) -> ServeReport {
        ServeSim::into_report(self)
    }

    fn serve_report(report: &ServeReport) -> &ServeReport {
        report
    }
}

/// Simulates serving the `arrivals` stream on the deployment described by `config`
/// and returns the aggregate SLO report. Arrivals must be sorted by time (as
/// produced by [`tlt_workload::generate_arrivals`]); the simulation runs until
/// every admitted request has drained.
pub fn simulate_serving(config: &ServeConfig, arrivals: &[RequestArrival]) -> ServeReport {
    simulate(config, arrivals, |_, _| {})
}

/// Like [`simulate_serving`], but also returns the frontend's per-request routing
/// trace (`(request id, replica)` in arrival order) so balancer behaviour can be
/// pinned by golden tests.
pub fn simulate_serving_traced(
    config: &ServeConfig,
    arrivals: &[RequestArrival],
) -> (ServeReport, Vec<(u64, usize)>) {
    let mut trace = Vec::with_capacity(arrivals.len());
    let report = simulate(config, arrivals, |id, replica| trace.push((id, replica)));
    (report, trace)
}

fn simulate(
    config: &ServeConfig,
    arrivals: &[RequestArrival],
    routed: impl FnMut(u64, usize),
) -> ServeReport {
    let mut sim = ServeSim::new(config);
    sim.state.reserve_completions(arrivals.len());
    drive(&mut sim, arrivals.iter().copied(), routed);
    sim.into_report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balancer::BalancerPolicy;
    use crate::events::drive_schedule;
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
        let crash = |sim: &mut ServeSim, t: f64, victim: &usize| {
            sim.crash_replica(*victim, t);
            assert!(
                sim.state().requeued() > 0,
                "crash mid-run drains live requests"
            );
        };
        drive_schedule(&mut sim, &stream, &[(5.0, 1)], crash, |_, _| {});
        assert_eq!(sim.state().fault_counts(), (1, 0));
        assert_eq!(sim.state().orphaned(), 0, "survivors absorb every failover");
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
        let faults = [(4.5, false), (4.5, true)];
        let apply = |sim: &mut ServeSim, t: f64, restart: &bool| {
            if *restart {
                sim.restart_replica(0, t);
                assert_eq!(sim.state().orphaned(), 0);
                return;
            }
            sim.crash_replica(0, t);
            assert!(sim.state().orphaned() > 0, "no survivor: requests parked");
            assert_eq!(
                sim.next_event_s(),
                f64::MAX,
                "down replica schedules nothing"
            );
        };
        drive_schedule(&mut sim, &stream, &faults, apply, |_, _| {});
        let report = sim.into_report();
        assert_eq!(report.completed.len(), stream.len());
    }

    #[test]
    fn slow_replica_receives_less_jsq_traffic() {
        let config = qwen7b_config(2);
        let stream = arrivals(8.0, 20.0, 9);
        let mut sim = ServeSim::new(&config);
        sim.set_slow_factor(1, 4.0);
        drive(&mut sim, stream.iter().copied(), |_, _| {});
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
