//! The scenario DSL: composable fault schedules over a serving deployment.
//!
//! A [`Scenario`] is a pure value — a workload (seeded Poisson arrivals), a
//! deployment shape, and a time-ordered list of [`FaultEvent`]s — built through
//! [`ScenarioBuilder`]. Identical scenarios replay identically; the pinned
//! [`pinned_matrix`] is the repository's standing chaos suite.

use serde::Serialize;
use tlt_serve::BalancerPolicy;
use tlt_workload::{
    generate_arrivals, merge_arrival_streams, shift_arrivals, ArrivalConfig, LengthDistribution,
    RateCurve, RequestArrival, SharedPrefixSpec,
};

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum FaultKind {
    /// Kill a replica: its in-flight step is lost and every held request fails
    /// over to the survivors (or the orphan buffer if none are up).
    ReplicaCrash {
        /// Which replica dies.
        replica: usize,
    },
    /// Bring a crashed replica back; orphaned requests are re-delivered.
    ReplicaRestart {
        /// Which replica restarts.
        replica: usize,
    },
    /// Degrade a replica's step durations by a multiplicative factor.
    SlowReplica {
        /// Which replica becomes a straggler.
        replica: usize,
        /// Step-duration multiplier (> 1.0 is slower).
        factor: f64,
    },
    /// Preempt any ongoing drafter-training session for rollout work; the
    /// training side commits a fresh drafter checkpoint on the way out.
    TrainingPreempt,
    /// Deliver a corrupt drafter checkpoint (bit-flipped and truncated
    /// variants); the serving drafter must reject it and keep the last good.
    CheckpointCorrupt,
    /// Deliver a stale drafter checkpoint (not newer than the live drafter);
    /// it must be rejected as stale.
    CheckpointStale,
    /// Inject a burst of extra arrivals at this point in the timeline.
    ArrivalStorm {
        /// Burst arrival rate (requests per second).
        burst_rps: f64,
        /// Burst duration in seconds.
        duration_s: f64,
    },
}

impl FaultKind {
    /// Short display label.
    pub fn label(&self) -> String {
        match self {
            FaultKind::ReplicaCrash { replica } => format!("crash(r{replica})"),
            FaultKind::ReplicaRestart { replica } => format!("restart(r{replica})"),
            FaultKind::SlowReplica { replica, factor } => {
                format!("slow(r{replica},x{factor})")
            }
            FaultKind::TrainingPreempt => "preempt-training".to_string(),
            FaultKind::CheckpointCorrupt => "ckpt-corrupt".to_string(),
            FaultKind::CheckpointStale => "ckpt-stale".to_string(),
            FaultKind::ArrivalStorm {
                burst_rps,
                duration_s,
            } => format!("storm({burst_rps}rps,{duration_s}s)"),
        }
    }
}

/// A fault scheduled at a point on the simulated timeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FaultEvent {
    /// Simulated time the fault fires, in seconds.
    pub at_s: f64,
    /// What happens.
    pub kind: FaultKind,
}

/// A complete chaos scenario: deployment, workload, and fault schedule.
#[derive(Debug, Clone, Serialize)]
pub struct Scenario {
    /// Scenario name (unique within a matrix).
    pub name: String,
    /// Seed for the arrival stream, replica tuners, and the token-level
    /// losslessness probe.
    pub seed: u64,
    /// Number of replicas behind the frontend.
    pub replicas: usize,
    /// Base arrival rate in requests per second.
    pub rps: f64,
    /// Arrival horizon in simulated seconds.
    pub horizon_s: f64,
    /// Request routing policy.
    pub balancer: BalancerPolicy,
    /// Whether the replicas run the adaptive SD manager (vanilla decoding
    /// otherwise).
    pub adaptive_sd: bool,
    /// Optimistic KV admission with preemption (conservative otherwise).
    pub preemption: bool,
    /// Shared system prompt carried by a fraction of the arrivals (exercises
    /// shared-block accounting on the paged KV pool under faults).
    pub prefix: Option<SharedPrefixSpec>,
    /// Fault schedule, sorted by time.
    pub faults: Vec<FaultEvent>,
    /// Inject a synthetic `postmortem-probe` invariant violation at the end of
    /// the run (self-test of the flight-recorder postmortem path; never set in
    /// the pinned matrix).
    pub probe_violation: bool,
}

impl Scenario {
    /// Starts building a scenario with sane defaults: 2 replicas,
    /// join-shortest-queue, 6 req/s over 10 s, vanilla decoding, conservative
    /// admission, no faults.
    pub fn builder(name: &str) -> ScenarioBuilder {
        ScenarioBuilder {
            scenario: Scenario {
                name: name.to_string(),
                seed: 2026,
                replicas: 2,
                rps: 6.0,
                horizon_s: 10.0,
                balancer: BalancerPolicy::JoinShortestQueue,
                adaptive_sd: false,
                preemption: false,
                prefix: None,
                faults: Vec::new(),
                probe_violation: false,
            },
        }
    }

    /// The complete arrival stream: the base Poisson stream merged with every
    /// scheduled storm burst, re-indexed into one timeline.
    pub fn arrival_stream(&self) -> Vec<RequestArrival> {
        chaos_stream(
            self.seed,
            self.rps,
            self.horizon_s,
            self.prefix,
            &self.faults,
        )
    }

    /// The faults in schedule order, storms excluded (storms are folded into
    /// the arrival stream, not replayed at runtime).
    pub fn runtime_faults(&self) -> Vec<FaultEvent> {
        runtime_faults(&self.faults)
    }

    /// Compact schedule description, e.g. `crash(r1)@3 restart(r1)@6`.
    pub fn schedule_label(&self) -> String {
        schedule_label(&self.faults)
    }
}

fn runtime_faults(faults: &[FaultEvent]) -> Vec<FaultEvent> {
    let storm = |f: &&FaultEvent| matches!(f.kind, FaultKind::ArrivalStorm { .. });
    faults.iter().filter(|f| !storm(f)).copied().collect()
}

fn schedule_label(faults: &[FaultEvent]) -> String {
    if faults.is_empty() {
        return "none".to_string();
    }
    let labels = faults
        .iter()
        .map(|f| format!("{}@{}", f.kind.label(), f.at_s));
    labels.collect::<Vec<_>>().join(" ")
}

/// Finalises a fault schedule over `replicas` fault indices: validates the
/// targets, sorts by time (stable, so same-time faults keep insertion order),
/// and rejects impossible orders (crashing a replica that is already down,
/// restarting one that never crashed) so authoring mistakes fail loudly at
/// build time instead of panicking deep inside the harness.
fn finalize_schedule(faults: &mut [FaultEvent], replicas: usize) {
    let target = |kind: FaultKind| match kind {
        FaultKind::ReplicaCrash { replica }
        | FaultKind::ReplicaRestart { replica }
        | FaultKind::SlowReplica { replica, .. } => replica,
        _ => 0,
    };
    for fault in faults.iter() {
        let replica = target(fault.kind);
        assert!(
            replica < replicas,
            "fault targets replica {replica} but the deployment has {replicas}"
        );
    }
    faults.sort_by(|a, b| a.at_s.partial_cmp(&b.at_s).expect("finite fault times"));
    let mut up = vec![true; replicas];
    for fault in faults.iter() {
        match fault.kind {
            FaultKind::ReplicaCrash { replica } => {
                assert!(
                    up[replica],
                    "crash of replica {replica} at t={}: it is already down",
                    fault.at_s
                );
                up[replica] = false;
            }
            FaultKind::ReplicaRestart { replica } => {
                assert!(
                    !up[replica],
                    "restart of replica {replica} at t={}: it never crashed",
                    fault.at_s
                );
                up[replica] = true;
            }
            _ => {}
        }
    }
}

/// The chaos workload shape shared by the monolithic and the disaggregated
/// scenarios: short prompts, long-tail outputs capped at 256 tokens, plus one
/// extra Poisson stream per scheduled storm, merged into a single timeline.
fn chaos_stream(
    seed: u64,
    rps: f64,
    horizon_s: f64,
    prefix: Option<SharedPrefixSpec>,
    faults: &[FaultEvent],
) -> Vec<RequestArrival> {
    let lengths = LengthDistribution::LongTailMixture {
        mu: 4.0,
        sigma: 0.8,
        truncation_mass: 0.02,
        max_len: 256,
    };
    let base = generate_arrivals(&ArrivalConfig {
        curve: RateCurve::Constant { rps },
        horizon_s,
        prompt_len_range: (64, 192),
        output_lengths: lengths.clone(),
        prefix,
        seed,
    });
    let mut streams = vec![base];
    for (i, fault) in faults.iter().enumerate() {
        if let FaultKind::ArrivalStorm {
            burst_rps,
            duration_s,
        } = fault.kind
        {
            let mut burst = generate_arrivals(&ArrivalConfig {
                curve: RateCurve::Constant { rps: burst_rps },
                horizon_s: duration_s,
                prompt_len_range: (64, 192),
                output_lengths: lengths.clone(),
                prefix,
                seed: seed ^ (0x0057_0412 + i as u64),
            });
            shift_arrivals(&mut burst, fault.at_s);
            streams.push(burst);
        }
    }
    merge_arrival_streams(streams)
}

/// Fluent builder for [`Scenario`].
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    scenario: Scenario,
}

impl ScenarioBuilder {
    /// Sets the scenario seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.scenario.seed = seed;
        self
    }

    /// Sets the number of replicas.
    pub fn replicas(mut self, replicas: usize) -> Self {
        assert!(replicas > 0, "need at least one replica");
        self.scenario.replicas = replicas;
        self
    }

    /// Sets the base arrival rate and horizon.
    pub fn arrivals(mut self, rps: f64, horizon_s: f64) -> Self {
        assert!(
            rps > 0.0 && horizon_s > 0.0,
            "rate and horizon must be positive"
        );
        self.scenario.rps = rps;
        self.scenario.horizon_s = horizon_s;
        self
    }

    /// Sets the routing policy.
    pub fn balancer(mut self, policy: BalancerPolicy) -> Self {
        self.scenario.balancer = policy;
        self
    }

    /// Enables the adaptive speculative-decoding manager on every replica.
    pub fn adaptive_sd(mut self) -> Self {
        self.scenario.adaptive_sd = true;
        self
    }

    /// Enables optimistic KV admission with preemption.
    pub fn preemption(mut self) -> Self {
        self.scenario.preemption = true;
        self
    }

    /// Gives `share` of the arrivals a shared system prompt of `len` tokens.
    pub fn prefix_share(mut self, share: f64, len: usize) -> Self {
        assert!((0.0..=1.0).contains(&share), "share must be in [0, 1]");
        self.scenario.prefix = Some(SharedPrefixSpec { share, len });
        self
    }

    /// Schedules an arbitrary fault.
    pub fn fault(mut self, at_s: f64, kind: FaultKind) -> Self {
        assert!(at_s >= 0.0, "fault time must be non-negative");
        self.scenario.faults.push(FaultEvent { at_s, kind });
        self
    }

    /// Schedules a replica crash.
    pub fn crash(self, at_s: f64, replica: usize) -> Self {
        self.fault(at_s, FaultKind::ReplicaCrash { replica })
    }

    /// Schedules a replica restart.
    pub fn restart(self, at_s: f64, replica: usize) -> Self {
        self.fault(at_s, FaultKind::ReplicaRestart { replica })
    }

    /// Schedules a slow-down (or, with `factor = 1.0`, a speed restore).
    pub fn slow(self, at_s: f64, replica: usize, factor: f64) -> Self {
        self.fault(at_s, FaultKind::SlowReplica { replica, factor })
    }

    /// Schedules a training preemption (commits a fresh drafter checkpoint).
    pub fn preempt_training(self, at_s: f64) -> Self {
        self.fault(at_s, FaultKind::TrainingPreempt)
    }

    /// Schedules delivery of a corrupt drafter checkpoint.
    pub fn corrupt_checkpoint(self, at_s: f64) -> Self {
        self.fault(at_s, FaultKind::CheckpointCorrupt)
    }

    /// Schedules delivery of a stale drafter checkpoint.
    pub fn stale_checkpoint(self, at_s: f64) -> Self {
        self.fault(at_s, FaultKind::CheckpointStale)
    }

    /// Forces a synthetic `postmortem-probe` invariant violation at the end of
    /// the run. The scenario is otherwise unchanged; the harness must respond
    /// by dumping the flight recorder, so this is a self-test of the whole
    /// alerting path (violation → postmortem → operator-readable dump).
    pub fn forced_violation(mut self) -> Self {
        self.scenario.probe_violation = true;
        self
    }

    /// Schedules an arrival storm.
    pub fn storm(self, at_s: f64, burst_rps: f64, duration_s: f64) -> Self {
        self.fault(
            at_s,
            FaultKind::ArrivalStorm {
                burst_rps,
                duration_s,
            },
        )
    }

    /// Finalises the scenario: validates replica indices and the crash /
    /// restart order, and sorts the fault schedule by time.
    pub fn build(mut self) -> Scenario {
        finalize_schedule(&mut self.scenario.faults, self.scenario.replicas);
        self.scenario
    }
}

/// The pinned scenario matrix: the standing chaos suite every PR must keep
/// green (run by `experiments -- chaos` and the `chaos-suite` CI job). Each
/// scenario is deliberately small — the whole matrix (with its double-run
/// determinism check) finishes in seconds.
pub fn pinned_matrix() -> Vec<Scenario> {
    vec![
        Scenario::builder("baseline-no-faults")
            .seed(11)
            .replicas(2)
            .arrivals(6.0, 8.0)
            .build(),
        Scenario::builder("crash-failover")
            .seed(12)
            .replicas(3)
            .arrivals(8.0, 8.0)
            .crash(3.0, 1)
            .build(),
        Scenario::builder("crash-then-restart")
            .seed(13)
            .replicas(2)
            .arrivals(14.0, 10.0)
            .prefix_share(0.6, 96)
            .crash(3.0, 0)
            .restart(6.0, 0)
            .build(),
        Scenario::builder("rolling-crashes")
            .seed(14)
            .replicas(3)
            .arrivals(7.0, 12.0)
            .crash(2.0, 0)
            .restart(4.5, 0)
            .crash(6.0, 1)
            .restart(8.5, 1)
            .crash(9.0, 2)
            .restart(10.5, 2)
            .build(),
        Scenario::builder("lone-replica-crash-recovers")
            .seed(15)
            .replicas(1)
            .arrivals(6.0, 4.0)
            .crash(2.0, 0)
            .restart(3.5, 0)
            .build(),
        Scenario::builder("slow-replica-straggler")
            .seed(16)
            .replicas(2)
            .arrivals(6.0, 10.0)
            .slow(2.0, 1, 4.0)
            .slow(7.0, 1, 1.0)
            .build(),
        Scenario::builder("training-preempt-churn")
            .seed(17)
            .replicas(3)
            .arrivals(2.0, 10.0)
            .preempt_training(2.5)
            .preempt_training(5.0)
            .preempt_training(7.5)
            .build(),
        Scenario::builder("checkpoint-corrupt")
            .seed(18)
            .replicas(2)
            .arrivals(5.0, 8.0)
            .adaptive_sd()
            .preempt_training(2.0)
            .corrupt_checkpoint(4.0)
            .build(),
        Scenario::builder("checkpoint-stale")
            .seed(19)
            .replicas(2)
            .arrivals(5.0, 8.0)
            .adaptive_sd()
            .preempt_training(2.0)
            .stale_checkpoint(4.0)
            .build(),
        Scenario::builder("arrival-storm")
            .seed(20)
            .replicas(2)
            .arrivals(4.0, 12.0)
            .adaptive_sd()
            .storm(4.0, 30.0, 2.0)
            .build(),
        Scenario::builder("storm-under-preemption")
            .seed(21)
            .replicas(2)
            .arrivals(4.0, 12.0)
            .preemption()
            .prefix_share(0.5, 128)
            .storm(3.0, 40.0, 2.0)
            .build(),
        Scenario::builder("kitchen-sink")
            .seed(22)
            .replicas(3)
            .arrivals(12.0, 14.0)
            .adaptive_sd()
            .slow(1.0, 2, 3.0)
            .preempt_training(2.0)
            .crash(3.0, 1)
            .storm(4.0, 25.0, 2.0)
            .corrupt_checkpoint(5.0)
            .restart(6.5, 1)
            .stale_checkpoint(7.0)
            .crash(8.0, 0)
            .preempt_training(9.0)
            .restart(10.0, 0)
            .slow(11.0, 2, 1.0)
            .build(),
    ]
}

/// A chaos scenario over the disaggregated prefill/decode cluster
/// (`tlt_serve::ClusterSim`). Faults address replicas by **global fault
/// index**: `0..prefill_replicas` is the prefill pool, the rest the decode
/// pool — the same numbering `ClusterSim::crash_replica` uses. Only
/// serving-path faults (crash / restart / straggler / storm) are legal; the
/// drafter and coordinator pipelines are monolithic-suite concerns.
#[derive(Debug, Clone, Serialize)]
pub struct DisaggScenario {
    /// Scenario name (unique within the disagg matrix).
    pub name: String,
    /// Seed for the arrival stream and replica tuners.
    pub seed: u64,
    /// Prefill pool size at t=0.
    pub prefill_replicas: usize,
    /// Decode pool size at t=0.
    pub decode_replicas: usize,
    /// Base arrival rate in requests per second.
    pub rps: f64,
    /// Arrival horizon in simulated seconds.
    pub horizon_s: f64,
    /// KV transfer link bandwidth in GB/s (small values serialise transfers,
    /// widening the mid-transfer crash window).
    pub link_bandwidth_gbps: f64,
    /// KV transfer link latency in seconds.
    pub link_latency_s: f64,
    /// Run the reactive autoscaler (drain-before-retire) over both pools.
    pub autoscale: bool,
    /// Shared system prompt carried by a fraction of the arrivals (exercises
    /// prefix-affinity routing and shared-block migration accounting).
    pub prefix: Option<SharedPrefixSpec>,
    /// Fault schedule, sorted by time.
    pub faults: Vec<FaultEvent>,
}

impl DisaggScenario {
    /// Starts building a disaggregated scenario with sane defaults: 2 prefill
    /// plus 2 decode replicas, 8 req/s over 8 s, the default NVLink-class
    /// link, no autoscaler, no faults.
    pub fn builder(name: &str) -> DisaggScenarioBuilder {
        DisaggScenarioBuilder {
            scenario: DisaggScenario {
                name: name.to_string(),
                seed: 2026,
                prefill_replicas: 2,
                decode_replicas: 2,
                rps: 8.0,
                horizon_s: 8.0,
                link_bandwidth_gbps: 50.0,
                link_latency_s: 0.002,
                autoscale: false,
                prefix: None,
                faults: Vec::new(),
            },
        }
    }

    /// The complete arrival stream (same workload shape as the monolithic
    /// suite: base Poisson stream plus storm bursts, one timeline).
    pub fn arrival_stream(&self) -> Vec<RequestArrival> {
        chaos_stream(
            self.seed,
            self.rps,
            self.horizon_s,
            self.prefix,
            &self.faults,
        )
    }

    /// The faults in schedule order, storms excluded.
    pub fn runtime_faults(&self) -> Vec<FaultEvent> {
        runtime_faults(&self.faults)
    }

    /// Compact schedule description, e.g. `crash(r0)@1.5 restart(r0)@3.5`.
    pub fn schedule_label(&self) -> String {
        schedule_label(&self.faults)
    }

    /// Total replicas provisioned at t=0.
    pub fn total_replicas(&self) -> usize {
        self.prefill_replicas + self.decode_replicas
    }
}

/// Fluent builder for [`DisaggScenario`].
#[derive(Debug, Clone)]
pub struct DisaggScenarioBuilder {
    scenario: DisaggScenario,
}

impl DisaggScenarioBuilder {
    /// Sets the scenario seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.scenario.seed = seed;
        self
    }

    /// Sets the initial pool sizes.
    pub fn pools(mut self, prefill: usize, decode: usize) -> Self {
        assert!(
            prefill > 0 && decode > 0,
            "both pools need at least one replica"
        );
        self.scenario.prefill_replicas = prefill;
        self.scenario.decode_replicas = decode;
        self
    }

    /// Sets the base arrival rate and horizon.
    pub fn arrivals(mut self, rps: f64, horizon_s: f64) -> Self {
        assert!(
            rps > 0.0 && horizon_s > 0.0,
            "rate and horizon must be positive"
        );
        self.scenario.rps = rps;
        self.scenario.horizon_s = horizon_s;
        self
    }

    /// Shapes the KV transfer link. A deliberately slow link keeps transfers
    /// on the wire longer, so mid-transfer crash schedules actually hit one.
    pub fn link(mut self, bandwidth_gbps: f64, latency_s: f64) -> Self {
        assert!(
            bandwidth_gbps > 0.0 && latency_s >= 0.0,
            "link shape must be positive"
        );
        self.scenario.link_bandwidth_gbps = bandwidth_gbps;
        self.scenario.link_latency_s = latency_s;
        self
    }

    /// Enables the reactive autoscaler over both pools.
    pub fn autoscale(mut self) -> Self {
        self.scenario.autoscale = true;
        self
    }

    /// Gives `share` of the arrivals a shared system prompt of `len` tokens.
    pub fn prefix_share(mut self, share: f64, len: usize) -> Self {
        assert!((0.0..=1.0).contains(&share), "share must be in [0, 1]");
        self.scenario.prefix = Some(SharedPrefixSpec { share, len });
        self
    }

    /// Schedules a replica crash (global fault index).
    pub fn crash(self, at_s: f64, replica: usize) -> Self {
        self.fault(at_s, FaultKind::ReplicaCrash { replica })
    }

    /// Schedules a replica restart (global fault index).
    pub fn restart(self, at_s: f64, replica: usize) -> Self {
        self.fault(at_s, FaultKind::ReplicaRestart { replica })
    }

    /// Schedules a slow-down (or, with `factor = 1.0`, a speed restore).
    pub fn slow(self, at_s: f64, replica: usize, factor: f64) -> Self {
        self.fault(at_s, FaultKind::SlowReplica { replica, factor })
    }

    /// Schedules an arrival storm.
    pub fn storm(self, at_s: f64, burst_rps: f64, duration_s: f64) -> Self {
        self.fault(
            at_s,
            FaultKind::ArrivalStorm {
                burst_rps,
                duration_s,
            },
        )
    }

    /// Schedules an arbitrary serving-path fault.
    pub fn fault(mut self, at_s: f64, kind: FaultKind) -> Self {
        assert!(at_s >= 0.0, "fault time must be non-negative");
        self.scenario.faults.push(FaultEvent { at_s, kind });
        self
    }

    /// Finalises the scenario: rejects drafter/coordinator faults (not
    /// modelled on the cluster path), then validates fault indices against the
    /// initial pools, sorts the schedule and checks the crash/restart order.
    pub fn build(mut self) -> DisaggScenario {
        let drafter_fault = |f: &FaultEvent| {
            use FaultKind::*;
            matches!(
                f.kind,
                TrainingPreempt | CheckpointCorrupt | CheckpointStale
            )
        };
        assert!(
            !self.scenario.faults.iter().any(drafter_fault),
            "drafter faults are not supported in disaggregated scenarios"
        );
        let total = self.scenario.total_replicas();
        finalize_schedule(&mut self.scenario.faults, total);
        self.scenario
    }
}

/// The pinned disaggregated-cluster matrix, run alongside [`pinned_matrix`]
/// by `experiments -- chaos` and the `chaos-suite` CI job. The slow-link
/// scenarios are timed so a crash provably lands mid-transfer (the runner's
/// tests assert `aborted_transfers > 0`).
pub fn disagg_matrix() -> Vec<DisaggScenario> {
    vec![
        DisaggScenario::builder("disagg-baseline")
            .seed(31)
            .pools(2, 2)
            .arrivals(8.0, 8.0)
            .prefix_share(0.5, 96)
            .build(),
        DisaggScenario::builder("disagg-mid-transfer-source-crash")
            .seed(32)
            .pools(2, 1)
            .arrivals(10.0, 6.0)
            .link(1.0, 0.25)
            .prefix_share(0.5, 96)
            .crash(1.5, 0)
            .restart(3.5, 0)
            .build(),
        DisaggScenario::builder("disagg-mid-transfer-dest-crash")
            .seed(33)
            .pools(1, 2)
            .arrivals(10.0, 6.0)
            .link(1.0, 0.25)
            .crash(1.5, 1)
            .restart(3.0, 1)
            .build(),
        DisaggScenario::builder("disagg-autoscale-drain-storm")
            .seed(34)
            .pools(1, 1)
            .arrivals(4.0, 10.0)
            .autoscale()
            .link(2.0, 0.02)
            .prefix_share(0.4, 96)
            .storm(2.0, 120.0, 3.0)
            .build(),
        DisaggScenario::builder("disagg-decode-straggler")
            .seed(35)
            .pools(1, 2)
            .arrivals(8.0, 8.0)
            .slow(2.0, 2, 4.0)
            .slow(6.0, 2, 1.0)
            .build(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sorts_faults_and_validates_targets() {
        let s = Scenario::builder("t")
            .replicas(3)
            .restart(6.0, 1)
            .crash(3.0, 1)
            .build();
        assert_eq!(s.faults[0].kind, FaultKind::ReplicaCrash { replica: 1 });
        assert_eq!(s.faults[1].kind, FaultKind::ReplicaRestart { replica: 1 });
        assert!(s.schedule_label().contains("crash(r1)@3"));
    }

    #[test]
    #[should_panic(expected = "fault targets replica")]
    fn out_of_range_fault_target_panics() {
        let _ = Scenario::builder("t").replicas(2).crash(1.0, 5).build();
    }

    #[test]
    #[should_panic(expected = "never crashed")]
    fn restart_without_a_crash_is_rejected_at_build_time() {
        let _ = Scenario::builder("t").replicas(1).restart(1.0, 0).build();
    }

    #[test]
    #[should_panic(expected = "already down")]
    fn double_crash_is_rejected_at_build_time() {
        let _ = Scenario::builder("t")
            .replicas(2)
            .crash(1.0, 0)
            .crash(2.0, 0)
            .build();
    }

    #[test]
    fn storms_extend_the_arrival_stream_deterministically() {
        let base = Scenario::builder("b").seed(7).arrivals(5.0, 10.0).build();
        let stormy = Scenario::builder("s")
            .seed(7)
            .arrivals(5.0, 10.0)
            .storm(4.0, 40.0, 1.5)
            .build();
        let plain = base.arrival_stream();
        let with_storm = stormy.arrival_stream();
        assert!(with_storm.len() > plain.len() + 20);
        assert_eq!(with_storm, stormy.arrival_stream());
        for (i, a) in with_storm.iter().enumerate() {
            assert_eq!(a.id, i as u64);
        }
        assert!(
            stormy.runtime_faults().is_empty(),
            "storms are not runtime faults"
        );
    }

    #[test]
    fn disagg_builder_validates_global_fault_indices() {
        let s = DisaggScenario::builder("d")
            .pools(2, 1)
            .restart(4.0, 2)
            .crash(1.0, 2)
            .build();
        assert_eq!(s.faults[0].kind, FaultKind::ReplicaCrash { replica: 2 });
        assert_eq!(s.total_replicas(), 3);
        assert!(s.schedule_label().contains("crash(r2)@1"));
    }

    #[test]
    #[should_panic(expected = "fault targets replica")]
    fn disagg_out_of_range_fault_target_panics() {
        let _ = DisaggScenario::builder("d")
            .pools(1, 1)
            .crash(1.0, 2)
            .build();
    }

    #[test]
    #[should_panic(expected = "drafter faults are not supported")]
    fn disagg_rejects_drafter_faults() {
        let _ = DisaggScenario::builder("d")
            .fault(1.0, FaultKind::TrainingPreempt)
            .build();
    }

    #[test]
    fn disagg_matrix_covers_the_migration_fault_surface() {
        let matrix = disagg_matrix();
        let mut names: Vec<&str> = matrix.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate scenario names");
        // A prefill-pool crash, a decode-pool crash, an autoscaled storm and a
        // straggler are all present.
        let crashed: Vec<usize> = matrix
            .iter()
            .flat_map(|s| {
                let p = s.prefill_replicas;
                s.faults.iter().filter_map(move |f| match f.kind {
                    FaultKind::ReplicaCrash { replica } => Some(if replica < p { 0 } else { 1 }),
                    _ => None,
                })
            })
            .collect();
        assert!(crashed.contains(&0), "no prefill-pool crash in the matrix");
        assert!(crashed.contains(&1), "no decode-pool crash in the matrix");
        assert!(matrix.iter().any(|s| s.autoscale
            && s.faults
                .iter()
                .any(|f| matches!(f.kind, FaultKind::ArrivalStorm { .. }))));
        assert!(matrix
            .iter()
            .flat_map(|s| s.faults.iter())
            .any(|f| matches!(f.kind, FaultKind::SlowReplica { .. })));
        // The monolithic pinned matrix is untouched by the disagg suite.
        assert_eq!(pinned_matrix().len(), 12);
    }

    #[test]
    fn pinned_matrix_has_unique_names_and_covers_every_fault_kind() {
        let matrix = pinned_matrix();
        let mut names: Vec<&str> = matrix.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate scenario names");
        let has = |pred: &dyn Fn(&FaultKind) -> bool| {
            matrix
                .iter()
                .flat_map(|s| s.faults.iter())
                .any(|f| pred(&f.kind))
        };
        assert!(has(&|k| matches!(k, FaultKind::ReplicaCrash { .. })));
        assert!(has(&|k| matches!(k, FaultKind::ReplicaRestart { .. })));
        assert!(has(&|k| matches!(k, FaultKind::SlowReplica { .. })));
        assert!(has(&|k| matches!(k, FaultKind::TrainingPreempt)));
        assert!(has(&|k| matches!(k, FaultKind::CheckpointCorrupt)));
        assert!(has(&|k| matches!(k, FaultKind::CheckpointStale)));
        assert!(has(&|k| matches!(k, FaultKind::ArrivalStorm { .. })));
    }
}
