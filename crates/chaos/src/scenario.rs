//! The scenario DSL: composable fault schedules over a serving deployment.
//!
//! A [`Scenario`] is a pure value — a workload (seeded Poisson arrivals), a
//! [`Deployment`] (monolithic replicas or a disaggregated prefill/decode
//! cluster), and a time-ordered list of [`FaultEvent`]s — built through
//! [`ScenarioBuilder`]. Identical scenarios replay identically; the pinned
//! [`pinned_matrix`] is the repository's standing chaos suite.

use serde::Serialize;
use tlt_serve::{BalancerPolicy, TransferLinkConfig};
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

/// The serving deployment a [`Scenario`] runs on, at t=0.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum Deployment {
    /// Replicas behind the monolithic frontend (`tlt_serve::ServeSim`).
    Mono {
        /// Number of replicas behind the frontend.
        replicas: usize,
        /// Request routing policy.
        balancer: BalancerPolicy,
        /// Whether the replicas run the adaptive SD manager (vanilla decoding
        /// otherwise).
        adaptive_sd: bool,
        /// Optimistic KV admission with preemption (conservative otherwise).
        preemption: bool,
    },
    /// The disaggregated prefill/decode cluster (`tlt_serve::ClusterSim`).
    /// Faults address replicas by global index, prefill pool first (as
    /// `ClusterSim::crash_replica` does); drafter faults are not legal here.
    Disagg {
        /// Prefill pool size.
        prefill: usize,
        /// Decode pool size.
        decode: usize,
        /// KV transfer link (a slow one widens the mid-transfer crash window).
        link: TransferLinkConfig,
        /// Run the reactive autoscaler (drain-before-retire) over both pools.
        autoscale: bool,
    },
}

impl Deployment {
    /// How many replicas a fault can target: the replicas, or both pools.
    pub fn fault_slots(&self) -> usize {
        match *self {
            Deployment::Mono { replicas, .. } => replicas,
            Deployment::Disagg {
                prefill, decode, ..
            } => prefill + decode,
        }
    }

    /// Display label: `"3 replicas"` or `"2P+2D"`.
    pub fn label(&self) -> String {
        match *self {
            Deployment::Mono { replicas, .. } => format!("{replicas} replicas"),
            Deployment::Disagg {
                prefill, decode, ..
            } => format!("{prefill}P+{decode}D"),
        }
    }
}

/// A complete chaos scenario: deployment, workload, and fault schedule.
#[derive(Debug, Clone, Serialize)]
pub struct Scenario {
    /// Scenario name (unique within a matrix).
    pub name: String,
    /// Seed for the arrival stream, replica tuners, and the token-level
    /// losslessness probe.
    pub seed: u64,
    /// What the faults hit.
    pub deployment: Deployment,
    /// Base arrival rate in requests per second.
    pub rps: f64,
    /// Arrival horizon in simulated seconds.
    pub horizon_s: f64,
    /// Shared system prompt carried by a fraction of the arrivals (exercises
    /// shared-block accounting, and on a cluster prefix-affinity routing and
    /// shared-block migration, under faults).
    pub prefix: Option<SharedPrefixSpec>,
    /// Fault schedule, sorted by time.
    pub faults: Vec<FaultEvent>,
    /// Inject a synthetic `postmortem-probe` invariant violation at the end of
    /// the run (self-test of the flight-recorder postmortem path; never set in
    /// the pinned matrix).
    pub probe_violation: bool,
}

impl Scenario {
    /// Starts building a scenario with sane defaults: 2 monolithic replicas,
    /// join-shortest-queue, 6 req/s over 10 s, vanilla decoding, conservative
    /// admission, no faults.
    pub fn builder(name: &str) -> ScenarioBuilder {
        ScenarioBuilder {
            scenario: Scenario {
                name: name.to_string(),
                seed: 2026,
                deployment: Deployment::Mono {
                    replicas: 2,
                    balancer: BalancerPolicy::JoinShortestQueue,
                    adaptive_sd: false,
                    preemption: false,
                },
                rps: 6.0,
                horizon_s: 10.0,
                prefix: None,
                faults: Vec::new(),
                probe_violation: false,
            },
        }
    }

    /// The complete arrival stream: short prompts, long-tail outputs capped at
    /// 256 tokens, plus one extra Poisson stream per scheduled storm, merged
    /// and re-indexed into one timeline.
    pub fn arrival_stream(&self) -> Vec<RequestArrival> {
        let lengths = LengthDistribution::LongTailMixture {
            mu: 4.0,
            sigma: 0.8,
            truncation_mass: 0.02,
            max_len: 256,
        };
        let stream = |rps, horizon_s, seed| {
            generate_arrivals(&ArrivalConfig {
                curve: RateCurve::Constant { rps },
                horizon_s,
                prompt_len_range: (64, 192),
                output_lengths: lengths.clone(),
                prefix: self.prefix,
                seed,
            })
        };
        let mut streams = vec![stream(self.rps, self.horizon_s, self.seed)];
        for (i, fault) in self.faults.iter().enumerate() {
            if let FaultKind::ArrivalStorm {
                burst_rps,
                duration_s,
            } = fault.kind
            {
                let mut burst = stream(burst_rps, duration_s, self.seed ^ (0x0057_0412 + i as u64));
                shift_arrivals(&mut burst, fault.at_s);
                streams.push(burst);
            }
        }
        merge_arrival_streams(streams)
    }

    /// The faults in schedule order, storms excluded (storms are folded into
    /// the arrival stream, not replayed at runtime).
    pub fn runtime_faults(&self) -> Vec<FaultEvent> {
        let storm = |f: &&FaultEvent| matches!(f.kind, FaultKind::ArrivalStorm { .. });
        self.faults.iter().filter(|f| !storm(f)).copied().collect()
    }

    /// Compact schedule description, e.g. `crash(r1)@3 restart(r1)@6`.
    pub fn schedule_label(&self) -> String {
        if self.faults.is_empty() {
            return "none".to_string();
        }
        let labels = self
            .faults
            .iter()
            .map(|f| format!("{}@{}", f.kind.label(), f.at_s));
        labels.collect::<Vec<_>>().join(" ")
    }
}

/// Panics unless `value` is finite and positive, naming it as `what`.
fn assert_finite_positive(what: std::fmt::Arguments, value: f64) {
    assert!(
        value.is_finite() && value > 0.0,
        "{what} {value} is not finite and positive"
    );
}

/// Finalises a fault schedule for `deployment`: validates the targets,
/// slow-down factors and storm shapes, keeps drafter faults off a cluster,
/// sorts by time (stable, so same-time faults keep insertion order), and
/// rejects impossible orders (crashing a replica that is already down,
/// restarting one that never crashed) so authoring mistakes fail loudly at
/// build time instead of panicking (or never returning) deep inside the
/// harness.
fn finalize_schedule(faults: &mut [FaultEvent], deployment: &Deployment) {
    let slots = deployment.fault_slots();
    let target = |kind: FaultKind| match kind {
        FaultKind::ReplicaCrash { replica }
        | FaultKind::ReplicaRestart { replica }
        | FaultKind::SlowReplica { replica, .. } => replica,
        _ => 0,
    };
    for fault in faults.iter() {
        let replica = target(fault.kind);
        assert!(
            replica < slots,
            "fault targets replica {replica} but the deployment has {slots}"
        );
        let at = fault.at_s;
        match fault.kind {
            FaultKind::SlowReplica { factor, .. } => assert_finite_positive(
                format_args!("slow-down of replica {replica} at t={at}: factor"),
                factor,
            ),
            FaultKind::ArrivalStorm {
                burst_rps,
                duration_s,
            } => {
                assert_finite_positive(format_args!("storm at t={at}: rate"), burst_rps);
                assert_finite_positive(format_args!("storm at t={at}: duration"), duration_s);
            }
            FaultKind::TrainingPreempt
            | FaultKind::CheckpointCorrupt
            | FaultKind::CheckpointStale => {
                assert!(
                    matches!(deployment, Deployment::Mono { .. }),
                    "drafter faults are not supported in disaggregated scenarios"
                )
            }
            _ => {}
        }
    }
    faults.sort_by(|a, b| a.at_s.partial_cmp(&b.at_s).expect("finite fault times"));
    let mut up = vec![true; slots];
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

/// The panic of a setter called on the wrong [`Deployment`].
fn wrong_deployment(setter: &str, deployment: &str) -> ! {
    panic!("{setter}() applies to {deployment} deployments only")
}

/// Fluent builder for [`Scenario`]. A deployment setter panics on the other
/// deployment; [`pools`](ScenarioBuilder::pools) switches to the cluster.
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

    /// Sets the number of monolithic replicas.
    pub fn replicas(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one replica");
        let Deployment::Mono { replicas, .. } = &mut self.scenario.deployment else {
            wrong_deployment("replicas", "monolithic")
        };
        *replicas = n;
        self
    }

    /// Sets the monolithic routing policy.
    pub fn balancer(mut self, policy: BalancerPolicy) -> Self {
        let Deployment::Mono { balancer, .. } = &mut self.scenario.deployment else {
            wrong_deployment("balancer", "monolithic")
        };
        *balancer = policy;
        self
    }

    /// Enables the adaptive speculative-decoding manager on every replica.
    pub fn adaptive_sd(mut self) -> Self {
        let Deployment::Mono { adaptive_sd, .. } = &mut self.scenario.deployment else {
            wrong_deployment("adaptive_sd", "monolithic")
        };
        *adaptive_sd = true;
        self
    }

    /// Enables optimistic KV admission with preemption.
    pub fn preemption(mut self) -> Self {
        let Deployment::Mono { preemption, .. } = &mut self.scenario.deployment else {
            wrong_deployment("preemption", "monolithic")
        };
        *preemption = true;
        self
    }

    /// Switches the deployment to the disaggregated cluster with these
    /// initial pool sizes, the default NVLink-class link (50 GB/s, 2 ms) and
    /// no autoscaler; shape it afterwards with [`link`](Self::link) and
    /// [`autoscale`](Self::autoscale).
    pub fn pools(mut self, prefill: usize, decode: usize) -> Self {
        assert!(
            prefill > 0 && decode > 0,
            "both pools need at least one replica"
        );
        self.scenario.deployment = Deployment::Disagg {
            prefill,
            decode,
            link: TransferLinkConfig::default(),
            autoscale: false,
        };
        self
    }

    /// Shapes the cluster's KV transfer link. A deliberately slow link keeps
    /// transfers on the wire longer, so mid-transfer crash schedules actually
    /// hit one.
    pub fn link(mut self, bandwidth_gbps: f64, latency_s: f64) -> Self {
        assert!(
            bandwidth_gbps > 0.0 && latency_s >= 0.0,
            "link shape must be positive"
        );
        let Deployment::Disagg { link, .. } = &mut self.scenario.deployment else {
            wrong_deployment("link", "disaggregated")
        };
        *link = TransferLinkConfig {
            bandwidth_gbps,
            latency_s,
        };
        self
    }

    /// Enables the reactive autoscaler over both cluster pools.
    pub fn autoscale(mut self) -> Self {
        let Deployment::Disagg { autoscale, .. } = &mut self.scenario.deployment else {
            wrong_deployment("autoscale", "disaggregated")
        };
        *autoscale = true;
        self
    }

    /// Sets the base arrival rate and horizon.
    pub fn arrivals(mut self, rps: f64, horizon_s: f64) -> Self {
        assert_finite_positive(format_args!("arrival rate"), rps);
        assert_finite_positive(format_args!("arrival horizon"), horizon_s);
        self.scenario.rps = rps;
        self.scenario.horizon_s = horizon_s;
        self
    }

    /// Gives `share` of the arrivals a shared system prompt of `len` tokens.
    pub fn prefix_share(mut self, share: f64, len: usize) -> Self {
        assert!((0.0..=1.0).contains(&share), "share must be in [0, 1]");
        self.scenario.prefix = Some(SharedPrefixSpec { share, len });
        self
    }

    /// Schedules an arbitrary fault. On a cluster, replicas are addressed by
    /// global fault index (see [`Deployment::Disagg`]).
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

    /// Schedules an arrival storm (validated at build time: the rate and the
    /// duration must be finite and positive).
    pub fn storm(self, at_s: f64, burst_rps: f64, duration_s: f64) -> Self {
        self.fault(
            at_s,
            FaultKind::ArrivalStorm {
                burst_rps,
                duration_s,
            },
        )
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

    /// Finalises the scenario: rejects drafter/coordinator faults on a cluster
    /// (not modelled there), validates fault targets against the deployment,
    /// checks the crash / restart order, and sorts the schedule by time.
    pub fn build(mut self) -> Scenario {
        finalize_schedule(&mut self.scenario.faults, &self.scenario.deployment);
        self.scenario
    }
}

/// The pinned scenario matrix: the standing chaos suite every PR must keep
/// green (run by `experiments -- chaos` and the `chaos-suite` CI job) — 12
/// monolithic scenarios, then 5 on the disaggregated cluster. Each scenario is
/// deliberately small — the whole matrix (with its double-run determinism
/// check) finishes in seconds. The slow-link cluster scenarios are timed so a
/// crash provably lands mid-transfer (the runner's tests assert
/// `aborted_transfers > 0`).
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
        Scenario::builder("disagg-baseline")
            .seed(31)
            .pools(2, 2)
            .arrivals(8.0, 8.0)
            .prefix_share(0.5, 96)
            .build(),
        Scenario::builder("disagg-mid-transfer-source-crash")
            .seed(32)
            .pools(2, 1)
            .arrivals(10.0, 6.0)
            .link(1.0, 0.25)
            .prefix_share(0.5, 96)
            .crash(1.5, 0)
            .restart(3.5, 0)
            .build(),
        Scenario::builder("disagg-mid-transfer-dest-crash")
            .seed(33)
            .pools(1, 2)
            .arrivals(10.0, 6.0)
            .link(1.0, 0.25)
            .crash(1.5, 1)
            .restart(3.0, 1)
            .build(),
        Scenario::builder("disagg-autoscale-drain-storm")
            .seed(34)
            .pools(1, 1)
            .arrivals(4.0, 10.0)
            .autoscale()
            .link(2.0, 0.02)
            .prefix_share(0.4, 96)
            .storm(2.0, 120.0, 3.0)
            .build(),
        Scenario::builder("disagg-decode-straggler")
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
    #[should_panic(expected = "factor 0 is not finite and positive")]
    fn zero_slow_factor_is_rejected_at_build_time() {
        let _ = Scenario::builder("t").replicas(2).slow(1.0, 1, 0.0).build();
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
    fn non_finite_or_zero_rates_and_spans_are_rejected_at_build_time() {
        // Each of these used to build and then hang in (or panic deep inside)
        // the arrival generator.
        let rejected = |what: &str, build: fn() -> Scenario| {
            let err = std::panic::catch_unwind(build).expect_err(what);
            let msg = err.downcast_ref::<String>().map_or("", String::as_str);
            assert!(msg.contains("is not finite and positive"), "{what}: {msg}");
        };
        rejected("NaN storm duration", || {
            Scenario::builder("b").storm(1.0, 30.0, f64::NAN).build()
        });
        rejected("infinite storm rate", || {
            Scenario::builder("b")
                .storm(1.0, f64::INFINITY, 1.0)
                .build()
        });
        rejected("infinite arrival rate", || {
            Scenario::builder("b").arrivals(f64::INFINITY, 5.0).build()
        });
        rejected("zero storm rate", || {
            Scenario::builder("b").storm(1.0, 0.0, 1.0).build()
        });
    }

    #[test]
    fn disagg_builder_validates_global_fault_indices() {
        let s = Scenario::builder("d")
            .pools(2, 1)
            .restart(4.0, 2)
            .crash(1.0, 2)
            .build();
        assert_eq!(s.faults[0].kind, FaultKind::ReplicaCrash { replica: 2 });
        assert_eq!(s.deployment.fault_slots(), 3);
        assert_eq!(s.deployment.label(), "2P+1D");
        assert!(s.schedule_label().contains("crash(r2)@1"));
    }

    #[test]
    fn pools_switches_to_a_cluster_with_the_default_link() {
        let s = Scenario::builder("d").pools(1, 2).build();
        assert_eq!(
            s.deployment,
            Deployment::Disagg {
                prefill: 1,
                decode: 2,
                link: TransferLinkConfig {
                    bandwidth_gbps: 50.0,
                    latency_s: 0.002
                },
                autoscale: false,
            }
        );
    }

    #[test]
    #[should_panic(expected = "adaptive_sd() applies to monolithic deployments only")]
    fn mono_setter_on_a_disagg_deployment_panics() {
        let _ = Scenario::builder("d").pools(1, 1).adaptive_sd();
    }

    #[test]
    #[should_panic(expected = "link() applies to disaggregated deployments only")]
    fn cluster_setter_on_a_mono_deployment_panics() {
        let _ = Scenario::builder("m").link(1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "fault targets replica")]
    fn disagg_out_of_range_fault_target_panics() {
        let _ = Scenario::builder("d").pools(1, 1).crash(1.0, 2).build();
    }

    #[test]
    #[should_panic(expected = "factor NaN is not finite and positive")]
    fn disagg_nan_slow_factor_is_rejected_at_build_time() {
        let _ = Scenario::builder("d")
            .pools(1, 1)
            .slow(1.0, 1, f64::NAN)
            .build();
    }

    #[test]
    #[should_panic(expected = "drafter faults are not supported")]
    fn disagg_rejects_drafter_faults() {
        let _ = Scenario::builder("d")
            .pools(2, 2)
            .fault(1.0, FaultKind::TrainingPreempt)
            .build();
    }

    #[test]
    fn pinned_matrix_has_unique_names_and_covers_every_fault_kind() {
        let matrix = pinned_matrix();
        // Unique across both deployments: `--trace-out` keys its sections by
        // name.
        let mut names: Vec<&str> = matrix.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate scenario names");
        // 12 monolithic scenarios, then the 5 cluster ones.
        let disagg = |s: &Scenario| matches!(s.deployment, Deployment::Disagg { .. });
        assert_eq!(matrix.len(), 17);
        assert!(matrix[..12].iter().all(|s| !disagg(s)));
        assert!(matrix[12..].iter().all(disagg));
        let has = |pred: &dyn Fn(&Scenario, &FaultKind) -> bool| {
            matrix
                .iter()
                .any(|s| s.faults.iter().any(|f| pred(s, &f.kind)))
        };
        let mono = |s: &Scenario| !disagg(s);
        assert!(has(
            &|s, k| mono(s) && matches!(k, FaultKind::ReplicaCrash { .. })
        ));
        assert!(has(
            &|s, k| mono(s) && matches!(k, FaultKind::ReplicaRestart { .. })
        ));
        assert!(has(
            &|s, k| mono(s) && matches!(k, FaultKind::SlowReplica { .. })
        ));
        assert!(has(&|_, k| matches!(k, FaultKind::TrainingPreempt)));
        assert!(has(&|_, k| matches!(k, FaultKind::CheckpointCorrupt)));
        assert!(has(&|_, k| matches!(k, FaultKind::CheckpointStale)));
        assert!(has(
            &|s, k| mono(s) && matches!(k, FaultKind::ArrivalStorm { .. })
        ));
    }

    #[test]
    fn disagg_matrix_covers_the_migration_fault_surface() {
        let matrix = pinned_matrix();
        let disagg = |s: &Scenario| matches!(s.deployment, Deployment::Disagg { .. });
        assert_eq!(matrix.iter().filter(|s| disagg(s)).count(), 5);
        let has = |pred: &dyn Fn(&Scenario, &FaultKind) -> bool| {
            matrix
                .iter()
                .any(|s| s.faults.iter().any(|f| pred(s, &f.kind)))
        };
        // A prefill-pool crash, a decode-pool crash, an autoscaled storm and a
        // straggler are all present among the cluster scenarios.
        let pool_crash = |decode_side: bool| {
            move |s: &Scenario, k: &FaultKind| match (s.deployment, *k) {
                (Deployment::Disagg { prefill, .. }, FaultKind::ReplicaCrash { replica }) => {
                    (replica >= prefill) == decode_side
                }
                _ => false,
            }
        };
        assert!(
            has(&pool_crash(false)),
            "no prefill-pool crash in the matrix"
        );
        assert!(has(&pool_crash(true)), "no decode-pool crash in the matrix");
        assert!(has(&|s, k| matches!(
            (s.deployment, k),
            (
                Deployment::Disagg {
                    autoscale: true,
                    ..
                },
                FaultKind::ArrivalStorm { .. }
            )
        )));
        assert!(has(
            &|s, k| disagg(s) && matches!(k, FaultKind::SlowReplica { .. })
        ));
    }
}
