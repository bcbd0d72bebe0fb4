//! The discrete-event chaos runner: drives a serving simulator (any
//! [`Driver`]) through one scenario's fault schedule with
//! [`tlt_serve::drive_schedule`], checking invariants as it goes. The
//! monolithic suite adds the worker coordinator and the drafter checkpoint
//! pipeline through that loop's two closures.
//!
//! Every scenario is executed **twice** and the two runs compared bit-for-bit —
//! seed-determinism is itself one of the checked invariants, so a fault path
//! that consults wall-clock time or unseeded randomness fails the matrix.

use crate::invariants::{check_conservation, check_coordinator, InvariantReport};
use crate::scenario::{DisaggScenario, FaultEvent, FaultKind, Scenario};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::cell::RefCell;
use tlt_coord::{Coordinator, CoordinatorConfig, CoordinatorStats, WorkerEvent, WorkerState};
use tlt_draft::{
    serialize_trainable, validate_trainable, DraftModel, DrafterVault, FeatureSource, SwapOutcome,
};
use tlt_gpusim::{GpuType, LlmCostModel};
use tlt_model::{ModelConfig, ModelSpec, SamplingParams, TinyLm};
use tlt_obs::{
    install, record, render_postmortem, uninstall, EventKind, FlightRecorder, ObsEvent, Track,
    DEFAULT_CAPACITY_PER_TRACK, NO_REQ,
};
use tlt_rollout::{
    speculative_generate_with_swap, vanilla_generate, SdManagerConfig, SdMode, SdStrategy,
    SpecDrafter,
};
use tlt_serve::{
    drive_schedule, AutoscaleConfig, ClusterReport, ClusterSim, DisaggConfig, Driver, ServeConfig,
    ServeReport, ServeSim, TransferLinkConfig,
};
use tlt_workload::RequestArrival;

/// Drafter checkpoint-pipeline counters observed during a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct DrafterFaultStats {
    /// Checkpoints adopted (validated, newer, swapped in).
    pub swaps: u64,
    /// Candidates rejected as corrupt.
    pub rejected_corrupt: u64,
    /// Candidates rejected as stale.
    pub rejected_stale: u64,
    /// Rollbacks to the last known-good state.
    pub rollbacks: u64,
}

/// Everything one scenario run produced, on either simulator: `R` is
/// [`ServeReport`] for the monolithic matrix and [`ClusterReport`] (migrations,
/// transfer-link and autoscaler counters included) for the disaggregated one.
#[derive(Debug)]
pub struct ChaosOutcome<R = ServeReport> {
    /// The scenario's name (unique within a matrix).
    pub name: String,
    /// Its fault schedule, as `schedule_label` renders it.
    pub schedule: String,
    /// The deployment at t=0: `"3 replicas"` or `"2P+2D"`.
    pub deployment: String,
    /// Requests in the (storm-merged) arrival stream.
    pub arrivals: usize,
    /// Requests completed.
    pub completed: usize,
    /// Requests dropped at admission (could never fit a KV budget).
    pub dropped: usize,
    /// Failed-over requests re-delivered to a replica.
    pub requeued: u64,
    /// Crash faults applied.
    pub crashes: u64,
    /// Restart faults applied.
    pub restarts: u64,
    /// Coordinator counters at the end of the run (all zero on the cluster
    /// matrix, which scripts serving-path faults only).
    pub coordinator: CoordinatorStats,
    /// Drafter checkpoint-pipeline counters (zero on the cluster matrix).
    pub drafter: DrafterFaultStats,
    /// The report of the (first) run.
    pub report: R,
    /// The invariant verdict.
    pub invariants: InvariantReport,
    /// Flight-recorder events retained by the (first) run, for trace export.
    pub trace: Vec<ObsEvent>,
    /// The rendered flight-recorder dump; `Some` exactly when an invariant
    /// broke. Names the violated invariants, then the last-N events per track.
    pub postmortem: Option<String>,
}

/// Raw artifacts of a single execution, kept for cross-run comparison.
struct RunArtifacts<R> {
    report: R,
    requeued: u64,
    crashes: u64,
    restarts: u64,
    orphaned: usize,
    drained: bool,
    dropped_ids: Vec<u64>,
    kv_peaks: Vec<(&'static str, usize, usize, usize)>,
    coordinator: CoordinatorStats,
    drafter: DrafterFaultStats,
    /// The post-fault serving drafter, where the run had one.
    live_drafter: Option<DraftModel>,
    violations: InvariantReport,
    events: Vec<ObsEvent>,
}

fn serve_config(scenario: &Scenario) -> ServeConfig {
    let cost = LlmCostModel::new(ModelSpec::qwen2_5_7b(), GpuType::H100.spec(), 1);
    // The whole matrix runs on paged (block-granular) KV accounting, so every
    // scenario exercises the pool: admission in blocks, shared prefixes
    // charged once, blocks freed on crash/drain.
    let mut config = ServeConfig::new(cost, scenario.replicas)
        .with_balancer(scenario.balancer)
        .with_paged_kv(16);
    if scenario.adaptive_sd {
        config = config.with_sd_mode(SdMode::Adaptive {
            config: SdManagerConfig::default(),
        });
    }
    if scenario.preemption {
        config = config.with_preemption();
    }
    config.max_output_tokens = 256;
    config.seed = scenario.seed;
    config
}

/// The drafter-side state the fault injector manipulates.
struct DrafterPipeline {
    target: TinyLm,
    live: DraftModel,
    vault: DrafterVault,
    /// Version counter for "freshly trained" checkpoints.
    next_version: u64,
    trained_seed: u64,
}

impl DrafterPipeline {
    fn new(seed: u64) -> Self {
        let target = TinyLm::new(ModelConfig::micro(), seed.wrapping_add(1));
        let live = DraftModel::new(&target, FeatureSource::LastLayer, seed.wrapping_add(2));
        DrafterPipeline {
            target,
            live,
            vault: DrafterVault::new(),
            next_version: 1,
            trained_seed: seed.wrapping_add(3),
        }
    }

    /// A "freshly trained" checkpoint: new weights at the next version.
    fn trained_candidate(&mut self) -> Vec<u8> {
        self.trained_seed = self.trained_seed.wrapping_add(1);
        let mut trained =
            DraftModel::new(&self.target, FeatureSource::LastLayer, self.trained_seed);
        trained.version = self.next_version;
        self.next_version += 1;
        serialize_trainable(&trained).to_vec()
    }

    /// Training preempted: the halted session hands over its newest checkpoint
    /// and serving adopts it. Reports whether the swap succeeded.
    fn on_training_preempt(&mut self, violations: &mut InvariantReport) {
        let candidate = self.trained_candidate();
        match self.vault.try_swap(&mut self.live, &candidate) {
            SwapOutcome::Swapped { .. } => {}
            other => violations.violate(
                "checkpoint-guard",
                format!("fresh checkpoint rejected: {other:?}"),
            ),
        }
    }

    /// A corrupt checkpoint arrives: both a truncated and a NaN-poisoned
    /// variant must be rejected, the live drafter must be untouched, and a
    /// last-good rollback must restore damaged weights bit-exactly.
    fn on_corrupt_checkpoint(&mut self, violations: &mut InvariantReport) {
        if self.vault.last_good_version() == 0 {
            self.vault.commit(&self.live);
        }
        let before = self.live.clone();
        let good = self.trained_candidate();

        let mut truncated = good.clone();
        truncated.truncate(truncated.len().saturating_sub(7));
        if !matches!(
            self.vault.try_swap(&mut self.live, &truncated),
            SwapOutcome::RejectedCorrupt { .. }
        ) {
            violations.violate(
                "checkpoint-guard",
                "truncated checkpoint was not rejected".to_string(),
            );
        }

        let mut poisoned = good;
        // Poison the first fusion weight (after the version + shape headers).
        let offset = 8 + 16;
        poisoned[offset..offset + 4].copy_from_slice(&f32::NAN.to_le_bytes());
        if !matches!(
            self.vault.try_swap(&mut self.live, &poisoned),
            SwapOutcome::RejectedCorrupt { .. }
        ) {
            violations.violate(
                "checkpoint-guard",
                "NaN-poisoned checkpoint was not rejected".to_string(),
            );
        }
        if self.live != before {
            violations.violate(
                "checkpoint-guard",
                "rejected checkpoint still mutated the live drafter".to_string(),
            );
        }

        // Simulate a damaged in-memory drafter and roll back to last-good.
        let pristine = serialize_trainable(&self.live);
        for w in self.live.fusion.weight.as_mut_slice() {
            *w = 0.0;
        }
        if !self.vault.restore_last_good(&mut self.live) {
            violations.violate(
                "checkpoint-guard",
                "no last-good state to roll back to".to_string(),
            );
        }
        // The vault's last-good is the most recent *committed* state, which by
        // construction here equals the pre-damage live state.
        if serialize_trainable(&self.live) != pristine {
            violations.violate(
                "checkpoint-guard",
                "rollback did not restore the drafter bit-exactly".to_string(),
            );
        }
    }

    /// A stale checkpoint (not newer than the live drafter) must be rejected.
    fn on_stale_checkpoint(&mut self, violations: &mut InvariantReport) {
        let mut stale = self.live.clone();
        stale.version = self.live.version; // same version: not newer
        let data = serialize_trainable(&stale);
        if !matches!(
            self.vault.try_swap(&mut self.live, &data),
            SwapOutcome::RejectedStale { .. }
        ) {
            violations.violate(
                "checkpoint-guard",
                "stale checkpoint was not rejected".to_string(),
            );
        }
    }
}

/// Mirrors replica health/work onto coordinator worker states, emitting only
/// transitions (so promotion counts stay meaningful).
struct CoordinatorMirror {
    coord: Coordinator,
    reported: Vec<WorkerState>,
}

impl CoordinatorMirror {
    fn new(workers: usize) -> Self {
        CoordinatorMirror {
            coord: Coordinator::new(workers, CoordinatorConfig::default()),
            reported: vec![WorkerState::Busy; workers],
        }
    }

    fn sync(&mut self, sim: &ServeSim, now: f64, violations: &mut InvariantReport) {
        for (i, replica) in sim.replicas().iter().enumerate() {
            let desired = if !replica.is_up() {
                WorkerState::Failed
            } else if replica.has_work() {
                WorkerState::Busy
            } else {
                WorkerState::Idle
            };
            if desired != self.reported[i] {
                self.coord.handle_event(
                    WorkerEvent::StateChanged {
                        worker: i,
                        state: desired,
                        at: now,
                    },
                    now,
                );
                self.reported[i] = desired;
                record(
                    ObsEvent::instant(now, Track::Coordinator, EventKind::WorkerState, NO_REQ)
                        .with_args(i as f64, worker_state_code(desired)),
                );
            }
        }
        check_coordinator(violations, &self.coord, "sync");
    }

    /// The end-of-run sweep: a preemption must always succeed, return every
    /// live worker to BUSY, and leave failed workers failed.
    fn final_sweep(&mut self, violations: &mut InvariantReport) {
        self.coord.preempt_for_rollout();
        check_coordinator(violations, &self.coord, "final-preempt");
        if self.coord.training_session().is_some() {
            violations.violate(
                "coordinator-consistency",
                "session survived the final preemption".to_string(),
            );
        }
        for w in 0..self.coord.num_workers() {
            let state = self.coord.worker_state(w);
            let expected_failed = self.reported[w] == WorkerState::Failed;
            let consistent = if expected_failed {
                state == WorkerState::Failed
            } else {
                state == WorkerState::Busy
            };
            if !consistent {
                violations.violate(
                    "coordinator-consistency",
                    format!("worker {w} is {state} after the final preemption"),
                );
            }
        }
    }
}

/// Trace-arg encoding of a coordinator worker state.
fn worker_state_code(state: WorkerState) -> f64 {
    match state {
        WorkerState::Idle => 0.0,
        WorkerState::Busy => 1.0,
        WorkerState::Training => 2.0,
        WorkerState::Failed => 3.0,
    }
}

/// What the monolithic suite adds to a run: replica health mirrored onto the
/// coordinator after every step of the schedule, and the drafter checkpoint
/// pipeline the non-serving faults act on.
struct MonoSide {
    mirror: CoordinatorMirror,
    drafter: DrafterPipeline,
    violations: InvariantReport,
}

impl MonoSide {
    fn apply(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::TrainingPreempt => {
                self.mirror.coord.preempt_for_rollout();
                for state in &mut self.mirror.reported {
                    if *state != WorkerState::Failed {
                        *state = WorkerState::Busy;
                    }
                }
                self.drafter.on_training_preempt(&mut self.violations);
            }
            FaultKind::CheckpointCorrupt => {
                self.drafter.on_corrupt_checkpoint(&mut self.violations)
            }
            FaultKind::CheckpointStale => self.drafter.on_stale_checkpoint(&mut self.violations),
            other => unreachable!("{} is not a coordinator or drafter fault", other.label()),
        }
    }
}

/// One execution of a fault schedule on `sim`, under a flight recorder of its
/// own so a postmortem always has the last-N events per track (any recorder
/// the caller had installed, e.g. an `experiments` trace sweep, is stashed and
/// restored). Crashes, restarts and stragglers are applied here; every other
/// fault kind goes to `side_fault`, and `after` is the loop's hook.
fn run_once<D: Driver>(
    mut sim: D,
    arrivals: &[RequestArrival],
    faults: &[FaultEvent],
    probe_violation: bool,
    mut side_fault: impl FnMut(FaultKind),
    after: impl FnMut(&D, f64),
) -> RunArtifacts<D::Report> {
    let outer_recorder = install(FlightRecorder::new(DEFAULT_CAPACITY_PER_TRACK));
    let mut violations = InvariantReport::new();
    let actions: Vec<(f64, FaultKind)> = faults.iter().map(|f| (f.at_s, f.kind)).collect();
    let apply = |sim: &mut D, t: f64, kind: &FaultKind| match *kind {
        FaultKind::ReplicaCrash { replica } => sim.crash_replica(replica, t),
        FaultKind::ReplicaRestart { replica } => sim.restart_replica(replica, t),
        FaultKind::SlowReplica { replica, factor } => sim.set_slow_factor(replica, factor),
        other => side_fault(other),
    };
    if drive_schedule(&mut sim, arrivals, &actions, apply, after).budget_exhausted() {
        // Let the `drained` invariant report the leftover work.
        violations.violate(
            "drained",
            "event budget exhausted before the schedule completed".to_string(),
        );
    }
    if probe_violation {
        record(ObsEvent::instant(
            sim.state().now_s(),
            Track::Coordinator,
            EventKind::Probe,
            NO_REQ,
        ));
        violations.violate(
            "postmortem-probe",
            "forced violation probe (alerting-path self-test)".to_string(),
        );
    }
    let events = uninstall()
        .expect("flight recorder installed at run start")
        .events();
    if let Some(outer) = outer_recorder {
        install(outer);
    }

    let drained = !sim.has_work();
    // Pool conservation: refcounts coherent on every replica (and, on a
    // cluster, on both sides of the link), and — once the deployment has
    // drained — no block left referenced (leak check).
    if let Err(detail) = sim.kv_pool_check() {
        violations.violate("kv-pool-conservation", detail);
    }
    if drained && sim.kv_pool_leaked() > 0 {
        violations.violate(
            "kv-pool-conservation",
            format!(
                "{} blocks leaked after the full drain",
                sim.kv_pool_leaked()
            ),
        );
    }
    let (crashes, restarts) = sim.state().fault_counts();
    RunArtifacts {
        requeued: sim.state().requeued(),
        crashes,
        restarts,
        orphaned: sim.state().orphaned(),
        drained,
        dropped_ids: sim.dropped_ids(),
        // KV budget is checked in block units (every matrix runs paged
        // accounting).
        kv_peaks: sim.kv_peaks(),
        coordinator: CoordinatorStats::default(),
        drafter: DrafterFaultStats::default(),
        live_drafter: None,
        violations,
        events,
        report: sim.into_report(),
    }
}

/// [`run_once`] on the monolithic frontend with the coordinator mirror and the
/// drafter pipeline riding along.
fn run_mono_once(scenario: &Scenario, arrivals: &[RequestArrival]) -> RunArtifacts<ServeReport> {
    let side = RefCell::new(MonoSide {
        mirror: CoordinatorMirror::new(scenario.replicas),
        drafter: DrafterPipeline::new(scenario.seed),
        violations: InvariantReport::new(),
    });
    let mut run = run_once(
        ServeSim::new(&serve_config(scenario)),
        arrivals,
        &scenario.runtime_faults(),
        scenario.probe_violation,
        |kind| side.borrow_mut().apply(kind),
        |sim, t| {
            let side = &mut *side.borrow_mut();
            side.mirror.sync(sim, t, &mut side.violations);
        },
    );
    let mut side = side.into_inner();
    side.mirror.final_sweep(&mut side.violations);
    run.violations.violations.extend(side.violations.violations);
    let (swaps, rejected_corrupt, rejected_stale, rollbacks) = side.drafter.vault.counters();
    run.coordinator = side.mirror.coord.stats();
    run.drafter = DrafterFaultStats {
        swaps,
        rejected_corrupt,
        rejected_stale,
        rollbacks,
    };
    run.live_drafter = Some(side.drafter.live);
    run
}

/// Token-level losslessness probe: with the *post-fault* serving drafter, greedy
/// speculative decoding — including a mid-generation swap to a second drafter —
/// must emit exactly the vanilla sequence.
fn check_losslessness(seed: u64, live: &DraftModel, report: &mut InvariantReport) {
    if validate_trainable(&serialize_trainable(live)).is_err() {
        report.violate(
            "losslessness",
            "post-fault serving drafter holds invalid weights".to_string(),
        );
        return;
    }
    let target = TinyLm::new(ModelConfig::micro(), seed.wrapping_add(1));
    let other = DraftModel::new(&target, FeatureSource::LastLayer, seed.wrapping_add(9));
    let params = SamplingParams::greedy();
    let strategy = SdStrategy {
        draft_depth: 4,
        top_k: 1,
        tokens_to_verify: 4,
    };
    for p in 0..3u64 {
        let prompt: Vec<u32> = vec![1 + (p as u32 % 5), 4, 2, 8];
        let mut rng = StdRng::seed_from_u64(p);
        let vanilla = vanilla_generate(&target, &prompt, 24, params, None, &mut rng);
        let spec_live = SpecDrafter::Learned(live);
        let spec_other = SpecDrafter::Learned(&other);
        let mut rng = StdRng::seed_from_u64(p + 100);
        let swapped = speculative_generate_with_swap(
            &target,
            &[(2, &spec_live), (usize::MAX, &spec_other)],
            &prompt,
            24,
            strategy,
            params,
            None,
            &mut rng,
        );
        if swapped.tokens != vanilla.tokens {
            report.violate(
                "losslessness",
                format!(
                    "prompt {p}: speculative output diverged across a drafter swap \
                     ({} vs {} tokens)",
                    swapped.tokens.len(),
                    vanilla.tokens.len()
                ),
            );
        }
    }
}

fn check_determinism<R: std::fmt::Debug>(
    a: &RunArtifacts<R>,
    b: &RunArtifacts<R>,
    report: &mut InvariantReport,
) {
    // `Debug` prints every float exactly, so this compares the whole report:
    // completion records, aggregates and, on a cluster, the migration and
    // autoscaler accounting.
    if format!("{:?}", a.report) != format!("{:?}", b.report) {
        report.violate(
            "seed-determinism",
            "reports differ between identical runs".to_string(),
        );
    }
    if (a.requeued, a.crashes, a.restarts, a.orphaned)
        != (b.requeued, b.crashes, b.restarts, b.orphaned)
    {
        report.violate(
            "seed-determinism",
            "fault accounting differs between identical runs".to_string(),
        );
    }
    if a.coordinator != b.coordinator {
        report.violate(
            "seed-determinism",
            "coordinator stats differ between identical runs".to_string(),
        );
    }
    if a.drafter != b.drafter || a.live_drafter != b.live_drafter {
        report.violate(
            "seed-determinism",
            "drafter pipeline state differs between identical runs".to_string(),
        );
    }
    if a.events != b.events {
        report.violate(
            "seed-determinism",
            "flight-recorder traces differ between identical runs".to_string(),
        );
    }
}

/// Executes `run_once` twice (seed-determinism is itself an invariant) and
/// checks the first run against every end-of-run invariant.
fn conclude<D: Driver>(
    (name, seed, schedule, deployment): (&str, u64, String, String),
    arrivals: &[RequestArrival],
    run_once: impl Fn() -> RunArtifacts<D::Report>,
) -> ChaosOutcome<D::Report> {
    let first = run_once();
    let second = run_once();
    let serve = D::serve_report(&first.report);

    let mut invariants = first.violations.clone();

    // Request conservation: every arrival completes or drops exactly once.
    let arrival_ids: Vec<u64> = arrivals.iter().map(|a| a.id).collect();
    let completed_ids: Vec<u64> = serve.completed.iter().map(|r| r.id).collect();
    check_conservation(
        &mut invariants,
        &arrival_ids,
        &completed_ids,
        &first.dropped_ids,
    );

    // KV budget: no replica ever started a step with more blocks charged
    // than its pool holds.
    for &(pool, index, peak, budget) in &first.kv_peaks {
        if peak > budget {
            invariants.violate(
                "kv-budget",
                format!("{pool} {index} peaked at {peak} KV blocks (pool budget {budget})"),
            );
        }
    }

    // The deployment drained (nothing queued, running, in flight, or orphaned).
    if !first.drained {
        invariants.violate(
            "drained",
            format!(
                "work left behind at end of schedule ({} orphaned)",
                first.orphaned
            ),
        );
    }

    if let Some(live) = &first.live_drafter {
        check_losslessness(seed, live, &mut invariants);
    }
    check_determinism(&first, &second, &mut invariants);

    // Any violation dumps the flight recorder: the violated invariants first,
    // then the last-N events per track — the operator-facing crash artifact.
    let postmortem = (!invariants.passed()).then(|| {
        let mut header = format!(
            "scenario '{name}' (seed {seed}): {}\n",
            invariants.verdict()
        );
        for v in &invariants.violations {
            header.push_str(&format!("violated {}: {}\n", v.invariant, v.detail));
        }
        render_postmortem(&header, &first.events)
    });

    ChaosOutcome {
        name: name.to_string(),
        schedule,
        deployment,
        arrivals: arrivals.len(),
        completed: serve.completed.len(),
        dropped: serve.dropped,
        requeued: first.requeued,
        crashes: first.crashes,
        restarts: first.restarts,
        coordinator: first.coordinator,
        drafter: first.drafter,
        report: first.report,
        invariants,
        trace: first.events,
        postmortem,
    }
}

/// Runs one scenario (twice, for the determinism invariant) and returns the
/// outcome with its invariant verdict.
pub fn run_scenario(scenario: &Scenario) -> ChaosOutcome {
    let arrivals = scenario.arrival_stream();
    let header = (
        scenario.name.as_str(),
        scenario.seed,
        scenario.schedule_label(),
        format!("{} replicas", scenario.replicas),
    );
    conclude::<ServeSim>(header, &arrivals, || run_mono_once(scenario, &arrivals))
}

/// Runs every scenario in the pinned matrix.
pub fn run_pinned_matrix() -> Vec<ChaosOutcome> {
    crate::scenario::pinned_matrix()
        .iter()
        .map(run_scenario)
        .collect()
}

fn disagg_config(scenario: &DisaggScenario) -> DisaggConfig {
    let cost = LlmCostModel::new(ModelSpec::qwen2_5_7b(), GpuType::H100.spec(), 1);
    // Paged accounting is mandatory on the cluster path (migration is a block
    // handoff); same model/GPU and output cap as the monolithic suite.
    let mut base = ServeConfig::new(cost, 1).with_paged_kv(16);
    base.max_output_tokens = 256;
    base.seed = scenario.seed;
    let mut config = DisaggConfig::new(base, scenario.prefill_replicas, scenario.decode_replicas)
        .with_link(TransferLinkConfig {
            bandwidth_gbps: scenario.link_bandwidth_gbps,
            latency_s: scenario.link_latency_s,
        });
    if scenario.autoscale {
        // Aggressive thresholds sized to the chaos workload (short prompts,
        // <=256-token outputs) so a storm provably grows the pools and the
        // post-storm lull provably drains them.
        config = config.with_autoscale(AutoscaleConfig {
            interval_s: 0.5,
            min_prefill: 1,
            max_prefill: scenario.prefill_replicas.max(3),
            min_decode: 1,
            max_decode: scenario.decode_replicas.max(3),
            prefill_queue_high: 2.0,
            prefill_queue_low: 0.25,
            decode_tokens_high: 4_000.0,
            decode_tokens_low: 200.0,
            spawn_delay_s: 0.25,
        });
    }
    config
}

/// Runs one disaggregated scenario (twice, for the determinism invariant) and
/// returns the outcome with its invariant verdict. Only serving-path faults
/// reach the cluster: the builder rejects the rest.
pub fn run_disagg_scenario(scenario: &DisaggScenario) -> ChaosOutcome<ClusterReport> {
    let arrivals = scenario.arrival_stream();
    let header = (
        scenario.name.as_str(),
        scenario.seed,
        scenario.schedule_label(),
        format!(
            "{}P+{}D",
            scenario.prefill_replicas, scenario.decode_replicas
        ),
    );
    conclude::<ClusterSim>(header, &arrivals, || {
        run_once(
            ClusterSim::new(disagg_config(scenario)),
            &arrivals,
            &scenario.runtime_faults(),
            false,
            |kind| unreachable!("{} in a disaggregated scenario", kind.label()),
            |_, _| {},
        )
    })
}

/// Runs every scenario in the pinned disaggregated matrix.
pub fn run_disagg_matrix() -> Vec<ChaosOutcome<ClusterReport>> {
    crate::scenario::disagg_matrix()
        .iter()
        .map(run_disagg_scenario)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    #[test]
    fn baseline_scenario_passes_every_invariant() {
        let outcome = run_scenario(
            &Scenario::builder("unit-baseline")
                .seed(1)
                .arrivals(4.0, 5.0)
                .build(),
        );
        assert!(
            outcome.invariants.passed(),
            "violations: {:?}",
            outcome.invariants.violations
        );
        assert_eq!(outcome.completed + outcome.dropped, outcome.arrivals);
        assert_eq!(outcome.crashes, 0);
        assert!(outcome.postmortem.is_none(), "no violation, no dump");
        assert!(
            !outcome.trace.is_empty(),
            "the flight recorder runs on every scenario"
        );
    }

    #[test]
    fn forced_violation_dumps_a_postmortem_with_the_probe() {
        let outcome = run_scenario(
            &Scenario::builder("unit-probe")
                .seed(4)
                .arrivals(4.0, 5.0)
                .forced_violation()
                .build(),
        );
        assert!(!outcome.invariants.passed());
        let dump = outcome
            .postmortem
            .expect("violation must dump the recorder");
        assert!(dump.contains("flight recorder postmortem"));
        assert!(dump.contains("scenario 'unit-probe'"));
        assert!(dump.contains("violated postmortem-probe"));
        assert!(dump.contains("probe"), "the probe event itself is retained");
        assert!(dump.contains("-- frontend"), "frontend track present");
    }

    #[test]
    fn crash_scenario_requeues_and_still_conserves() {
        let outcome = run_scenario(
            &Scenario::builder("unit-crash")
                .seed(2)
                .replicas(3)
                .arrivals(20.0, 6.0)
                .crash(2.5, 1)
                .build(),
        );
        assert!(
            outcome.invariants.passed(),
            "violations: {:?}",
            outcome.invariants.violations
        );
        assert!(outcome.requeued > 0, "the crash must drain live requests");
        assert_eq!(outcome.crashes, 1);
        assert!(outcome.coordinator.workers_failed >= 1);
    }

    #[test]
    fn mid_transfer_source_crash_requeues_and_conserves() {
        let scenario = crate::scenario::disagg_matrix()
            .into_iter()
            .find(|s| s.name == "disagg-mid-transfer-source-crash")
            .expect("pinned disagg matrix names a source-crash scenario");
        let outcome = run_disagg_scenario(&scenario);
        assert!(
            outcome.invariants.passed(),
            "violations: {:?}",
            outcome.invariants.violations
        );
        assert!(
            outcome.report.aborted_transfers > 0,
            "the crash must land inside a KV transfer window \
             (got {} aborts, {} migrations)",
            outcome.report.aborted_transfers,
            outcome.report.migrations
        );
        assert!(outcome.requeued > 0, "in-flight work must be re-queued");
        assert_eq!(outcome.crashes, 1);
        assert_eq!(outcome.restarts, 1);
        assert_eq!(outcome.completed + outcome.dropped, outcome.arrivals);
    }

    #[test]
    fn mid_transfer_dest_crash_aborts_and_conserves() {
        let scenario = crate::scenario::disagg_matrix()
            .into_iter()
            .find(|s| s.name == "disagg-mid-transfer-dest-crash")
            .expect("pinned disagg matrix names a dest-crash scenario");
        let outcome = run_disagg_scenario(&scenario);
        assert!(
            outcome.invariants.passed(),
            "violations: {:?}",
            outcome.invariants.violations
        );
        assert!(
            outcome.report.aborted_transfers > 0,
            "the crash must land inside a KV transfer window \
             (got {} aborts, {} migrations)",
            outcome.report.aborted_transfers,
            outcome.report.migrations
        );
        assert_eq!(outcome.completed + outcome.dropped, outcome.arrivals);
    }

    #[test]
    fn autoscale_storm_scales_up_and_retires_clean() {
        let scenario = crate::scenario::disagg_matrix()
            .into_iter()
            .find(|s| s.name == "disagg-autoscale-drain-storm")
            .expect("pinned disagg matrix names an autoscale storm scenario");
        let outcome = run_disagg_scenario(&scenario);
        assert!(
            outcome.invariants.passed(),
            "violations: {:?}",
            outcome.invariants.violations
        );
        assert!(
            outcome.report.scale_ups > 0,
            "the storm must trip the autoscaler up (got {} scale-ups)",
            outcome.report.scale_ups
        );
        assert!(
            outcome.report.retires > 0,
            "the post-storm lull must drain-and-retire (got {} retires)",
            outcome.report.retires
        );
        assert_eq!(outcome.completed + outcome.dropped, outcome.arrivals);
    }

    #[test]
    fn checkpoint_faults_are_rejected_and_counted() {
        let outcome = run_scenario(
            &Scenario::builder("unit-ckpt")
                .seed(3)
                .arrivals(3.0, 5.0)
                .preempt_training(1.0)
                .corrupt_checkpoint(2.0)
                .stale_checkpoint(3.0)
                .build(),
        );
        assert!(
            outcome.invariants.passed(),
            "violations: {:?}",
            outcome.invariants.violations
        );
        assert_eq!(outcome.drafter.swaps, 1, "the preempt commit swaps once");
        assert_eq!(outcome.drafter.rejected_corrupt, 2, "both corrupt variants");
        assert_eq!(outcome.drafter.rejected_stale, 1);
        assert_eq!(outcome.drafter.rollbacks, 1);
    }
}
