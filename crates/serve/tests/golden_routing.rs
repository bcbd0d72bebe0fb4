//! Golden-trace snapshot tests for the frontend's balancers: one pinned
//! per-replica assignment sequence per policy, over a fixed 12-request arrival
//! set on 3 replicas. A balancer refactor that silently reshuffles routing
//! breaks these exact sequences. One more test pins token KV accounting under
//! memory pressure, drops, preemption and a crash, bit for bit.

use tlt_gpusim::{GpuType, LlmCostModel};
use tlt_model::ModelSpec;
use tlt_serve::{simulate_serving_traced, BalancerPolicy, ServeConfig};
use tlt_workload::RequestArrival;

fn config(policy: BalancerPolicy) -> ServeConfig {
    ServeConfig::new(
        LlmCostModel::new(ModelSpec::qwen2_5_7b(), GpuType::H100.spec(), 1),
        3,
    )
    .with_balancer(policy)
}

/// A fixed arrival set: 12 requests, 150 ms apart, mixed prompt and output
/// sizes — small enough that routing decisions interleave with live decodes.
fn pinned_arrivals() -> Vec<RequestArrival> {
    (0..12u64)
        .map(|i| RequestArrival {
            id: i,
            time_ns: i * 150_000_000,
            prompt_len: 256 + (i as usize % 3) * 128,
            output_len: [64, 192, 48, 256][i as usize % 4],
            prefix_id: 0,
            prefix_len: 0,
        })
        .collect()
}

fn trace_for(policy: BalancerPolicy) -> Vec<usize> {
    let (report, trace) = simulate_serving_traced(&config(policy), &pinned_arrivals());
    assert_eq!(report.completed.len(), 12, "{}", policy.name());
    assert_eq!(trace.len(), 12, "{}", policy.name());
    for (i, (id, _)) in trace.iter().enumerate() {
        assert_eq!(*id, i as u64, "{}", policy.name());
    }
    trace.into_iter().map(|(_, replica)| replica).collect()
}

#[test]
fn round_robin_assignment_sequence_is_pinned() {
    assert_eq!(
        trace_for(BalancerPolicy::RoundRobin),
        vec![0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2]
    );
}

#[test]
fn join_shortest_queue_assignment_sequence_is_pinned() {
    assert_eq!(
        trace_for(BalancerPolicy::JoinShortestQueue),
        vec![0, 1, 2, 0, 0, 2, 1, 0, 2, 1, 1, 2]
    );
}

#[test]
fn least_outstanding_tokens_assignment_sequence_is_pinned() {
    assert_eq!(
        trace_for(BalancerPolicy::LeastOutstandingTokens),
        vec![0, 1, 2, 0, 2, 2, 1, 1, 2, 0, 2, 2]
    );
}

/// FNV-1a 64 over little-endian words.
fn fnv1a_words(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, word| {
        word.to_le_bytes().iter().fold(h, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    })
}

/// Token accounting on a memory-tight fleet (2 replicas of 109,424 KV
/// tokens): 120 requests 40 ms apart, every other one behind a 512-token
/// prefix (charged per request: token accounting shares nothing), and one
/// 500k-token prompt no replica can ever hold. Replica 1 crashes at 1.5 s and
/// restarts at 3 s. Returns the completed count, the dropped ids and a digest
/// of every completion's fields and every replica's preemptions.
fn token_accounting_cell(preemption: bool, sd_mode: tlt_rollout::SdMode) -> (usize, Vec<u64>, u64) {
    use tlt_serve::{drive_schedule, DriveOutcome, Driver, KvAccounting, ServeSim};
    let mut cfg = config(BalancerPolicy::JoinShortestQueue).with_sd_mode(sd_mode);
    cfg.num_replicas = 2;
    cfg.kv_memory_fraction = 0.25;
    cfg.preemption = preemption;
    assert_eq!(cfg.kv_accounting, KvAccounting::Tokens);
    let arrivals: Vec<RequestArrival> = (0..120u64)
        .map(|i| {
            let prefixed = i % 2 == 0;
            RequestArrival {
                id: i,
                time_ns: i * 40_000_000,
                prompt_len: if i == 37 {
                    500_000
                } else {
                    600 + (i as usize * 389) % 1_400
                },
                output_len: [3_000, 700, 4_000, 1_500, 2_500][i as usize % 5],
                prefix_id: if prefixed { 1 + i % 3 } else { 0 },
                prefix_len: if prefixed { 512 } else { 0 },
            }
        })
        .collect();
    let mut sim = ServeSim::new(&cfg);
    let faults = [(1.5, false), (3.0, true)];
    let outcome = drive_schedule(
        &mut sim,
        &arrivals,
        &faults,
        |sim, t, &restart| match restart {
            false => sim.crash_replica(1, t),
            true => sim.restart_replica(1, t),
        },
        |_sim, _t| {},
    );
    assert_eq!(outcome, DriveOutcome::Completed);
    assert_eq!(sim.state().fault_counts(), (1, 1));
    let dropped = sim.dropped_ids();
    let report = sim.into_report();
    assert_eq!(report.completed.len() + dropped.len(), arrivals.len());
    let preemptions: u64 = report.replicas.iter().map(|r| r.preemptions).sum();
    assert_eq!(preemptions > 0, preemption, "preemption {preemption}");
    assert!(
        report.replicas.iter().any(|r| r.failovers > 0),
        "the crash drained work"
    );
    let digest = fnv1a_words(
        report
            .completed
            .iter()
            .flat_map(|c| {
                [
                    c.id,
                    c.replica as u64,
                    c.arrival_s.to_bits(),
                    c.admitted_s.to_bits(),
                    c.first_token_s.to_bits(),
                    c.finish_s.to_bits(),
                    c.prompt_len as u64,
                    c.output_len as u64,
                    u64::from(c.preemptions),
                ]
            })
            .chain(report.replicas.iter().map(|r| r.preemptions)),
    );
    (report.completed.len(), dropped, digest)
}

#[test]
fn token_accounting_under_pressure_drops_and_a_crash_is_pinned() {
    use tlt_rollout::{SdManagerConfig, SdMode};
    let adaptive = SdMode::Adaptive {
        config: SdManagerConfig::default(),
    };
    let mut cells = Vec::new();
    for preemption in [false, true] {
        for sd_mode in [SdMode::Disabled, adaptive.clone()] {
            cells.push(token_accounting_cell(preemption, sd_mode));
        }
    }
    // Request 37 never fits; optimistic admission preempts 57 times.
    assert_eq!(
        cells,
        vec![
            (119, vec![37], 17917399648814405781),
            (119, vec![37], 14662360421049050088),
            (119, vec![37], 11824352939483829557),
            (119, vec![37], 13341414230835627316),
        ]
    );
}
