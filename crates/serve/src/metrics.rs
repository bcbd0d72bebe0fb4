//! SLO metrics: latency percentiles, goodput, and per-replica utilisation.
//!
//! Each replica keeps its tallies as the plain counters of a
//! [`ReplicaMetrics`], updated in place on the step path; [`ReplicaStats`] is
//! read out of them at report time.

use crate::replica::Replica;
use crate::request::CompletedRequest;
use serde::{Deserialize, Serialize};

/// Percentile of a float sample with linear interpolation (`q` in `[0, 100]`).
/// Returns `0.0` for an empty slice.
///
/// Sorts a copy on every call; when several percentiles of the same series are
/// needed, sort once and use [`percentile_sorted`] (or build a whole
/// [`LatencySummary`]) instead of re-sorting per percentile.
pub fn percentile_f64(values: &[f64], q: f64) -> f64 {
    let mut sorted: Vec<f64> = values.to_vec();
    sort_latencies(&mut sorted);
    percentile_sorted(&sorted, q)
}

/// Sorts a latency series ascending, in place (all values must be finite).
/// Finite values that compare equal are the same bits — a difference of
/// finite times is never `-0.0` — so the unstable sort, which needs no merge
/// buffer, leaves the series exactly as a stable one would.
pub fn sort_latencies(values: &mut [f64]) {
    values.sort_unstable_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
}

/// Percentile of an already ascending-sorted sample. `q` is clamped to
/// `[0, 100]`; a non-finite `q` is rejected rather than silently resolving to
/// the first element (`NaN.floor() as usize` is 0).
///
/// # Panics
///
/// Panics if `q` is NaN or infinite.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(q.is_finite(), "percentile rank must be finite, got {q}");
    if sorted.is_empty() {
        return 0.0;
    }
    let q = q.clamp(0.0, 100.0) / 100.0;
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Percentile summary of one latency dimension.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct LatencySummary {
    /// Median.
    pub p50_s: f64,
    /// 95th percentile.
    pub p95_s: f64,
    /// 99th percentile.
    pub p99_s: f64,
    /// Arithmetic mean.
    pub mean_s: f64,
    /// Worst observed value.
    pub max_s: f64,
}

impl LatencySummary {
    /// Summarises a sample by sorting it in place (no copy): every percentile is
    /// read from the same sorted buffer, so the series is sorted exactly once.
    /// All-zero when empty.
    pub fn from_unsorted_mut(values: &mut [f64]) -> Self {
        if values.is_empty() {
            return LatencySummary::default();
        }
        sort_latencies(values);
        LatencySummary {
            p50_s: percentile_sorted(values, 50.0),
            p95_s: percentile_sorted(values, 95.0),
            p99_s: percentile_sorted(values, 99.0),
            mean_s: values.iter().sum::<f64>() / values.len() as f64,
            max_s: *values.last().expect("non-empty"),
        }
    }
}

/// Latency service-level objective a request must meet to count towards goodput.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SloSpec {
    /// Maximum acceptable time to first token, in seconds.
    pub ttft_s: f64,
    /// Maximum acceptable time per output token, in seconds.
    pub tpot_s: f64,
}

impl SloSpec {
    /// An interactive chat-style SLO.
    pub fn interactive() -> Self {
        SloSpec {
            ttft_s: 1.0,
            tpot_s: 0.05,
        }
    }

    /// Whether a completed request met both latency targets.
    pub fn met(&self, r: &CompletedRequest) -> bool {
        r.ttft_s() <= self.ttft_s && r.tpot_s() <= self.tpot_s
    }
}

/// Per-replica accounting collected by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ReplicaStats {
    /// Replica index.
    pub replica: usize,
    /// Requests completed by this replica.
    pub completed: usize,
    /// Requests dropped because they could never fit the KV budget.
    pub dropped: usize,
    /// Seconds the engine spent executing steps.
    pub busy_s: f64,
    /// Busy seconds divided by the simulation makespan.
    pub utilization: f64,
    /// Fraction of decode steps that ran speculatively.
    pub sd_step_fraction: f64,
    /// Mean accept length over speculative steps (1.0 when SD never ran).
    pub mean_accept_length: f64,
    /// Total preemption events.
    pub preemptions: u64,
    /// Crash-drained requests re-delivered *to* this replica by the frontend.
    pub failovers: u64,
    /// Times this replica crashed (fault injection).
    pub crashes: u64,
    /// Largest running batch observed.
    pub peak_running: usize,
    /// Largest KV-token footprint observed.
    pub peak_kv_tokens: usize,
    /// KV capacity in blocks (0 under token accounting).
    pub kv_block_budget: usize,
    /// Largest number of KV blocks charged (0 under token accounting).
    pub peak_kv_blocks: usize,
    /// Peak pool utilisation, `peak_kv_blocks / kv_block_budget` (0 under
    /// token accounting).
    pub pool_utilization: f64,
    /// Fraction of admitted prompt tokens served from resident prefix blocks.
    pub prefix_hit_rate: f64,
    /// Sequences handed off to a decode replica after prefill (disaggregated
    /// serving; 0 on monolithic replicas).
    pub migrations_out: u64,
    /// Migrated sequences landed on this replica (disaggregated serving).
    pub migrations_in: u64,
}

/// Aggregate result of one serving simulation.
#[derive(Debug, Clone, Serialize)]
pub struct ServeReport {
    /// Requests that ran to completion, in finish order.
    pub completed: Vec<CompletedRequest>,
    /// Requests dropped at admission (could never fit a replica's KV budget).
    pub dropped: usize,
    /// Simulated seconds from t = 0 to the last completion (the finish time
    /// of the last completed request; 0 when none completed).
    pub makespan_s: f64,
    /// Total output tokens produced.
    pub total_output_tokens: u64,
    /// Output tokens per second over the makespan.
    pub throughput_tokens_per_s: f64,
    /// Time-to-first-token summary.
    pub ttft: LatencySummary,
    /// Time-per-output-token summary.
    pub tpot: LatencySummary,
    /// End-to-end latency summary.
    pub e2e: LatencySummary,
    /// Fraction of completed requests meeting the SLO.
    pub slo_attainment: f64,
    /// SLO-meeting completions per second over the makespan.
    pub goodput_rps: f64,
    /// Per-replica accounting.
    pub replicas: Vec<ReplicaStats>,
}

impl ServeReport {
    /// The report sequence both simulation drivers end in: appends whatever a
    /// replica still buffers to the driver's completion `log`, takes the
    /// per-replica table against the makespan, and builds the report around
    /// the log itself.
    pub(crate) fn from_run<'a>(
        mut log: Vec<CompletedRequest>,
        replicas: impl Iterator<Item = &'a mut Replica>,
        slo: SloSpec,
    ) -> Self {
        let mut replicas: Vec<&mut Replica> = replicas.collect();
        for replica in &mut replicas {
            replica.move_completed_into(&mut log);
        }
        let dropped = replicas.iter().map(|r| r.dropped()).sum();
        let makespan_s = log.iter().map(|r| r.finish_s).fold(0.0f64, f64::max);
        let stats = replicas.iter().map(|r| r.stats(makespan_s)).collect();
        ServeReport::build(log, dropped, stats, slo)
    }

    /// Builds the aggregate report from completed requests and replica stats.
    ///
    /// `completed` is sorted in place by `(finish_s, id)` and becomes the
    /// report's `completed`; request ids are unique, so that order is total and
    /// an unstable sort (no merge scratch) returns what a stable one would. The
    /// three latency series are summarised one after another through a single
    /// reused buffer, so the peak on top of the records is 8 bytes per request.
    pub fn build(
        mut completed: Vec<CompletedRequest>,
        dropped: usize,
        replicas: Vec<ReplicaStats>,
        slo: SloSpec,
    ) -> Self {
        let finish_then_id = |a: &CompletedRequest, b: &CompletedRequest| {
            a.finish_s
                .partial_cmp(&b.finish_s)
                .expect("finite finish times")
                .then(a.id.cmp(&b.id))
        };
        completed.sort_unstable_by(finish_then_id);
        debug_assert!(
            completed
                .windows(2)
                .all(|w| finish_then_id(&w[0], &w[1]).is_lt()),
            "two completions share an id"
        );
        let makespan_s = completed.last().map(|r| r.finish_s).unwrap_or(0.0);
        let total_output_tokens: u64 = completed.iter().map(|r| r.output_len as u64).sum();
        let mut scratch = Vec::with_capacity(completed.len());
        let mut summarise = |latency: fn(&CompletedRequest) -> f64| {
            scratch.clear();
            scratch.extend(completed.iter().map(latency));
            LatencySummary::from_unsorted_mut(&mut scratch)
        };
        let ttft = summarise(CompletedRequest::ttft_s);
        let tpot = summarise(CompletedRequest::tpot_s);
        let e2e = summarise(CompletedRequest::e2e_s);
        let met = completed.iter().filter(|r| slo.met(r)).count();
        let denom = makespan_s.max(1e-9);
        ServeReport {
            dropped,
            makespan_s,
            total_output_tokens,
            throughput_tokens_per_s: total_output_tokens as f64 / denom,
            ttft,
            tpot,
            e2e,
            slo_attainment: if completed.is_empty() {
                0.0
            } else {
                met as f64 / completed.len() as f64
            },
            goodput_rps: met as f64 / denom,
            replicas,
            completed,
        }
    }

    /// Mean utilisation across replicas.
    pub fn mean_utilization(&self) -> f64 {
        if self.replicas.is_empty() {
            0.0
        } else {
            self.replicas.iter().map(|r| r.utilization).sum::<f64>() / self.replicas.len() as f64
        }
    }

    /// Mean speculative-step fraction across replicas.
    pub fn mean_sd_fraction(&self) -> f64 {
        if self.replicas.is_empty() {
            0.0
        } else {
            self.replicas
                .iter()
                .map(|r| r.sd_step_fraction)
                .sum::<f64>()
                / self.replicas.len() as f64
        }
    }

    /// Mean peak pool utilisation across replicas (0 under token accounting).
    pub fn mean_pool_utilization(&self) -> f64 {
        if self.replicas.is_empty() {
            0.0
        } else {
            self.replicas
                .iter()
                .map(|r| r.pool_utilization)
                .sum::<f64>()
                / self.replicas.len() as f64
        }
    }

    /// Mean prefix-cache hit rate across replicas.
    pub fn mean_prefix_hit_rate(&self) -> f64 {
        if self.replicas.is_empty() {
            0.0
        } else {
            self.replicas.iter().map(|r| r.prefix_hit_rate).sum::<f64>()
                / self.replicas.len() as f64
        }
    }
}

/// One replica's tallies, updated in place by [`Replica`] as it schedules and
/// completes steps; [`ReplicaStats`] is read out of them at report time. Every
/// tally that has a flight-recorder event is the count (or, for `busy_s`, the
/// in-order sum of span durations) of that replica's events, except that a
/// step a crash aborts was scheduled, and so counted, but never recorded.
#[derive(Debug, Clone, Default)]
pub struct ReplicaMetrics {
    /// Requests run to completion.
    pub(crate) completed: u64,
    /// Decode steps scheduled, vanilla and speculative.
    pub(crate) decode_steps: u64,
    /// Speculative decode steps scheduled.
    pub(crate) sd_steps: u64,
    /// Running requests preempted back to the queue.
    pub(crate) preemptions: u64,
    /// Times the replica crashed.
    pub(crate) crashes: u64,
    /// Crash-drained requests re-delivered to this replica.
    pub(crate) failovers: u64,
    /// Admitted prompt tokens served from resident prefix blocks.
    pub(crate) prefix_hit_tokens: u64,
    /// Prompt tokens admitted.
    pub(crate) admitted_prompt_tokens: u64,
    /// Prefilled sequences handed off toward the decode pool.
    pub(crate) migrations_out: u64,
    /// Migrated sequences landed on this replica.
    pub(crate) migrations_in: u64,
    /// Seconds spent executing completed steps, summed in completion order.
    pub(crate) busy_s: f64,
    /// Largest running batch at a step start.
    pub(crate) peak_running: usize,
    /// Largest KV-token footprint at a step start.
    pub(crate) peak_kv_tokens: usize,
    /// Expected accept lengths of the speculative steps, summed in step
    /// order; over `sd_steps` it is the mean accept length.
    pub(crate) accept_len_sum: f64,
}

impl ReplicaMetrics {
    /// Decode steps scheduled (vanilla or speculative).
    pub fn decode_steps(&self) -> u64 {
        self.decode_steps
    }

    /// Speculative steps scheduled.
    pub fn sd_steps(&self) -> u64 {
        self.sd_steps
    }

    /// Preemption events.
    pub fn preemptions(&self) -> u64 {
        self.preemptions
    }

    /// Largest running batch observed.
    pub fn peak_running(&self) -> usize {
        self.peak_running
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(id: u64, arrival: f64, first: f64, finish: f64, out: usize) -> CompletedRequest {
        CompletedRequest {
            id,
            replica: 0,
            arrival_s: arrival,
            admitted_s: arrival,
            first_token_s: first,
            finish_s: finish,
            prompt_len: 64,
            output_len: out,
            preemptions: 0,
        }
    }

    #[test]
    fn percentile_f64_interpolates_and_handles_edges() {
        let v = vec![10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile_f64(&v, 0.0), 10.0);
        assert_eq!(percentile_f64(&v, 100.0), 40.0);
        assert_eq!(percentile_f64(&v, 50.0), 25.0);
        assert_eq!(percentile_f64(&[], 50.0), 0.0);
    }

    #[test]
    fn summary_percentiles_come_from_one_sorted_buffer() {
        // p50/p95/p99 of a summary must equal the individually computed
        // percentiles, and from_unsorted_mut must not copy (it sorts in place).
        let values: Vec<f64> = (0..57).map(|i| ((i * 37) % 57) as f64 * 0.1).collect();
        let mut in_place = values.clone();
        let summary = LatencySummary::from_unsorted_mut(&mut in_place);
        assert_eq!(summary.p50_s, percentile_f64(&values, 50.0));
        assert_eq!(summary.p95_s, percentile_f64(&values, 95.0));
        assert_eq!(summary.p99_s, percentile_f64(&values, 99.0));
        assert!(in_place.windows(2).all(|w| w[0] <= w[1]), "sorted in place");
    }

    #[test]
    fn latency_summary_orders_percentiles() {
        let mut values: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = LatencySummary::from_unsorted_mut(&mut values);
        assert!(s.p50_s < s.p95_s && s.p95_s < s.p99_s && s.p99_s <= s.max_s);
        assert!((s.mean_s - 50.5).abs() < 1e-9);
    }

    #[test]
    fn slo_accounts_both_dimensions() {
        let slo = SloSpec {
            ttft_s: 1.0,
            tpot_s: 0.1,
        };
        // 0.5 s TTFT, 0.05 s/token: meets.
        assert!(slo.met(&request(0, 0.0, 0.5, 0.5 + 0.05 * 9.0, 10)));
        // TTFT too slow.
        assert!(!slo.met(&request(1, 0.0, 2.0, 2.5, 10)));
        // TPOT too slow.
        assert!(!slo.met(&request(2, 0.0, 0.5, 0.5 + 0.5 * 9.0, 10)));
    }

    #[test]
    fn report_aggregates_and_sorts_by_finish() {
        let completed = vec![request(1, 0.0, 0.5, 4.0, 10), request(0, 0.0, 0.2, 2.0, 30)];
        let slo = SloSpec {
            ttft_s: 1.0,
            tpot_s: 1.0,
        };
        let report = ServeReport::build(completed, 0, Vec::new(), slo);
        assert_eq!(report.completed[0].id, 0);
        assert_eq!(report.total_output_tokens, 40);
        assert!((report.makespan_s - 4.0).abs() < 1e-12);
        assert!((report.throughput_tokens_per_s - 10.0).abs() < 1e-9);
        assert_eq!(report.slo_attainment, 1.0);
        assert!((report.goodput_rps - 0.5).abs() < 1e-9);

        // Equal finish times fall back to the id, whatever order they come in
        // (one step finishes its batch in admission order, not id order).
        let tied: Vec<_> = [7, 5, 3, 1]
            .into_iter()
            .map(|id| request(id, 0.0, 0.5, 3.0, 10))
            .chain([request(9, 0.0, 0.1, 1.0, 10)])
            .collect();
        let report = ServeReport::build(tied, 0, Vec::new(), slo);
        let ids: Vec<u64> = report.completed.iter().map(|r| r.id).collect();
        assert_eq!(ids, [9, 1, 3, 5, 7]);
        assert_eq!(report.makespan_s, 3.0);
    }

    #[test]
    fn empty_report_is_all_zero() {
        let report = ServeReport::build(Vec::new(), 0, Vec::new(), SloSpec::interactive());
        assert_eq!(report.total_output_tokens, 0);
        assert_eq!(report.slo_attainment, 0.0);
        assert_eq!(report.mean_utilization(), 0.0);
        assert_eq!(report.mean_sd_fraction(), 0.0);
    }

    #[test]
    fn percentile_of_single_element_is_that_element_for_every_rank() {
        for q in [0.0, 25.0, 50.0, 99.0, 100.0] {
            assert_eq!(percentile_sorted(&[7.5], q), 7.5);
        }
    }

    #[test]
    fn percentile_of_two_elements_interpolates_linearly() {
        let sorted = [10.0, 20.0];
        assert_eq!(percentile_sorted(&sorted, 0.0), 10.0);
        assert_eq!(percentile_sorted(&sorted, 100.0), 20.0);
        assert!((percentile_sorted(&sorted, 50.0) - 15.0).abs() < 1e-12);
        assert!((percentile_sorted(&sorted, 25.0) - 12.5).abs() < 1e-12);
        assert!((percentile_sorted(&sorted, 75.0) - 17.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_clamps_out_of_range_ranks() {
        let sorted = [1.0, 2.0, 3.0];
        assert_eq!(percentile_sorted(&sorted, -10.0), 1.0);
        assert_eq!(percentile_sorted(&sorted, 250.0), 3.0);
    }

    #[test]
    fn percentile_of_empty_series_is_zero() {
        assert_eq!(percentile_sorted(&[], 50.0), 0.0);
        assert_eq!(percentile_f64(&[], 99.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "percentile rank must be finite")]
    fn nan_rank_is_rejected() {
        percentile_sorted(&[1.0, 2.0], f64::NAN);
    }

    #[test]
    #[should_panic(expected = "latencies are finite")]
    fn nan_value_is_rejected_by_the_sorter() {
        percentile_f64(&[1.0, f64::NAN, 2.0], 50.0);
    }

    #[test]
    fn summary_of_single_element_collapses_every_field() {
        let s = LatencySummary::from_unsorted_mut(&mut [3.25]);
        assert_eq!(s.p50_s, 3.25);
        assert_eq!(s.p95_s, 3.25);
        assert_eq!(s.p99_s, 3.25);
        assert_eq!(s.mean_s, 3.25);
        assert_eq!(s.max_s, 3.25);
    }

    #[test]
    fn summary_of_two_elements_is_consistent() {
        let s = LatencySummary::from_unsorted_mut(&mut [4.0, 2.0]);
        assert!((s.p50_s - 3.0).abs() < 1e-12);
        assert!((s.p95_s - 3.9).abs() < 1e-12);
        assert!((s.p99_s - 3.98).abs() < 1e-12);
        assert_eq!(s.mean_s, 3.0);
        assert_eq!(s.max_s, 4.0);
        // Percentiles are monotone in rank and bounded by the maximum.
        assert!(s.p50_s <= s.p95_s && s.p95_s <= s.p99_s && s.p99_s <= s.max_s);
    }
}
