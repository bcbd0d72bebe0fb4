//! CUDAGraph pool with bucketed, disaggregated, merged capture (§5.1, Figure 10).
//!
//! Replaying decode kernels from pre-captured CUDAGraphs removes launch overhead but
//! each captured graph pins a persistent activation workspace, so supporting many
//! (batch-size x SD-strategy) combinations naively multiplies memory. The paper's
//! Bucketed CUDAGraph Capture applies three optimisations reproduced here:
//!
//! 1. **Bucketed batch sizes** — each strategy is only captured for the batch-size
//!    bucket range it is actually used in (large batches verify fewer tokens).
//! 2. **Disaggregated capture** — target and drafter graphs are captured separately,
//!    because `tokens_to_verify` only affects the target and `top_k` only the drafter.
//! 3. **Merged captures** — graphs with identical (bucket, parameter) keys are shared
//!    across strategies.

use crate::spec::SdStrategy;
use serde::Serialize;
use std::collections::BTreeSet;
use tlt_gpusim::LlmCostModel;
use tlt_model::DraftModelSpec;

/// Capture policy for the graph pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum CaptureMode {
    /// A single static strategy captured across all batch buckets (baseline row 1 of
    /// Table 5).
    SingleStrategy,
    /// Every strategy captured independently across all batch buckets, target and
    /// drafter graphs bundled together (the naive "Multiple Strategies" row).
    VanillaMultiStrategy,
    /// The paper's bucketed + disaggregated + merged capture.
    Bucketed,
}

/// One captured graph (either a target verification graph or a drafter graph).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CapturedGraph {
    /// Maximum batch size the graph supports.
    pub batch_bucket: usize,
    /// Tokens processed per sequence (tokens-to-verify for the target, top-K for the
    /// drafter).
    pub tokens_per_seq: usize,
    /// Whether this is a drafter graph (false = target graph).
    pub for_drafter: bool,
    /// Persistent memory pinned by the capture, in bytes.
    pub memory_bytes: f64,
}

/// A planned pool of captured CUDAGraphs.
#[derive(Debug, Clone, Serialize)]
pub struct CudaGraphPool {
    /// All captured graphs.
    pub graphs: Vec<CapturedGraph>,
}

/// Default batch-size buckets used for capture.
pub fn default_batch_buckets() -> Vec<usize> {
    vec![1, 2, 4, 8, 16, 32, 64, 128]
}

impl CudaGraphPool {
    /// Plans a capture pool for `strategies` under `mode`, estimating memory with the
    /// target cost model and the drafter geometry.
    pub fn plan(
        mode: CaptureMode,
        strategies: &[SdStrategy],
        buckets: &[usize],
        cost: &LlmCostModel,
        drafter: &DraftModelSpec,
    ) -> CudaGraphPool {
        assert!(!strategies.is_empty(), "need at least one strategy");
        assert!(!buckets.is_empty(), "need at least one batch bucket");
        let mut sorted_strategies = strategies.to_vec();
        sorted_strategies.sort_by_key(|s| std::cmp::Reverse(s.tokens_to_verify));
        let mut graphs = Vec::new();
        match mode {
            CaptureMode::SingleStrategy => {
                let s = sorted_strategies[0];
                for &b in buckets {
                    graphs.push(CapturedGraph {
                        batch_bucket: b,
                        tokens_per_seq: s.tokens_to_verify,
                        for_drafter: false,
                        memory_bytes: cost.graph_capture_bytes(b, s.tokens_to_verify),
                    });
                    graphs.push(CapturedGraph {
                        batch_bucket: b,
                        tokens_per_seq: s.top_k,
                        for_drafter: true,
                        memory_bytes: cost.drafter_graph_capture_bytes(drafter, b, s.top_k),
                    });
                }
            }
            CaptureMode::VanillaMultiStrategy => {
                for s in &sorted_strategies {
                    for &b in buckets {
                        graphs.push(CapturedGraph {
                            batch_bucket: b,
                            tokens_per_seq: s.tokens_to_verify,
                            for_drafter: false,
                            memory_bytes: cost.graph_capture_bytes(b, s.tokens_to_verify),
                        });
                        graphs.push(CapturedGraph {
                            batch_bucket: b,
                            tokens_per_seq: s.top_k,
                            for_drafter: true,
                            memory_bytes: cost.drafter_graph_capture_bytes(drafter, b, s.top_k),
                        });
                    }
                }
            }
            CaptureMode::Bucketed => {
                // Partition the batch buckets across strategies: the strategy with the
                // largest tokens_to_verify serves the smallest batches, and so on.
                let assignments = Self::bucket_assignment(&sorted_strategies, buckets);
                // Disaggregated + merged: deduplicate by (bucket, tokens) per model.
                let mut target_keys: BTreeSet<(usize, usize)> = BTreeSet::new();
                let mut drafter_keys: BTreeSet<(usize, usize)> = BTreeSet::new();
                for (strategy, assigned_buckets) in sorted_strategies.iter().zip(&assignments) {
                    for &b in assigned_buckets {
                        target_keys.insert((b, strategy.tokens_to_verify));
                        drafter_keys.insert((b, strategy.top_k));
                    }
                }
                for (b, tokens) in target_keys {
                    graphs.push(CapturedGraph {
                        batch_bucket: b,
                        tokens_per_seq: tokens,
                        for_drafter: false,
                        memory_bytes: cost.graph_capture_bytes(b, tokens),
                    });
                }
                for (b, top_k) in drafter_keys {
                    graphs.push(CapturedGraph {
                        batch_bucket: b,
                        tokens_per_seq: top_k,
                        for_drafter: true,
                        memory_bytes: cost.drafter_graph_capture_bytes(drafter, b, top_k),
                    });
                }
            }
        }
        CudaGraphPool { graphs }
    }

    /// Splits the bucket list into contiguous ranges, one per strategy (strategies are
    /// ordered by descending `tokens_to_verify`, buckets ascending — so the deepest
    /// verification is captured only for the smallest batches).
    fn bucket_assignment(strategies: &[SdStrategy], buckets: &[usize]) -> Vec<Vec<usize>> {
        let n = strategies.len();
        let chunk = (buckets.len() as f64 / n as f64).ceil() as usize;
        (0..n)
            .map(|i| {
                buckets
                    .iter()
                    .copied()
                    .skip(i * chunk)
                    .take(chunk)
                    .collect::<Vec<_>>()
            })
            .map(|mut v: Vec<usize>| {
                // Every strategy keeps at least one bucket (reuse the last one).
                if v.is_empty() {
                    v.push(*buckets.last().expect("non-empty buckets"));
                }
                v
            })
            .collect()
    }

    /// Total persistent memory of the pool in bytes.
    pub fn total_memory_bytes(&self) -> f64 {
        self.graphs.iter().map(|g| g.memory_bytes).sum()
    }

    /// Total persistent memory in GiB.
    pub fn total_memory_gb(&self) -> f64 {
        self.total_memory_bytes() / (1024.0 * 1024.0 * 1024.0)
    }

    /// Number of captured graphs.
    pub fn num_graphs(&self) -> usize {
        self.graphs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlt_gpusim::GpuType;
    use tlt_model::ModelSpec;

    fn setup() -> (LlmCostModel, DraftModelSpec) {
        let cost = LlmCostModel::new(ModelSpec::llama3_8b(), GpuType::H100.spec(), 4);
        let drafter = cost.model.eagle_drafter();
        (cost, drafter)
    }

    #[test]
    fn table5_memory_ordering_holds() {
        // Table 5: single 7.81 GB, vanilla multi 30.39 GB, bucketed 10.69 GB.
        let (cost, drafter) = setup();
        let strategies = SdStrategy::default_set();
        let buckets = default_batch_buckets();
        let single = CudaGraphPool::plan(
            CaptureMode::SingleStrategy,
            &strategies,
            &buckets,
            &cost,
            &drafter,
        );
        let vanilla = CudaGraphPool::plan(
            CaptureMode::VanillaMultiStrategy,
            &strategies,
            &buckets,
            &cost,
            &drafter,
        );
        let bucketed = CudaGraphPool::plan(
            CaptureMode::Bucketed,
            &strategies,
            &buckets,
            &cost,
            &drafter,
        );

        let s = single.total_memory_gb();
        let v = vanilla.total_memory_gb();
        let b = bucketed.total_memory_gb();
        assert!(
            v > 2.5 * s,
            "vanilla {v:.2} GB should be ~4x single {s:.2} GB"
        );
        assert!(
            b < v / 2.0,
            "bucketed {b:.2} GB should be well below vanilla {v:.2} GB"
        );
        assert!(
            b < 2.0 * s,
            "bucketed {b:.2} GB should be close to single {s:.2} GB"
        );
        // Absolute scale sanity: single-strategy pool in the single-digit GB range.
        assert!((2.0..15.0).contains(&s), "single-strategy pool {s:.2} GB");
    }

    #[test]
    fn bucketed_pool_has_fewer_graphs_than_vanilla() {
        let (cost, drafter) = setup();
        let strategies = SdStrategy::default_set();
        let buckets = default_batch_buckets();
        let vanilla = CudaGraphPool::plan(
            CaptureMode::VanillaMultiStrategy,
            &strategies,
            &buckets,
            &cost,
            &drafter,
        );
        let bucketed = CudaGraphPool::plan(
            CaptureMode::Bucketed,
            &strategies,
            &buckets,
            &cost,
            &drafter,
        );
        assert!(bucketed.num_graphs() < vanilla.num_graphs());
    }

    #[test]
    fn strategy_selection_matches_bucket_ranges() {
        let (cost, drafter) = setup();
        // Already in descending `tokens_to_verify` order, as `plan` sorts them.
        let strategies = SdStrategy::default_set();
        assert!(strategies
            .windows(2)
            .all(|w| w[0].tokens_to_verify >= w[1].tokens_to_verify));
        let buckets = default_batch_buckets();
        let pool = CudaGraphPool::plan(
            CaptureMode::Bucketed,
            &strategies,
            &buckets,
            &cost,
            &drafter,
        );
        // Small batches get deep verification, large batches shallow verification
        // (Table 4's observation that larger batches should verify fewer tokens).
        let verified_at = |bucket: usize| {
            let graphs = pool.graphs.iter().filter(|g| !g.for_drafter);
            graphs
                .filter(|g| g.batch_bucket == bucket)
                .map(|g| g.tokens_per_seq)
                .collect::<Vec<_>>()
        };
        let (small, large) = (verified_at(1), verified_at(128));
        assert_eq!(small.len(), 1);
        assert_eq!(large.len(), 1);
        assert!(small[0] > large[0]);
        assert_eq!(small[0], strategies[0].tokens_to_verify);
        assert_eq!(large[0], strategies.last().unwrap().tokens_to_verify);
    }

    #[test]
    fn single_strategy_pool_always_returns_it() {
        let (cost, drafter) = setup();
        let strategies = vec![SdStrategy::default()];
        let pool = CudaGraphPool::plan(
            CaptureMode::SingleStrategy,
            &strategies,
            &default_batch_buckets(),
            &cost,
            &drafter,
        );
        let s = SdStrategy::default();
        assert_eq!(pool.num_graphs(), 2 * default_batch_buckets().len());
        for g in &pool.graphs {
            let want = if g.for_drafter {
                s.top_k
            } else {
                s.tokens_to_verify
            };
            assert_eq!(g.tokens_per_seq, want);
        }
    }

    #[test]
    #[should_panic(expected = "need at least one strategy")]
    fn empty_strategy_list_rejected() {
        let (cost, drafter) = setup();
        let _ = CudaGraphPool::plan(
            CaptureMode::Bucketed,
            &[],
            &default_batch_buckets(),
            &cost,
            &drafter,
        );
    }
}
