//! The SD-step evaluator: the one owner of a timing-level decode step.
//!
//! Both timing-level simulators (the rollout engine of [`crate::sim_engine`] and
//! `tlt-serve`'s replicas) advance by the same per-step sequence: dispatch on the
//! [`SdMode`], pick a drafter and strategy, look up the expected accept length,
//! cost the step on the roofline model, and feed the outcome back to the
//! [`AdaptiveSdManager`]. [`SdStepEvaluator`] runs that sequence; the simulators
//! keep only what differs between them (which load the elastic decision sees, the
//! batch bookkeeping, their own statistics).
//!
//! A speculative step commits a whole number of tokens to every sequence, as a
//! real SD round does: `n = floor(carry + E[accept])`, the remainder carried into
//! the next step (error diffusion). `n >= 1` because of the bonus token, and after
//! any number of steps the tokens committed are the integer part of the exact sum
//! of the expected accept lengths, so their long-run mean is `E[accept]`. The
//! tuner and the caller's statistics see `E[accept]` itself.
//!
//! The expected accept length is a pure function of (drafter profile, strategy),
//! so the evaluator keeps one memo slot per (drafter, tuner arm), filled the first
//! time the pair runs; the tuner decides and records by arm index. Beside the
//! accept length, and for the vanilla step, it keeps the batch-only half of the
//! step cost ([`StepBatch`]) and rebuilds a half only when it is asked to cost a
//! different batch.
//!
//! Steps at an unchanged load and batch decide alike unless the decision learns
//! (an arm that shares its tuner bucket: the tuner draws and records per step).
//! For the rollout engine the evaluator hands out such a run as one `SdRun`:
//! the steps to reach `r` more tokens are `ceil((r * 2^52 - carry) / units)`, the
//! tokens after `j` steps `floor((carry + j * units) / 2^52)` (a vanilla step is
//! one whole token, `units = 2^52` from a zero carry), and the time of `j` steps
//! is [`StepBatch::run_time`] over the compute- and memory-bound steps, whose
//! contexts sum as a floor-sum. `SdStepEvaluator::commit` then advances the
//! carry and the tuner's selection counts as that many [`SdStepEvaluator::step`] calls
//! would; a learning decision's run is one step, costed and recorded as `step`
//! does.

use crate::mab::StepObservation;
use crate::manager::{AdaptiveSdManager, DrafterChoice, SdManagerConfig};
use crate::spec::SdStrategy;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use tlt_draft::AcceptanceProfile;
use tlt_gpusim::{LlmCostModel, StepBatch};
use tlt_model::DraftModelSpec;

/// How a timing-level engine uses speculative decoding.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SdMode {
    /// Vanilla decoding only (the VeRL-like baseline).
    Disabled,
    /// A single static strategy applied whenever the batch is below the threshold.
    Static {
        /// The strategy to apply.
        strategy: SdStrategy,
        /// Elastic activation threshold (requests).
        threshold: usize,
    },
    /// Full adaptive behaviour: elastic activation + BEG-MAB strategy selection.
    Adaptive {
        /// Manager configuration.
        config: SdManagerConfig,
    },
}

/// Expected accepted tokens per speculative step of `strategy` under `profile`.
pub fn expected_accept_len(profile: &AcceptanceProfile, strategy: &SdStrategy) -> f64 {
    profile.expected_accept_len_tree(
        strategy.draft_depth,
        strategy.top_k,
        strategy.tokens_to_verify,
    )
}

/// The fixed inputs of a deployment's decode steps, borrowed from the
/// configuration that owns them.
#[derive(Debug, Clone, Copy)]
pub struct SdStepModel<'a> {
    /// Target-model cost model (model geometry + GPU + TP).
    pub cost: &'a LlmCostModel,
    /// Drafter geometry.
    pub drafter: &'a DraftModelSpec,
    /// Acceptance profile of the learned drafter against the current target.
    pub acceptance: &'a AcceptanceProfile,
    /// Acceptance profile of the model-free fallback drafter.
    pub model_free_acceptance: &'a AcceptanceProfile,
}

/// One evaluated decode step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SdStep {
    /// Step duration in seconds (already multiplied by the caller's time scale).
    pub time_s: f64,
    /// Whole tokens committed to every running sequence: 1 for a vanilla step,
    /// the carried integer part of the expected accept length for a speculative one.
    pub tokens: usize,
    /// Expected accept length of the step (`1.0` for a vanilla one): what the
    /// tuner observed and what accept-length statistics average.
    pub accept_len: f64,
    /// Whether the step ran speculative decoding.
    pub speculative: bool,
}

/// Fractional bits of the commit carry: every `f64` at or above 1 is an integer
/// multiple of 2^-52, so the carry adds accept lengths exactly.
const CARRY_BITS: u32 = 52;

/// The fraction of a token in carry units.
const CARRY_MASK: u64 = (1 << CARRY_BITS) - 1;

/// `sum(floor((b + i * a) / 2^52) for i in 0..n)`: the tokens committed before
/// each of `n` steps that add `a` carry units each to `b`. The floor-sum
/// recursion (AtCoder Library's `floor_sum`) in `u128`, in O(log a) rounds; the
/// first two divide by 2^52 and are shifts.
fn floor_sum(n: u64, a: u64, b: u128) -> u128 {
    let (n, a) = (n as u128, a as u128);
    let mask = CARRY_MASK as u128;
    let mut sum = n * n.saturating_sub(1) / 2 * (a >> CARRY_BITS) + n * (b >> CARRY_BITS);
    let (a, b) = (a & mask, b & mask);
    let top = a * n + b;
    if top >> CARRY_BITS == 0 {
        // Whole tokens a step (vanilla, or an integral accept length).
        return sum;
    }
    // The recursion's swap: n steps of a/2^52 tokens are top/2^52 tokens of
    // 2^52/a steps each.
    let (mut n, mut b, mut m, mut a) = (top >> CARRY_BITS, top & mask, a, mask + 1);
    loop {
        if a >= m {
            sum += n * n.saturating_sub(1) / 2 * (a / m);
            a %= m;
        }
        if b >= m {
            sum += n * (b / m);
            b %= m;
        }
        let top = a * n + b;
        if top < m {
            return sum;
        }
        (n, b) = (top / m, top % m);
        std::mem::swap(&mut m, &mut a);
    }
}

/// A run of decode steps that share one decision: the steps an
/// [`SdStepEvaluator`] takes at an unchanged load and batch while its decision
/// does not learn (vanilla, or a tuner arm alone in its bucket), or the one step
/// of a decision that does. Each step commits the whole tokens of the carry
/// plus the accept length (one for vanilla, whose carry stays apart) at a mean
/// context that grows by what the steps before it committed, so the run's
/// tokens and time after `j` steps are closed forms in `j`
/// ([`SdStepEvaluator::run`], [`SdStepEvaluator::commit`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SdRun {
    /// Whether the run's steps are speculative.
    pub(crate) speculative: bool,
    /// Expected accept length of every step (`1.0` for vanilla).
    pub(crate) accept_len: f64,
    /// The batch-only half of every step's cost.
    cost: StepBatch,
    /// Mean context of the first step.
    context: usize,
    /// Carry before the first step, and what each step adds to it (2^52, one
    /// whole token, for vanilla).
    carry: u64,
    units: u64,
    /// Index of the first memory-bound step (`u64::MAX` if none is).
    memory_from: u64,
    /// The tuner arm that learns from the run's one step.
    learner: Option<usize>,
}

impl SdRun {
    /// A run from `context` on `cost`; `speculative` holds the carry, the
    /// accept length in carry units and the accept length, `None` is vanilla.
    fn new(
        cost: StepBatch,
        context: usize,
        speculative: Option<(u64, u64, f64)>,
        learner: Option<usize>,
    ) -> Self {
        let (carry, units, accept_len) = speculative.unwrap_or((0, 1 << CARRY_BITS, 1.0));
        let mut run = SdRun {
            speculative: speculative.is_some(),
            accept_len,
            cost,
            context,
            carry,
            units,
            memory_from: 0,
            learner,
        };
        run.memory_from = match cost.memory_bound_from() {
            usize::MAX => u64::MAX,
            from if from <= context => 0,
            from => run.steps_for(from - context),
        };
        run
    }

    /// Steps the run may take: 1 when its decision learns, else unbounded.
    pub(crate) fn max_steps(&self) -> u64 {
        if self.learner.is_some() {
            1
        } else {
            u64::MAX
        }
    }

    /// Steps until the run has committed at least `tokens` tokens.
    pub(crate) fn steps_for(&self, tokens: usize) -> u64 {
        let owed = ((tokens as u128) << CARRY_BITS).saturating_sub(self.carry as u128);
        u64::try_from(owed.div_ceil(self.units as u128)).unwrap_or(u64::MAX)
    }

    /// Tokens the first `steps` steps commit to every sequence.
    pub(crate) fn tokens_after(&self, steps: u64) -> usize {
        ((self.carry as u128 + steps as u128 * self.units as u128) >> CARRY_BITS) as usize
    }

    /// Time of the first `steps` steps: the compute-bound ones at their
    /// constant time, the memory-bound ones at a time linear in the context,
    /// whose sum over the run is a floor-sum ([`StepBatch::run_time`]). One
    /// step costs what [`SdStepEvaluator::step`] gives, bit for bit; longer
    /// runs match the per-step sum up to summation order.
    pub(crate) fn time(&self, steps: u64) -> f64 {
        if steps == 1 {
            return self.cost.time(self.context);
        }
        let split = self.memory_from.min(steps);
        let memory_steps = steps - split;
        let start = self.carry as u128 + split as u128 * self.units as u128;
        let contexts = memory_steps as u128 * self.context as u128
            + floor_sum(memory_steps, self.units, start);
        self.cost.run_time(steps, memory_steps, contexts)
    }

    /// About how many steps the run takes to spend `seconds` (none for a
    /// negative budget): the compute-bound steps at their time, then a step time
    /// that grows by the context slope times the accept length, solved as a
    /// quadratic. A guess for a search over [`time`](Self::time), off by a step
    /// or two.
    pub(crate) fn steps_within(&self, seconds: f64) -> f64 {
        let first = self.cost.time(self.context);
        let (mut budget, mut done, mut step_s) = (seconds.max(0.0), 0.0, first);
        if self.memory_from > 0 {
            let compute_s = first * self.memory_from as f64;
            if budget <= compute_s {
                return budget / first;
            }
            budget -= compute_s;
            done = self.memory_from as f64;
            step_s = self
                .cost
                .time(self.context + self.tokens_after(self.memory_from));
        }
        // k steps cost k * step_s + growth * k (k - 1) / 2.
        let growth = self.cost.context_slope() * self.units as f64 / (1u64 << CARRY_BITS) as f64;
        let linear = step_s - growth / 2.0;
        done + 2.0 * budget / (linear + (linear * linear + 2.0 * growth * budget).sqrt())
    }
}

/// An [`SdMode`] with the state it needs to be executed.
#[derive(Debug, Clone)]
enum Policy {
    Disabled,
    Static {
        strategy: SdStrategy,
        threshold: usize,
    },
    /// Boxed: an evaluator sits inline in every serving replica, retired ones
    /// included, and the tuner would be 200 of its bytes.
    Adaptive(Box<AdaptiveSdManager>),
}

/// Decides, costs and records decode steps for one engine instance.
///
/// An evaluator serves **one** [`SdStepModel`]: its memo of accept lengths and
/// step costs assumes every [`step`](Self::step) call names the same model.
#[derive(Debug, Clone)]
pub struct SdStepEvaluator {
    policy: Policy,
    rng: StdRng,
    /// Expected accept length of (drafter, arm) at slot `2 * arm + drafter`, the
    /// same in carry units, and the arm's step cost at the last batch it ran on;
    /// sized at construction, so an evaluator with SD disabled has none.
    accept_memo: Vec<Option<(f64, u64, StepBatch)>>,
    /// The vanilla step's cost at the last batch it ran on.
    vanilla: Option<StepBatch>,
    /// The fraction of a token the speculative steps so far have not committed,
    /// in units of 2^-[`CARRY_BITS`]: always below one token.
    carry: u64,
}

impl SdStepEvaluator {
    /// An evaluator for `mode` whose strategy exploration draws from `seed`.
    pub fn new(mode: &SdMode, seed: u64) -> Self {
        let policy = match mode {
            SdMode::Disabled => Policy::Disabled,
            SdMode::Static {
                strategy,
                threshold,
            } => Policy::Static {
                strategy: *strategy,
                threshold: *threshold,
            },
            SdMode::Adaptive { config } => {
                Policy::Adaptive(Box::new(AdaptiveSdManager::new(*config)))
            }
        };
        Self::with_policy(policy, seed)
    }

    /// An adaptive evaluator driven by `manager` (whose tuner may hold a
    /// caller's strategy set), drawing from `seed`.
    pub fn with_manager(manager: AdaptiveSdManager, seed: u64) -> Self {
        Self::with_policy(Policy::Adaptive(Box::new(manager)), seed)
    }

    fn with_policy(policy: Policy, seed: u64) -> Self {
        let arms = match &policy {
            Policy::Disabled => 0,
            Policy::Static { .. } => 1,
            Policy::Adaptive(manager) => manager.selector.arms.len(),
        };
        SdStepEvaluator {
            policy,
            rng: StdRng::seed_from_u64(seed),
            accept_memo: vec![None; 2 * arms],
            vanilla: None,
            carry: 0,
        }
    }

    /// Evaluates the next decode step of `batch` running sequences at mean
    /// context `avg_context`. `load` is the request count the elastic SD
    /// decision sees (the batch itself for a rollout, batch plus backlog for a
    /// serving replica); `time_scale` multiplies the step duration before the
    /// tuner observes it (`1.0` unless the caller models a straggler).
    ///
    /// Inlined into the caller's step loop: the vanilla path is a few dozen
    /// instructions, and the call cost a quarter of `paper_sim`'s host time.
    #[inline]
    pub fn step(
        &mut self,
        model: &SdStepModel<'_>,
        load: usize,
        batch: usize,
        avg_context: usize,
        time_scale: f64,
    ) -> SdStep {
        let Some((slot, arm, learns)) = self.decide(model, load, batch) else {
            let cost = self
                .vanilla
                .as_ref()
                .expect("the vanilla cost was just filled");
            return SdStep {
                time_s: cost.time(avg_context) * time_scale,
                tokens: 1,
                accept_len: 1.0,
                speculative: false,
            };
        };
        let Some((accept, units, cost)) = &self.accept_memo[slot] else {
            unreachable!("the slot was just filled")
        };
        let (accept, time_s) = (*accept, cost.time(avg_context) * time_scale);
        // Whole tokens leave the carry; the fraction stays.
        let total = self.carry + units;
        self.carry = total & CARRY_MASK;
        if learns {
            self.learn(arm, accept, batch, time_s);
        }
        SdStep {
            time_s,
            tokens: (total >> CARRY_BITS) as usize,
            accept_len: accept,
            speculative: true,
        }
    }

    /// Decides the next steps of `batch` sequences at mean context
    /// `avg_context` under `load`, as [`step`](Self::step) does at a time scale
    /// of one, and describes the run of them that share the decision: every
    /// step at this load decides the same unless the decision learns, and then
    /// the run is that one step. Nothing is committed until
    /// [`commit`](Self::commit), which must follow before the evaluator is used
    /// again; the decision is counted here, as the run's first step.
    pub(crate) fn run(
        &mut self,
        model: &SdStepModel<'_>,
        load: usize,
        batch: usize,
        avg_context: usize,
    ) -> SdRun {
        let Some((slot, arm, learns)) = self.decide(model, load, batch) else {
            let cost = self.vanilla.expect("the vanilla cost was just filled");
            return SdRun::new(cost, avg_context, None, None);
        };
        let Some((accept, units, cost)) = self.accept_memo[slot] else {
            unreachable!("the slot was just filled")
        };
        let speculative = Some((self.carry, units, accept));
        SdRun::new(cost, avg_context, speculative, learns.then_some(arm))
    }

    /// Commits the first `steps` steps of `run` (the evaluator's last
    /// [`run`](Self::run)): the carry and the tuner's selection counts advance,
    /// and the tuner records, exactly as `steps` calls of [`step`](Self::step) would.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is 0 or beyond [`SdRun::max_steps`].
    pub(crate) fn commit(&mut self, run: &SdRun, steps: u64) {
        assert!((1..=run.max_steps()).contains(&steps), "{steps} steps");
        if !run.speculative {
            return;
        }
        self.carry = ((run.carry as u128 + steps as u128 * run.units as u128) as u64) & CARRY_MASK;
        match (&mut self.policy, run.learner) {
            (Policy::Adaptive(manager), None) => manager.repeat_decision(steps - 1),
            (_, Some(arm)) => self.learn(arm, run.accept_len, run.cost.batch, run.time(1)),
            _ => {}
        }
    }

    /// The decision at `load`, with the memo filled for `batch`: `None` is
    /// vanilla, else the memo slot, the tuner arm and whether the tuner learns
    /// from the step.
    #[inline]
    fn decide(
        &mut self,
        model: &SdStepModel<'_>,
        load: usize,
        batch: usize,
    ) -> Option<(usize, usize, bool)> {
        let decision = match &mut self.policy {
            Policy::Disabled => None,
            Policy::Static { threshold, .. } => {
                (load <= *threshold).then_some((DrafterChoice::Learned, 0, false))
            }
            Policy::Adaptive(manager) => manager.decide_arm(load, &mut self.rng),
        };
        let Some((drafter, arm, learns)) = decision else {
            if !matches!(&self.vanilla, Some(cost) if cost.batch == batch) {
                self.vanilla = Some(model.cost.decode_batch(batch));
            }
            return None;
        };
        let slot = 2 * arm + drafter as usize;
        if !matches!(&self.accept_memo[slot], Some((.., cost)) if cost.batch == batch) {
            self.refill(model, drafter, arm, batch);
        }
        Some((slot, arm, learns))
    }

    /// Feeds the outcome of a speculative step of `arm` back to the tuner.
    fn learn(&mut self, arm: usize, accept: f64, batch: usize, time_s: f64) {
        if let Policy::Adaptive(manager) = &mut self.policy {
            manager.selector.record_arm(
                arm,
                StepObservation {
                    elapsed_s: time_s,
                    accepted_tokens: (accept - 1.0) * batch as f64,
                    batch_size: batch,
                },
            );
        }
    }

    /// Fills the memo slot of (drafter, arm) for `batch`: the accept length (and
    /// the same in carry units) on first use, the step cost whenever the batch
    /// changed.
    #[cold]
    fn refill(
        &mut self,
        model: &SdStepModel<'_>,
        drafter: DrafterChoice,
        arm: usize,
        batch: usize,
    ) {
        let strategy = match &self.policy {
            Policy::Static { strategy, .. } => *strategy,
            Policy::Adaptive(manager) => manager.selector.arms[arm],
            Policy::Disabled => unreachable!("a disabled evaluator never speculates"),
        };
        let (depth, verify) = (strategy.draft_depth, strategy.tokens_to_verify);
        let cost = model
            .cost
            .speculative_batch(model.drafter, batch, depth, verify);
        let slot = &mut self.accept_memo[2 * arm + drafter as usize];
        let (.., cached) = slot.get_or_insert_with(|| {
            let profile = match drafter {
                DrafterChoice::Learned => model.acceptance,
                DrafterChoice::ModelFree => model.model_free_acceptance,
            };
            let accept = expected_accept_len(profile, &strategy);
            assert!(
                (1.0..2048.0).contains(&accept),
                "accept length {accept} out of range"
            );
            // Exact: `accept >= 1` is a multiple of 2^-52 below 2^11.
            (accept, (accept * (1u64 << CARRY_BITS) as f64) as u64, cost)
        });
        *cached = cost;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim_engine::SimRolloutConfig;
    use tlt_gpusim::GpuType;
    use tlt_model::ModelSpec;

    /// `SimRolloutConfig::vanilla` owns the four inputs an `SdStepModel` borrows.
    fn fixture() -> SimRolloutConfig {
        SimRolloutConfig::vanilla(LlmCostModel::new(
            ModelSpec::qwen2_5_7b(),
            GpuType::H100.spec(),
            1,
        ))
    }

    #[test]
    fn disabled_mode_costs_a_vanilla_decode_step() {
        let fx = fixture();
        let mut eval = SdStepEvaluator::new(&SdMode::Disabled, 0);
        let step = eval.step(&fx.step_model(), 4, 4, 1024, 1.0);
        assert_eq!(
            step,
            SdStep {
                time_s: fx.cost.decode_step_time(4, 1024),
                tokens: 1,
                accept_len: 1.0,
                speculative: false,
            }
        );
    }

    #[test]
    fn static_mode_gates_on_load_and_costs_on_batch() {
        let fx = fixture();
        let strategy = SdStrategy::default();
        let mode = SdMode::Static {
            strategy,
            threshold: 8,
        };
        let mut eval = SdStepEvaluator::new(&mode, 0);
        // Batch 4 with a backlog that lifts the load over the threshold.
        assert!(!eval.step(&fx.step_model(), 9, 4, 1024, 1.0).speculative);
        let step = eval.step(&fx.step_model(), 8, 4, 1024, 2.0);
        assert!(step.speculative);
        let accept = expected_accept_len(&fx.acceptance, &strategy);
        assert_eq!(step.accept_len.to_bits(), accept.to_bits());
        assert_eq!(
            step.tokens, accept as usize,
            "the first commit carries from zero"
        );
        let unscaled = fx.cost.speculative_step_time(
            &fx.drafter,
            4,
            strategy.draft_depth,
            strategy.tokens_to_verify,
            1024,
        );
        assert_eq!(step.time_s.to_bits(), (unscaled * 2.0).to_bits());
    }

    #[test]
    fn memoised_accept_lengths_equal_direct_evaluation_for_both_drafters() {
        let fx = fixture();
        for learned in [true, false] {
            let mode = SdMode::Adaptive {
                config: SdManagerConfig {
                    // High enough for the batch sweep to reach every arm's bucket.
                    elastic_threshold: 64,
                    learned_drafter_available: learned,
                    ..SdManagerConfig::default()
                },
            };
            let profile = if learned {
                &fx.acceptance
            } else {
                &fx.model_free_acceptance
            };
            let mut eval = SdStepEvaluator::new(&mode, 3);
            // Two sweeps over every batch bucket: the second is served from the memo.
            for batch in (1..=64).chain(1..=64) {
                let step = eval.step(&fx.step_model(), batch, batch, 2048, 1.0);
                assert!(step.speculative);
                let direct = SdStrategy::default_set()
                    .iter()
                    .map(|s| expected_accept_len(profile, s).to_bits())
                    .any(|bits| bits == step.accept_len.to_bits());
                assert!(direct, "batch {batch}: accept {}", step.accept_len);
            }
            let filled = eval.accept_memo.iter().filter(|slot| slot.is_some());
            assert_eq!(filled.count(), SdStrategy::default_set().len());
        }
    }

    #[test]
    fn commits_are_the_integer_part_of_the_exact_accept_sum() {
        let fx = fixture();
        let mode = SdMode::Adaptive {
            config: SdManagerConfig {
                elastic_threshold: 16,
                ..SdManagerConfig::default()
            },
        };
        let mut eval = SdStepEvaluator::new(&mode, 11);
        // The sum of the accept lengths in units of 2^-52, where it is exact.
        let (mut exact, mut committed) = (0u128, 0u128);
        let (mut arms, mut vanilla) = (Vec::new(), 0);
        for i in 0..10_000usize {
            // The load sweeps across the threshold: vanilla and speculative
            // stretches, and the tuner exploring every arm on the way.
            let load = 1 + (i * 7) % 40;
            let step = eval.step(&fx.step_model(), load, load, 1024, 1.0);
            assert!(step.tokens >= 1, "step {i}");
            assert!(eval.carry < 1 << CARRY_BITS, "step {i}");
            exact += (step.accept_len * (1u64 << CARRY_BITS) as f64) as u128;
            committed += step.tokens as u128;
            assert_eq!(committed, exact >> CARRY_BITS, "step {i}");
            if !step.speculative {
                vanilla += 1;
            } else if !arms.contains(&step.accept_len.to_bits()) {
                arms.push(step.accept_len.to_bits());
            }
        }
        assert!((1_000..9_000).contains(&vanilla), "{vanilla} vanilla steps");
        assert!(arms.len() >= 2, "the tuner switched arms: {arms:?}");
        assert!(arms.iter().any(|&a| f64::from_bits(a).fract() != 0.0));
    }

    /// Committing a run of `k` steps leaves the evaluator as `k` calls of
    /// `step` leave it (carry, memo, decision and selection counters, tuner
    /// windows), and the run's tokens and time are the steps' own: in every
    /// mode, on both sides of its threshold, and for a tuner whose buckets
    /// share arms, where a run is one step.
    #[test]
    fn a_committed_run_equals_its_steps() {
        let fx = fixture();
        let adaptive = |learned_drafter_available| SdMode::Adaptive {
            config: SdManagerConfig {
                learned_drafter_available,
                ..SdManagerConfig::default()
            },
        };
        let shared = || {
            // Three depths in one bucket: the tuner draws and learns per step.
            let arm = |draft_depth| SdStrategy {
                draft_depth,
                top_k: 8,
                tokens_to_verify: 32,
            };
            let strategies = [arm(4), arm(6), arm(8)];
            let selector =
                crate::BegMabSelector::new(&strategies, &[1], crate::BegMabConfig::default());
            let manager = AdaptiveSdManager::with_selector(SdManagerConfig::default(), selector);
            SdStepEvaluator::with_manager(manager, 5)
        };
        let cases = [
            (SdStepEvaluator::new(&SdMode::Disabled, 1), [4, 400]),
            (
                SdStepEvaluator::new(
                    &SdMode::Static {
                        strategy: SdStrategy::default(),
                        threshold: 8,
                    },
                    1,
                ),
                [8, 9],
            ),
            (SdStepEvaluator::new(&adaptive(true), 1), [12, 33]),
            (SdStepEvaluator::new(&adaptive(false), 1), [3, 64]),
            (shared(), [2, 40]),
        ];
        for (fresh, loads) in cases {
            let mut by_run = fresh.clone();
            let mut by_step = fresh;
            // Warm both up with a step of a third load, so the carry is not zero.
            for eval in [&mut by_run, &mut by_step] {
                eval.step(&fx.step_model(), 5, 5, 700, 1.0);
            }
            for (load, k) in loads
                .into_iter()
                .zip([1, 7])
                .chain(loads.into_iter().zip([300, 2]))
            {
                let context = 1024 + load;
                let run = by_run.run(&fx.step_model(), load, load, context);
                let k = k.min(run.max_steps());
                by_run.commit(&run, k);
                let (mut tokens, mut time_s) = (0, 0.0);
                for _ in 0..k {
                    let step = by_step.step(&fx.step_model(), load, load, context + tokens, 1.0);
                    assert_eq!(step.speculative, run.speculative);
                    assert_eq!(step.accept_len.to_bits(), run.accept_len.to_bits());
                    tokens += step.tokens;
                    time_s += step.time_s;
                }
                assert_eq!(format!("{by_run:?}"), format!("{by_step:?}"), "load {load}");
                assert_eq!(run.tokens_after(k), tokens, "load {load}");
                let error = (run.time(k) - time_s).abs() / time_s;
                assert!(error < 1e-13, "load {load}, {k} steps: {error:e}");
                if k == 1 {
                    assert_eq!(run.time(1).to_bits(), time_s.to_bits());
                }
                // The fewest steps that commit as many tokens.
                let fewest = run.steps_for(tokens);
                assert!(fewest <= k && run.tokens_after(fewest) == tokens);
                assert!(run.tokens_after(fewest - 1) < tokens);
            }
        }
    }

    /// A run that starts compute-bound and turns memory-bound prices each step
    /// in the regime `StepBatch::time` puts it in.
    #[test]
    fn a_run_prices_both_sides_of_the_compute_memory_crossover() {
        let fx = fixture();
        let mode = SdMode::Static {
            strategy: SdStrategy::default(),
            threshold: usize::MAX,
        };
        let strategy = SdStrategy::default();
        let (batch, depth, verify) = (16, strategy.draft_depth, strategy.tokens_to_verify);
        let pass = fx.cost.speculative_batch(&fx.drafter, batch, depth, verify);
        let crossover = pass.memory_bound_from();
        assert!(pass.time(crossover - 1) < pass.time(crossover));
        let context = crossover - 50;
        let mut eval = SdStepEvaluator::new(&mode, 0);
        let run = eval.run(&fx.step_model(), batch, batch, context);
        // The crossover is a few steps in, and 100 steps run well past it.
        assert!((2..20).contains(&run.memory_from), "{}", run.memory_from);
        let mut time_s = 0.0;
        for j in 0..100 {
            time_s += pass.time(context + run.tokens_after(j));
            let error = (run.time(j + 1) - time_s).abs() / time_s;
            assert!(error < 1e-14, "{} steps: {error:e}", j + 1);
        }
    }

    /// `floor_sum` is the sum it names, for whole and fractional step sizes.
    #[test]
    fn floor_sum_adds_up_the_floors() {
        let one = 1u64 << CARRY_BITS;
        for a in [
            one,
            3 * one,
            one + 1,
            (1.1 * one as f64) as u64,
            (3.79 * one as f64) as u64,
        ] {
            for b in [0, 1, one - 1, one / 3, 5 * one + 17].map(u128::from) {
                let mut direct = 0u128;
                for n in 0..300u64 {
                    assert_eq!(floor_sum(n, a, b), direct, "n {n}, a {a}, b {b}");
                    direct += (b + n as u128 * a as u128) >> CARRY_BITS;
                }
            }
        }
    }

    /// A strategy outside the tuner's arm table, a static one, is evaluated to
    /// the direct accept length, from its own one-arm table.
    #[test]
    fn pairs_beyond_the_memo_table_are_still_evaluated() {
        let fx = fixture();
        for depth in 1..=16 {
            let strategy = SdStrategy {
                draft_depth: depth,
                top_k: 3,
                ..SdStrategy::default()
            };
            assert!(!SdStrategy::default_set().contains(&strategy));
            let mode = SdMode::Static {
                strategy,
                threshold: 8,
            };
            let mut eval = SdStepEvaluator::new(&mode, 0);
            for batch in [4, 4, 6] {
                let step = eval.step(&fx.step_model(), batch, batch, 1024, 1.0);
                assert_eq!(
                    step.accept_len.to_bits(),
                    expected_accept_len(&fx.acceptance, &strategy).to_bits()
                );
            }
            assert_eq!(eval.accept_memo.len(), 2, "one arm, two drafters");
        }
    }
}
