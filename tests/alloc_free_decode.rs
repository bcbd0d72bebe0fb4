//! Asserts the workspace decode path performs **zero heap allocations** in steady
//! state, via a counting global allocator; the same allocator pins the
//! timing-level simulators' SD step (rollout engine, evaluator, serving replica)
//! as allocation-free per step.
//!
//! The first decode step after a prefill may still grow workspace buffers (they
//! are sized lazily); every subsequent step must allocate nothing: embeddings,
//! per-layer temporaries, attention scores, logits, KV appends, and sampling all
//! run out of preallocated memory.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tlt_model::{
    probs_from_logits_into, sample_from_probs, DecodeWorkspace, ModelConfig, SamplingParams, TinyLm,
};

thread_local! {
    /// Per-thread allocation counter: the libtest harness runs tests (and its own
    /// bookkeeping) on several threads at once, so a process-global counter would
    /// pick up unrelated allocations and flake. Const-initialised so reading it
    /// inside the allocator never allocates.
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes requested by those allocations (a `realloc` counts its new size).
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated and has not freed (signed: a block may be
    /// freed by another thread), and the high-water mark since the last
    /// [`peak_live_during`] began.
    static THREAD_LIVE: Cell<i64> = const { Cell::new(0) };
    static THREAD_PEAK: Cell<i64> = const { Cell::new(0) };
}

fn bump_thread_count(bytes: usize) {
    // `try_with` tolerates TLS teardown; a missed count there is harmless (the
    // measuring sections only run on live test threads).
    let _ = THREAD_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
    let _ = THREAD_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

fn move_thread_live(delta: i64) {
    let _ = THREAD_LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = THREAD_PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump_thread_count(layout.size());
        move_thread_live(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        move_thread_live(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump_thread_count(new_size);
        move_thread_live(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations performed by the *current* thread so far.
fn allocation_count() -> u64 {
    THREAD_ALLOCATIONS.with(Cell::get)
}

/// Bytes allocated by the *current* thread so far.
fn allocated_bytes() -> u64 {
    THREAD_BYTES.with(Cell::get)
}

/// Bytes the *current* thread holds live right now.
fn live_bytes() -> i64 {
    THREAD_LIVE.with(Cell::get)
}

/// How far above its starting point the current thread's live bytes rose
/// while `f` ran (what `f` returns is still live at the end and counts).
fn peak_live_during<T>(f: impl FnOnce() -> T) -> (i64, T) {
    let start = live_bytes();
    THREAD_PEAK.with(|peak| peak.set(start));
    let out = f();
    (THREAD_PEAK.with(Cell::get) - start, out)
}

#[test]
fn steady_state_decode_steps_allocate_nothing() {
    let model = TinyLm::new(ModelConfig::tiny(), 42);
    let mut cache = model.new_cache();
    let mut ws = DecodeWorkspace::new(&model.config);
    let prompt = [3u32, 1, 4, 1, 5];
    model.forward_into(&prompt, &mut cache, &mut ws);

    // Warm-up: the first single-token step may still size buffers.
    let _ = model.decode_step(9, &mut cache, &mut ws);

    let before = allocation_count();
    for i in 0..32u32 {
        let logits = model.decode_step(i % 90, &mut cache, &mut ws);
        assert_eq!(logits.rows(), 1);
    }
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "steady-state decode steps must not allocate"
    );
}

#[test]
fn steady_state_sampling_loop_allocates_nothing() {
    // The full vanilla-generation inner loop — decode step, probability
    // conversion into a reused buffer, and sampling — is allocation-free too.
    let model = TinyLm::new(ModelConfig::tiny(), 43);
    let mut cache = model.new_cache();
    let mut ws = DecodeWorkspace::new(&model.config);
    let mut probs = Vec::with_capacity(model.config.vocab_size);
    let mut rng = StdRng::seed_from_u64(7);
    let params = SamplingParams::rollout();
    model.forward_into(&[1, 2, 3], &mut cache, &mut ws);
    let mut next = 5u32;
    // Warm-up step sizes the single-row buffers.
    model.forward_into(&[next], &mut cache, &mut ws);

    let before = allocation_count();
    for _ in 0..32 {
        probs_from_logits_into(ws.logits().row(0), params, &mut probs);
        next = sample_from_probs(&probs, &mut rng) as u32;
        model.forward_into(&[next], &mut cache, &mut ws);
    }
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "the decode-sample loop must not allocate in steady state"
    );
}

#[test]
fn decode_steps_with_model_hooks_enabled_allocate_nothing() {
    // The tlt-obs decode-step hooks are relaxed atomic bumps: enabling them
    // must not introduce a single allocation into the steady-state loop.
    let model = TinyLm::new(ModelConfig::tiny(), 44);
    let mut cache = model.new_cache();
    let mut ws = DecodeWorkspace::new(&model.config);
    model.forward_into(&[3, 1, 4], &mut cache, &mut ws);
    let _ = model.decode_step(9, &mut cache, &mut ws);

    tlt::obs::hooks::reset();
    tlt::obs::hooks::enable();
    let before = allocation_count();
    for i in 0..32u32 {
        let logits = model.decode_step(i % 90, &mut cache, &mut ws);
        assert_eq!(logits.rows(), 1);
    }
    let after = allocation_count();
    tlt::obs::hooks::disable();
    assert_eq!(
        after - before,
        0,
        "decode steps with obs hooks enabled must not allocate"
    );
    assert!(
        tlt::obs::hooks::snapshot().decode_steps >= 32,
        "hooks were enabled but counted nothing"
    );
}

#[test]
fn recording_into_a_warm_flight_recorder_allocates_nothing() {
    use tlt::obs::{record, EventKind, FlightRecorder, ObsEvent, Track, NO_REQ};

    // With no recorder installed on this thread, record() is a single relaxed
    // atomic load and an early return — trivially allocation-free.
    let disabled_event = ObsEvent::instant(0.0, Track::Frontend, EventKind::Decode, NO_REQ);
    let before = allocation_count();
    for _ in 0..64 {
        record(disabled_event);
    }
    let after = allocation_count();
    assert_eq!(after - before, 0, "disabled record() must not allocate");

    // Installed path: each track's ring is preallocated the first time the
    // track is seen, so after one warm-up event per track every subsequent
    // record() — including wraparound past capacity — is allocation-free.
    tlt::obs::install(FlightRecorder::new(16));
    for track in [Track::Frontend, Track::Replica(0), Track::Coordinator] {
        record(ObsEvent::instant(0.0, track, EventKind::Decode, NO_REQ));
    }
    let before = allocation_count();
    for i in 0..128u64 {
        let track = match i % 3 {
            0 => Track::Frontend,
            1 => Track::Replica(0),
            _ => Track::Coordinator,
        };
        record(ObsEvent::instant(i as f64, track, EventKind::Decode, i).with_args(1.0, 2.0));
    }
    let after = allocation_count();
    let recorder = tlt::obs::uninstall().expect("recorder installed above");
    assert_eq!(
        after - before,
        0,
        "record() into warm rings must not allocate, even across wraparound"
    );
    assert_eq!(recorder.recorded(), 3 + 128);
}

/// Sanity check that the counting allocator actually observes allocations (so a
/// zero count above means "no allocations", not "broken instrumentation").
#[test]
fn counting_allocator_observes_allocations() {
    let before = allocation_count();
    let v: Vec<u8> = Vec::with_capacity(4096);
    std::hint::black_box(&v);
    let after = allocation_count();
    assert!(after > before, "allocator instrumentation must count");
    drop(v);
}

#[test]
fn steady_state_streamed_trace_decode_allocates_nothing() {
    // The chunked TLTR reader decodes through a fixed buffer and a fixed
    // prefix ring: after open() (which allocates the buffer and name once),
    // pulling every record of a prefix-heavy trace performs zero allocations —
    // the constant-memory guarantee behind million-request streamed replay.
    use std::io::Cursor;
    use tlt_trace::{Trace, TraceReader};
    use tlt_workload::{generate_arrivals, ArrivalConfig};

    let arrivals = generate_arrivals(&ArrivalConfig::constant(20.0, 20.0, 11).with_prefix(0.6, 96));
    let trace = Trace::from_arrivals("alloc-free", 1_000, &arrivals);
    let bytes = trace.to_bytes();
    let total = arrivals.len();

    // A small capacity forces many shift-and-refill cycles through the
    // measured section; refills reuse the fixed buffer.
    let mut reader = TraceReader::open_with_capacity(Cursor::new(&bytes[..]), 64).expect("opens");

    let before = allocation_count();
    let mut decoded = 0usize;
    while let Some(a) = reader.next_arrival().expect("clean stream") {
        std::hint::black_box(&a);
        decoded += 1;
    }
    let after = allocation_count();
    assert_eq!(decoded, total);
    assert_eq!(
        after - before,
        0,
        "streamed trace decode must not allocate after open()"
    );
}

/// Allocations the current thread performs while `f` runs.
fn allocations_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = allocation_count();
    let out = f();
    (allocation_count() - before, out)
}

fn qwen7b_cost() -> tlt_gpusim::LlmCostModel {
    use tlt_gpusim::{GpuType, LlmCostModel};
    LlmCostModel::new(tlt_model::ModelSpec::qwen2_5_7b(), GpuType::H100.spec(), 1)
}

fn adaptive_sd() -> tlt_rollout::SdMode {
    tlt_rollout::SdMode::Adaptive {
        config: tlt_rollout::SdManagerConfig::default(),
    }
}

/// The timing-level rollout engine allocates per rollout (its sorted array of
/// remaining lengths, the tuner's windows, the output timeline), never per simulated
/// decode step: eight times the tokens is eight times the steps and the same
/// number of allocations.
#[test]
fn simulated_rollout_allocations_do_not_grow_with_step_count() {
    use tlt_rollout::{simulate_rollout, SimRolloutConfig};

    let config = SimRolloutConfig::vanilla(qwen7b_cost()).with_sd_mode(adaptive_sd());
    let short: Vec<usize> = (0..64).map(|i| 300 + (i * 37) % 1500).collect();
    let long: Vec<usize> = short.iter().map(|&l| l * 8).collect();
    let (short_allocs, short_profile) = allocations_during(|| simulate_rollout(&config, &short));
    let (long_allocs, long_profile) = allocations_during(|| simulate_rollout(&config, &long));
    // The timeline is output and grows by doubling; both runs end in the same
    // capacity class, so its growth cancels out of the comparison.
    for profile in [&short_profile, &long_profile] {
        assert!((65..=128).contains(&profile.timeline.len()));
    }
    assert!(long_profile.total_time_s > 4.0 * short_profile.total_time_s);
    assert_eq!(
        long_allocs, short_allocs,
        "rollout allocations must not depend on the number of simulated steps"
    );
}

/// The SD-step evaluator allocates only while the tuner's reward windows fill:
/// once every strategy has been stepped through its window, deciding, costing
/// and recording a step is allocation-free in every batch bucket.
#[test]
fn sd_step_evaluator_allocates_nothing_once_every_strategy_is_warm() {
    use tlt_rollout::{SdStepEvaluator, SimRolloutConfig};

    let config = SimRolloutConfig::vanilla(qwen7b_cost());
    let model = config.step_model();
    let mut evaluator = SdStepEvaluator::new(&adaptive_sd(), 7);
    let sweep = |evaluator: &mut SdStepEvaluator, rounds: usize| {
        let mut speculative = 0;
        for _ in 0..rounds {
            for batch in 1..=32 {
                let step = evaluator.step(&model, batch, batch, 2048, 1.0);
                speculative += usize::from(step.speculative);
            }
        }
        speculative
    };
    sweep(&mut evaluator, 20);
    let (allocs, speculative) = allocations_during(|| sweep(&mut evaluator, 320));
    assert_eq!(speculative, 10_240);
    assert_eq!(allocs, 0, "warm SD steps must not allocate");
}

/// A serving replica's speculative steps go through the same evaluator. Over
/// 10k of them the replica itself only extends its run-length SD accept
/// stream, which the warm-up has grown past what the window adds, so the
/// window allocates nothing at all.
#[test]
fn replica_speculative_steps_allocate_nothing() {
    use tlt_serve::{Replica, ServeConfig, ServeRequest};

    let mut config = ServeConfig::new(qwen7b_cost(), 1).with_sd_mode(adaptive_sd());
    config.max_output_tokens = 400_000;
    let mut replica = Replica::new(&config, 0);
    for id in 0..2 {
        replica.enqueue(
            ServeRequest {
                id,
                arrival_s: 0.0,
                prompt_len: 64,
                output_len: 400_000,
                prefix_id: 0,
                prefix_len: 0,
            },
            0.0,
        );
    }
    let step = |replica: &mut Replica, steps: usize| {
        for _ in 0..steps {
            assert!(replica.has_work(), "replica went idle");
            replica.on_step_complete(replica.next_event_s());
        }
    };
    step(&mut replica, 16_400);
    let before = replica.sd_accept_trace().count();
    let (allocs, ()) = allocations_during(|| step(&mut replica, 10_000));
    assert_eq!(replica.sd_accept_trace().count() - before, 10_000);
    assert_eq!(allocs, 0, "speculative replica steps must not allocate");
}

#[path = "common/churn.rs"]
mod churn;

/// What `ClusterSim::offer` allocates must not depend on how many replicas
/// the autoscaler has retired. The first burst of the churn trace, stripped of
/// its shared prefix so every arrival takes the load-balanced route, is
/// offered 13 times, 15 s apart: every burst grows both pools to their
/// ceilings and the lull drains them back, about 10 more retired members per
/// burst. After one warm-up burst, offering the last quarter of the run may
/// allocate at most 1.1x the bytes of the first. (Both are 0 today; with one
/// eligibility and one load `Vec` of pool length per arrival they grew from
/// 10 KB to 89 KB per burst.)
#[test]
fn cluster_bytes_per_offered_request_do_not_grow_with_retired_replicas() {
    use tlt_serve::{ClusterSim, ServeRequest};

    let trace = churn::trace();
    let burst: Vec<_> = trace
        .arrivals()
        .iter()
        .take_while(|a| a.time_ns == trace.arrivals()[0].time_ns)
        .collect();
    assert_eq!(burst.len(), 96);
    // Not the product's arrival loop: each burst is offered in bulk at one
    // instant so that only `offer` runs inside the measured window.
    let mut sim = ClusterSim::new(churn::config());
    let bytes_per_burst: Vec<u64> = (0..13u64)
        .map(|k| {
            let arrival_s = k as f64 * 15.0;
            sim.advance_before(arrival_s);
            let before = allocated_bytes();
            for (i, arrival) in burst.iter().enumerate() {
                sim.offer(ServeRequest {
                    id: k * 96 + i as u64,
                    arrival_s,
                    prefix_id: 0,
                    prefix_len: 0,
                    ..ServeRequest::from_arrival(arrival)
                });
            }
            allocated_bytes() - before
        })
        .collect();
    sim.run_until_drained();
    let report = sim.into_report();
    assert_eq!(report.serve.completed.len(), 13 * 96);
    assert!(report.retires >= churn::MIN_RETIRES, "{}", report.retires);
    let first: u64 = bytes_per_burst[1..4].iter().sum();
    let last: u64 = bytes_per_burst[10..].iter().sum();
    assert!(
        last as f64 <= 1.1 * first as f64,
        "bytes allocated offering each burst: {bytes_per_burst:?}"
    );
}

/// Routing an arrival on a warm `ServeSim` allocates nothing: eligibility and
/// loads are read off the replicas, not collected. What is left is amortised
/// growth of the routing log and of the target's queue, a handful of
/// doublings over 4k offers.
#[test]
fn warm_serve_sim_offer_allocates_nothing_per_arrival() {
    use tlt_serve::{ServeRequest, ServeSim};

    let mut sim = ServeSim::new(&tlt::replay_deployment(4));
    let mut next_id = 0u64;
    let mut offer = |sim: &mut ServeSim, count: usize| {
        for _ in 0..count {
            // Same-instant arrivals: no step completes in between, so only
            // `offer` itself runs inside the measured window.
            sim.offer(ServeRequest {
                id: next_id,
                arrival_s: 0.0,
                prompt_len: 256,
                output_len: 64,
                prefix_id: 0,
                prefix_len: 0,
            });
            next_id += 1;
        }
    };
    offer(&mut sim, 4_096);
    let (allocs, ()) = allocations_during(|| offer(&mut sim, 4_096));
    assert!(allocs <= 8, "4096 warm offers allocated {allocs} times");
}

/// A speculative verification block (pending token plus drafts in one forward,
/// then a rollback past the rejected suffix) runs out of the same workspace as
/// a decode step: nothing is allocated once the block shape has been seen.
#[test]
fn steady_state_verify_blocks_allocate_nothing() {
    use tlt_model::KvStore;

    let model = TinyLm::new(ModelConfig::tiny(), 45);
    let mut cache = model.new_cache();
    let mut ws = DecodeWorkspace::new(&model.config);
    model.forward_into(&[3, 1, 4, 1, 5, 9, 2, 6], &mut cache, &mut ws);
    let block = [7u32, 1, 8, 2, 8];
    model.forward_into(&block, &mut cache, &mut ws);
    cache.kv_truncate(10);

    let (allocs, ()) = allocations_during(|| {
        for _ in 0..32 {
            let before = cache.seq_len();
            model.forward_into(&block, &mut cache, &mut ws);
            assert_eq!(ws.logits().rows(), block.len());
            cache.kv_truncate(before + 2);
        }
    });
    assert_eq!(allocs, 0, "steady-state verify blocks must not allocate");
}

/// The drafter's incremental step shares the attention kernel and a
/// `DraftScratch`; after the first step it allocates nothing.
#[test]
fn steady_state_draft_steps_allocate_nothing() {
    use tlt_draft::{DraftModel, DraftScratch, FeatureSource};

    let model = TinyLm::new(ModelConfig::tiny(), 46);
    let drafter = DraftModel::new(&model, FeatureSource::LastLayer, 47);
    let tokens = [3u32, 1, 4, 1, 5, 9];
    let (out, _) = model.prefill(&tokens, false);
    let mut scratch = DraftScratch::new(&model, drafter.feature_source);
    let mut state = drafter.begin_draft_with(&model, &out.last_hidden, &tokens, &mut scratch);
    let _ = drafter.draft_step_into(&model, &mut state, 2, &mut scratch);

    let (allocs, ()) = allocations_during(|| {
        for i in 0..32u32 {
            let logits = drafter.draft_step_into(&model, &mut state, i % 90, &mut scratch);
            assert_eq!(logits.len(), model.config.vocab_size);
        }
    });
    assert_eq!(allocs, 0, "steady-state draft steps must not allocate");
}

/// A whole speculative round as `speculative_generate` runs it at temperature
/// 0.9 with a learned drafter: resume the drafter, five sampled draft steps, the
/// target's verify block, rejection sampling down to the residual draw, the
/// rollback. Warm, it allocates nothing, also when it ends in a rejection: the
/// residual distribution is summed and picked from, never materialised.
#[test]
fn warm_speculative_round_ending_in_a_rejection_allocates_nothing() {
    use rand::Rng;
    use tlt_draft::{DraftModel, DraftScratch, FeatureSource};
    use tlt_model::{sample_from_residual, KvStore};

    let model = TinyLm::new(ModelConfig::tiny(), 49);
    let drafter = DraftModel::new(&model, FeatureSource::LastLayer, 50);
    let params = SamplingParams::rollout();
    let prompt = [3u32, 1, 4, 1, 5, 9, 2, 6];
    let pending = 7u32;

    let mut cache = model.new_cache();
    let mut ws = DecodeWorkspace::new(&model.config);
    model.forward_into(&prompt, &mut cache, &mut ws);
    let features = ws.last_hidden().clone();
    let mut scratch = DraftScratch::new(&model, drafter.feature_source);
    let mut state = drafter.begin_draft_with(&model, &features, &prompt, &mut scratch);
    let mut probs = Vec::new();
    let mut draft_dists = vec![Vec::new(); 5];
    let mut block = Vec::new();

    // One round from the same committed prefix; true if it ended in a rejection.
    let mut round = |rng: &mut StdRng| {
        drafter.resume_draft(&model, &features, &prompt, &mut state, &mut scratch);
        block.clear();
        block.push(pending);
        for dist in draft_dists.iter_mut() {
            let last = *block.last().expect("pending token");
            let logits = drafter.draft_step_into(&model, &mut state, last, &mut scratch);
            probs_from_logits_into(logits, params, dist);
            block.push(sample_from_probs(dist, rng) as u32);
        }
        let committed = cache.kv_seq_len();
        model.forward_into(&block, &mut cache, &mut ws);
        let mut rejected = false;
        for (i, (&tok, q)) in block[1..].iter().zip(&draft_dists).enumerate() {
            probs_from_logits_into(ws.logits().row(i), params, &mut probs);
            let ratio = probs[tok as usize] / q[tok as usize].max(f32::EPSILON);
            if rng.gen::<f32>() >= ratio.min(1.0) {
                assert!(sample_from_residual(&probs, q, rng) < probs.len());
                rejected = true;
                break;
            }
        }
        cache.kv_truncate(committed);
        rejected
    };
    let mut rng = StdRng::seed_from_u64(8);
    // The first round sizes every block-shaped buffer.
    round(&mut rng);
    let (allocs, rejections) = allocations_during(|| (0..32).filter(|_| round(&mut rng)).count());
    assert!(rejections > 0, "no round ended in a rejection");
    assert_eq!(allocs, 0, "a warm speculative round must not allocate");
}

/// `train_step` allocates per response (the recorded forward, the backward's
/// temporaries and gradients), never per response position: the probability and
/// KL-gradient buffers are reused across the whole step.
#[test]
fn train_step_allocations_are_bounded_per_response() {
    use tlt_rl::{PolicyTrainer, RlConfig, RolloutGroup};

    let run = |response_len: usize| {
        let mut target = TinyLm::new(ModelConfig::tiny(), 48);
        let mut trainer = PolicyTrainer::new(target.reference_copy(), RlConfig::default());
        let response: Vec<u32> = (0..response_len as u32).map(|i| (i * 7 + 3) % 90).collect();
        let groups: Vec<RolloutGroup> = (0..2)
            .map(|g| RolloutGroup {
                prompt: vec![1 + g, 2, 3, 4],
                responses: vec![response.clone(); 4],
                rewards: vec![1.0, 0.0, 0.5, 0.0],
            })
            .collect();
        // The first step registers the optimizer's moment buffers.
        trainer.train_step(&mut target, &groups);
        let (allocs, metrics) = allocations_during(|| trainer.train_step(&mut target, &groups));
        assert_eq!(metrics.update_tokens, 8 * response_len);
        allocs
    };
    let (short, long) = (run(16), run(128));
    eprintln!("train_step allocations: short {short} long {long}");
    assert_eq!(
        long, short,
        "train_step allocations must not depend on the response length"
    );
    assert!(
        long <= 8 * TRAIN_STEP_ALLOCS_PER_RESPONSE + 64,
        "train_step allocated {long} times for 8 responses"
    );
}

/// Upper bound on heap allocations per response inside `train_step`.
const TRAIN_STEP_ALLOCS_PER_RESPONSE: u64 = 100;

/// The first `requests` records of the derived corpus trace, as TLTR bytes.
fn derived_trace_bytes(requests: u64) -> Vec<u8> {
    let mut bytes = Vec::new();
    tlt_trace::write_derived_trace(&mut bytes, requests).expect("in-memory sink");
    bytes
}

/// Bytes a record of the completion log takes.
const RECORD_BYTES: i64 = std::mem::size_of::<tlt_serve::CompletedRequest>() as i64;

/// What a replayed request costs in memory is its completion record: the
/// peak of a replay grows, from N to 2N requests, by the 72-byte record and
/// the report's 8 bytes of latency scratch per request (8 more allowed), on
/// the streamed monolithic path and on a fixed 1P+1D cluster alike. With a
/// per-replica log gathered, stably sorted and summarised through three
/// series this was about 200 bytes, plus 16 per offer and 1 per SD step.
#[test]
fn replay_peak_live_grows_by_one_record_per_request() {
    use tlt_serve::DisaggConfig;
    use tlt_trace::{replay_disagg, replay_serving_streamed, Trace, TraceReader};

    const N: u64 = 20_000;
    assert_eq!(RECORD_BYTES, 72);
    let streamed = |requests: u64| {
        let bytes = derived_trace_bytes(requests);
        let mut reader = TraceReader::open(&bytes[..]).expect("own trace opens");
        let config = tlt::replay_deployment(4);
        let (peak, report) = peak_live_during(|| replay_serving_streamed(&mut reader, &config));
        assert_eq!(
            report.expect("own trace replays").completed.len() as u64,
            requests
        );
        peak
    };
    // The window opens after the decode: the caller's 48 bytes per arrival
    // are not the simulator's.
    let disagg = |requests: u64| {
        let trace = Trace::from_bytes(&derived_trace_bytes(requests)).expect("own trace decodes");
        let config = DisaggConfig::new(tlt::replay_deployment(1), 1, 1);
        let (peak, report) = peak_live_during(|| replay_disagg(&trace, config));
        assert_eq!(report.serve.completed.len() as u64, requests);
        peak
    };
    for (path, at_n, at_2n) in [
        ("replay_serving_streamed", streamed(N), streamed(2 * N)),
        ("replay_disagg 1P+1D", disagg(N), disagg(2 * N)),
    ] {
        let per_request = (at_2n - at_n) as f64 / N as f64;
        eprintln!(
            "{path}: peak {at_n} B at {N}, {at_2n} B at {}: {per_request:.1} B/request",
            2 * N
        );
        assert!(
            per_request <= (RECORD_BYTES + 8 + 8) as f64,
            "{path}: peak live grew by {per_request:.1} B per request"
        );
    }
}

/// After drain, before the report, a hinted `ServeSim` holds the log and a
/// request-independent remainder: nothing per offer, nothing per step.
#[test]
fn drained_serve_sim_retains_only_the_completion_log() {
    use tlt_serve::{Driver, ServeSim};
    use tlt_trace::TraceReader;

    let beside_the_log = |requests: u64| {
        let bytes = derived_trace_bytes(requests);
        let mut reader = TraceReader::open(&bytes[..]).expect("own trace opens");
        let start = live_bytes();
        let mut sim = ServeSim::new(&tlt::replay_deployment(4));
        sim.state_mut().reserve_completions(requests as usize);
        let feed = std::iter::from_fn(|| reader.next_arrival().expect("own trace decodes"));
        tlt_serve::drive(&mut sim, feed, |_, _| {});
        let held = live_bytes() - start;
        assert_eq!(sim.into_report().completed.len() as u64, requests);
        held - RECORD_BYTES * requests as i64
    };
    let (at_n, at_2n) = (beside_the_log(20_000), beside_the_log(40_000));
    eprintln!("beside the log after drain: {at_n} B at 20k, {at_2n} B at 40k");
    assert!(
        (at_2n - at_n).abs() < 64 << 10,
        "live bytes beside the log: {at_n} at 20k requests, {at_2n} at 40k"
    );
}

/// What a cluster member still holds at report time, averaged over the 82
/// members (75 retired) of the churn run: everything live after drain except
/// the log. A retired member keeps its `Replica` (1.2 KB inline, in a pool
/// `Vec` grown by doubling), its config copy, ledger and metrics registry;
/// its buffers and SD tuner are released. Pinned so that a field added to
/// `Replica`, or a buffer a retired member keeps, shows up here.
#[test]
fn retired_cluster_members_hold_a_pinned_number_of_bytes() {
    use tlt_serve::{ClusterSim, Driver};

    let trace = churn::trace();
    let requests = trace.arrivals().len();
    let start = live_bytes();
    let mut sim = ClusterSim::new(churn::config());
    sim.state_mut().reserve_completions(requests);
    tlt_serve::drive(&mut sim, trace.arrivals().iter().copied(), |_, _| {});
    let beside_the_log = live_bytes() - start - RECORD_BYTES * requests as i64;
    let report = sim.into_report();
    assert_eq!(report.serve.completed.len(), requests);
    assert!(report.retires >= churn::MIN_RETIRES, "{}", report.retires);
    let per_member = beside_the_log / report.serve.replicas.len() as i64;
    assert!(
        (3_400..=3_500).contains(&per_member),
        "{per_member} B per cluster member at report time (3,497 when pinned; 4,354 \
         before retirement released the SD tuner)"
    );
}

/// The header's request count is outside input that the reader can verify
/// only at end of stream: a stream declaring 2^64 - 1 (or 2^40) requests and
/// carrying three fails with the reader's typed error, and the completion log
/// it sized is clamped to the decode-side pre-allocation guard (2^20 records)
/// rather than overflowing or aborting on the reservation.
#[test]
fn hostile_header_count_cannot_size_the_completion_log() {
    use tlt_trace::{replay_serving_streamed, TraceError, TraceReader, TraceWriter};

    for declared in [u64::MAX, 1 << 40] {
        let mut bytes = Vec::new();
        let mut writer =
            TraceWriter::new(&mut bytes, "hostile", 1_000, declared).expect("header writes");
        for arrival in tlt_trace::CorpusPreset::Chat
            .build()
            .arrivals()
            .iter()
            .take(3)
        {
            writer.push(arrival).expect("record writes");
        }
        // Dropped unfinished: three records, no trailer.
        drop(writer);
        let mut reader = TraceReader::open(&bytes[..]).expect("header is intact");
        assert_eq!(reader.request_count(), declared);
        let before = allocated_bytes();
        let outcome = replay_serving_streamed(&mut reader, &tlt::replay_deployment(2));
        let allocated = allocated_bytes() - before;
        assert_eq!(
            outcome.unwrap_err(),
            TraceError::Truncated,
            "declared {declared}"
        );
        assert!(
            allocated <= (RECORD_BYTES as u64 + 1) << 20,
            "declared {declared}: replay allocated {allocated} B"
        );
    }
}
