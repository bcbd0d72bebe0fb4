//! Single-layer probes: one public function of one layer, driven alone.
//!
//! A probe's number is the median over chunks of the mean time per call in
//! the chunk, so one interference spike moves one chunk, not the result.
//! Each workload runs the probes of the layers it executes; the rest read 0.

use crate::Layers;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;
use tlt_gpusim::{GpuType, LlmCostModel};
use tlt_model::{
    probs_from_logits_into, sample_from_probs, DecodeWorkspace, Mat, ModelConfig, ModelSpec,
    SamplingParams, TinyLm, TokenId,
};
use tlt_obs::{EventKind, FlightRecorder, ObsEvent, Track, NO_REQ};
use tlt_rollout::{
    simulate_rollout, AdaptiveSdManager, SdDecision, SdManagerConfig, SdMode, SimRolloutConfig,
    StepObservation,
};
use tlt_serve::{EventQueue, Replica, ServeConfig, ServeRequest};
use tlt_trace::Trace;
use tlt_workload::{LengthDistribution, RequestArrival};

const CHUNKS: usize = 9;

/// Median over [`CHUNKS`] chunks of nanoseconds per call of `f`.
fn ns_per_call(calls_per_chunk: usize, mut f: impl FnMut()) -> f64 {
    let mut per_call = Vec::with_capacity(CHUNKS);
    for _ in 0..CHUNKS {
        let t = Instant::now();
        for _ in 0..calls_per_chunk {
            f();
        }
        per_call.push(t.elapsed().as_nanos() as f64 / calls_per_chunk as f64);
    }
    crate::stats::median(&per_call)
}

/// `tlt-model` on `ModelConfig::tiny()`: decode, prefill, sampling, the two
/// matmul shapes the decode and training paths live on, and the policy update.
pub fn model(layers: &mut Layers) {
    let config = ModelConfig::tiny();
    let mut target = TinyLm::new(config, 11);
    let tokens: Vec<TokenId> = (0..480).map(|i| (i * 7 + 3) % 90).collect();

    let mut ws = DecodeWorkspace::new(&config);
    for (name, ctx) in [
        ("model.decode_step_us.ctx64", 64),
        ("model.decode_step_us.ctx448", 448),
    ] {
        let mut cache = target.new_cache();
        target.forward_into(&tokens[..ctx], &mut cache, &mut ws);
        // 32 steps on from the named context, then the cache is rolled back.
        let mut step = 0usize;
        let ns = ns_per_call(32 * 8, || {
            if step % 32 == 0 {
                cache.truncate(ctx);
            }
            step += 1;
            black_box(target.decode_step((step % 90) as TokenId, &mut cache, &mut ws));
        });
        layers.set(name, ns * 1e-3);
    }

    let prompt = &tokens[..128];
    let ns = ns_per_call(8, || {
        black_box(target.prefill(black_box(prompt), false));
    });
    layers.set("model.prefill_us_per_tok", ns * 1e-3 / prompt.len() as f64);

    let logits: Vec<f32> = (0..config.vocab_size)
        .map(|i| (i % 13) as f32 * 0.3)
        .collect();
    let mut probs = Vec::with_capacity(config.vocab_size);
    let mut rng = StdRng::seed_from_u64(1);
    let params = SamplingParams::rollout();
    let ns = ns_per_call(20_000, || {
        probs_from_logits_into(black_box(&logits), params, &mut probs);
        black_box(sample_from_probs(&probs, &mut rng));
    });
    layers.set("model.sample_ns", ns);

    let mut rng = StdRng::seed_from_u64(1);
    let a = Mat::random_uniform(1, 32, 1.0, &mut rng);
    let b = Mat::random_uniform(32, 96, 1.0, &mut rng);
    let mut out = Mat::zeros(1, 96);
    let ns = ns_per_call(50_000, || {
        black_box(&a).matmul_into(black_box(&b), &mut out)
    });
    layers.set("model.matvec_ns.1x32x96", ns);

    let a = Mat::random_uniform(64, 64, 1.0, &mut rng);
    let b = Mat::random_uniform(64, 64, 1.0, &mut rng);
    let mut out = Mat::zeros(64, 64);
    let ns = ns_per_call(2_000, || black_box(&a).matmul_into(black_box(&b), &mut out));
    layers.set("model.gemm_us.64x64x64", ns * 1e-3);

    let ns = ns_per_call(8, || {
        black_box(target.forward_for_update(black_box(prompt)));
    });
    layers.set(
        "model.train_fwd_us_per_tok",
        ns * 1e-3 / prompt.len() as f64,
    );
    let fwd = target.forward_for_update(prompt);
    let d_logits = Mat::random_uniform(fwd.logits.rows(), fwd.logits.cols(), 1e-3, &mut rng);
    let ns = ns_per_call(8, || {
        black_box(target.backward_for_update(&fwd, black_box(&d_logits)));
    });
    layers.set(
        "model.train_bwd_us_per_tok",
        ns * 1e-3 / prompt.len() as f64,
    );
    let grads = target.backward_for_update(&fwd, &d_logits);
    // A zero learning rate walks every trainable weight and leaves it as is.
    let ns = ns_per_call(200, || target.apply_update(black_box(&grads), 0.0));
    layers.set("model.apply_update_us", ns * 1e-3);
}

/// `tlt-obs`: what a `record` call and a hook cost the code they sit in.
pub fn obs(layers: &mut Layers) {
    let event = ObsEvent::instant(0.0, Track::Frontend, EventKind::Replay, NO_REQ);
    let previous = tlt_obs::uninstall();
    let ns = ns_per_call(100_000, || tlt_obs::record(black_box(event)));
    layers.set("obs.record_off_ns", ns);
    tlt_obs::install(FlightRecorder::new(tlt_obs::DEFAULT_CAPACITY_PER_TRACK));
    let ns = ns_per_call(100_000, || tlt_obs::record(black_box(event)));
    layers.set("obs.record_on_ns", ns);
    tlt_obs::uninstall();
    if let Some(recorder) = previous {
        tlt_obs::install(recorder);
    }

    let was_enabled = tlt_obs::hooks::enabled();
    tlt_obs::hooks::disable();
    let ns = ns_per_call(1_000_000, tlt_obs::hooks::on_decode_step);
    layers.set("obs.hook_off_ns", ns);
    if was_enabled {
        tlt_obs::hooks::enable();
    }
}

/// `tlt-rollout`'s adaptive SD manager: one `decide` and the `record` that
/// follows a speculative step.
pub fn sd_manager(layers: &mut Layers) {
    let mut manager = AdaptiveSdManager::new(SdManagerConfig::default());
    let mut rng = StdRng::seed_from_u64(2);
    let mut running = 0usize;
    let ns = ns_per_call(50_000, || {
        running = running % 24 + 1;
        if let SdDecision::Speculative { strategy, .. } = manager.decide(running, &mut rng) {
            manager.record(
                &strategy,
                StepObservation {
                    elapsed_s: 0.02,
                    accepted_tokens: 2.5 * running as f64,
                    batch_size: running,
                },
            );
        }
    });
    layers.set("rollout.sd_decide_ns", ns);
}

/// `tlt-rollout`'s timing-level engine: one worker's 128-response long-tail
/// share under adaptive SD, as `tlt::run_experiment` calls it.
pub fn sim_rollout(layers: &mut Layers) {
    let cost = LlmCostModel::new(ModelSpec::qwen2_5_7b(), GpuType::H100.spec(), 2);
    let config = SimRolloutConfig::vanilla(cost).with_sd_mode(SdMode::Adaptive {
        config: SdManagerConfig::default(),
    });
    let lengths = LengthDistribution::LongTailMixture {
        mu: 7.3,
        sigma: 0.9,
        truncation_mass: 0.02,
        max_len: 32_768,
    }
    .sample_many(128, &mut StdRng::seed_from_u64(3));
    let ns = ns_per_call(1, || {
        black_box(simulate_rollout(&config, black_box(&lengths)));
    });
    layers.set(
        "rollout.simulate_rollout_us_per_req",
        ns * 1e-3 / lengths.len() as f64,
    );
}

/// `tlt-gpusim`'s roofline cost calls, as the simulators make them per step.
pub fn gpusim(layers: &mut Layers) {
    let cost = LlmCostModel::new(ModelSpec::qwen2_5_7b(), GpuType::H100.spec(), 1);
    let mut context = 0usize;
    let ns = ns_per_call(100_000, || {
        context = context % 4096 + 64;
        black_box(black_box(&cost).decode_step_time(black_box(32), black_box(context)));
    });
    layers.set("gpusim.decode_cost_ns", ns);
    let ns = ns_per_call(100_000, || {
        context = context % 4096 + 64;
        black_box(black_box(&cost).verify_step_time(
            black_box(32),
            black_box(4),
            black_box(context),
        ));
    });
    layers.set("gpusim.verify_cost_ns", ns);
    let ns = ns_per_call(100_000, || {
        context = context % 4096 + 64;
        let tokens = black_box(context * 1024);
        let cost = black_box(&cost);
        black_box(cost.inference_stage_time(tokens, 16) + cost.training_stage_time(tokens, 64));
    });
    layers.set("gpusim.stage_cost_ns", ns);
}

/// `tlt-serve`: one `Replica` driven alone with its share (every
/// `num_replicas`-th) of the first arrivals, and the event queue with 64
/// live sources.
pub fn serve(layers: &mut Layers, config: &ServeConfig, arrivals: &[RequestArrival]) {
    let mut replica = Replica::new(config, 0);
    let (mut step_ns, mut steps, mut enqueue_ns, mut enqueues) = (0u64, 0u64, 0u64, 0u64);
    let mut step_until = |replica: &mut Replica, t: f64| {
        while replica.next_event_s() < t {
            let now = replica.next_event_s();
            let start = Instant::now();
            replica.on_step_complete(now);
            step_ns += start.elapsed().as_nanos() as u64;
            steps += 1;
        }
    };
    for arrival in arrivals
        .iter()
        .step_by(config.num_replicas.max(1))
        .take(20_000)
    {
        step_until(&mut replica, arrival.time_s());
        let start = Instant::now();
        replica.enqueue(ServeRequest::from_arrival(arrival), arrival.time_s());
        enqueue_ns += start.elapsed().as_nanos() as u64;
        enqueues += 1;
    }
    step_until(&mut replica, f64::MAX);
    layers.set(
        "serve.replica_step_ns",
        step_ns as f64 / steps.max(1) as f64,
    );
    layers.set(
        "serve.replica_enqueue_ns",
        enqueue_ns as f64 / enqueues.max(1) as f64,
    );

    let mut queue = EventQueue::new();
    for source in 0..64 {
        queue.push(source as f64 * 1e-3, 0, source);
    }
    let ns = ns_per_call(100_000, || {
        let key = queue.pop().expect("64 sources stay live");
        queue.push(
            key.time_s() + 0.064 + key.index() as f64 * 1e-6,
            0,
            key.index(),
        );
    });
    layers.set("serve.eventq_push_pop_ns", ns);
}

/// `tlt-trace`: TLTR encode of an in-memory trace.
pub fn trace_encode(layers: &mut Layers, trace: &Trace) {
    let requests = trace.arrivals().len().max(1) as f64;
    let mut bytes = 0usize;
    let ns = ns_per_call(1, || bytes = black_box(trace.to_bytes()).len());
    layers.set("trace.encode_s", ns * 1e-9);
    layers.set("trace.encode_ns_per_req", ns / requests);
    layers.set("trace.bytes_per_req", bytes as f64 / requests);
}
