//! `replay_mono` and `replay_disagg`: TLTR traces replayed through the two
//! serving simulators. Host time is what is measured; every `serve.sim_*`
//! metric is simulated time and repeats exactly for a seed.

use crate::probes;
use crate::spans::Tracer;
use crate::stats::Digest;
use crate::{Bench, Layers, Rep, Scale};
use std::time::Instant;
use tlt::{ServingExperimentConfig, ServingSdPolicy};
use tlt_obs::{record, EventKind, ObsEvent, Track, NO_REQ};
use tlt_serve::{
    AutoscaleConfig, ClusterReport, ClusterSim, DisaggConfig, ServeConfig, ServeReport,
    ServeRequest, ServeSim, SloSpec,
};
use tlt_trace::{
    CorpusPreset, Trace, TraceReader, TraceWriter, CORPUS_TICK_NS, MILLION_CHECKSUM,
    MILLION_REQUESTS,
};
use tlt_workload::RequestArrival;

/// Requests of the streamed-vs-in-memory agreement pre-check.
const PREFIX_REQUESTS: u64 = 10_000;
/// Chunks per traced rep: spans and the cost-growth ratio work on 1% chunks.
const CHUNKS: usize = 100;

fn serve_digest(d: &mut Digest, report: &ServeReport) {
    d.u64(report.completed.len() as u64);
    for c in &report.completed {
        d.u64(c.id)
            .u64(c.replica as u64)
            .f64(c.arrival_s)
            .f64(c.admitted_s)
            .f64(c.first_token_s)
            .f64(c.finish_s)
            .u64(c.prompt_len as u64)
            .u64(c.output_len as u64)
            .u64(u64::from(c.preemptions));
    }
    d.u64(report.dropped as u64)
        .f64(report.makespan_s)
        .u64(report.total_output_tokens)
        .f64(report.slo_attainment)
        .f64(report.goodput_rps);
}

fn cluster_digest(report: &ClusterReport) -> u64 {
    let mut d = Digest::default();
    serve_digest(&mut d, &report.serve);
    d.u64(report.migrations)
        .u64(report.migrated_blocks)
        .u64(report.aborted_transfers)
        .f64(report.transfer_busy_s)
        .u64(report.scale_ups)
        .u64(report.scale_downs)
        .u64(report.retires)
        .f64(report.avg_active_replicas)
        .f64(report.goodput_per_replica);
    d.finish()
}

fn serve_rep(report: &ServeReport, digest: u64, offered: u64) -> Rep {
    let completed = report.completed.len() as u64;
    Rep {
        work: completed as f64,
        attempted: offered,
        // Not completed: dropped at admission, or orphaned (neither
        // completed nor dropped, which also breaks conservation).
        failed: offered - completed,
        digest,
    }
}

fn conservation(name: &str, report: &ServeReport, offered: u64) -> Result<(), String> {
    let seen = (report.completed.len() + report.dropped) as u64;
    if seen == offered {
        Ok(())
    } else {
        Err(format!(
            "{name}: completed + dropped = {seen} but {offered} requests were offered"
        ))
    }
}

fn serve_layers(layers: &mut Layers, report: &ServeReport, offered: u64) {
    layers.set("serve.requests", offered as f64);
    layers.set("serve.completed", report.completed.len() as f64);
    layers.set("serve.dropped", report.dropped as f64);
    let preemptions: u64 = report.replicas.iter().map(|r| r.preemptions).sum();
    layers.set("serve.preemptions", preemptions as f64);
    let hooks = tlt_obs::hooks::snapshot();
    layers.set("serve.sim_events", hooks.sim_events as f64);
    layers.set("serve.stale_events", hooks.sim_stale_events as f64);
    layers.set(
        "serve.events_per_req",
        hooks.sim_events as f64 / offered.max(1) as f64,
    );
    layers.set(
        "serve.stale_ratio",
        hooks.sim_stale_events as f64 / (hooks.sim_events + hooks.sim_stale_events).max(1) as f64,
    );
    layers.set("serve.sim_makespan_s", report.makespan_s);
    layers.set("serve.sim_goodput_rps", report.goodput_rps);
    layers.set("serve.sim_slo_attainment", report.slo_attainment);
    layers.set("serve.sim_ttft_p50_s", report.ttft.p50_s);
    layers.set("serve.sim_ttft_p99_s", report.ttft.p99_s);
    layers.set("serve.sim_tpot_p50_s", report.tpot.p50_s);
    layers.set("serve.sim_tpot_p99_s", report.tpot.p99_s);
    layers.set("serve.sim_util_mean", report.mean_utilization());
    layers.set("serve.sim_sd_step_fraction", report.mean_sd_fraction());
    let n = report.replicas.len().max(1) as f64;
    layers.set(
        "serve.sim_accept_len_mean",
        report
            .replicas
            .iter()
            .map(|r| r.mean_accept_length)
            .sum::<f64>()
            / n,
    );
    layers.set("serve.sim_prefix_hit_rate", report.mean_prefix_hit_rate());
    layers.set("serve.sim_pool_util_mean", report.mean_pool_utilization());
}

/// Host nanoseconds of the per-request calls of one chunk.
#[derive(Debug, Clone, Copy, Default)]
struct ChunkCost {
    decode_ns: u64,
    advance_ns: u64,
    offer_ns: u64,
    requests: u64,
}

/// Per-request accounting of a traced drive loop: three clock reads per
/// request, summed into 1% chunks so the span file stays small.
struct ChunkMeter {
    per_chunk: u64,
    chunks: Vec<ChunkCost>,
    current: ChunkCost,
}

impl ChunkMeter {
    fn new(requests: u64) -> Self {
        ChunkMeter {
            per_chunk: requests.div_ceil(CHUNKS as u64).max(1),
            chunks: Vec::with_capacity(CHUNKS),
            current: ChunkCost::default(),
        }
    }

    fn flush(&mut self, tr: &mut Tracer) {
        let c = std::mem::take(&mut self.current);
        if c.requests == 0 {
            return;
        }
        let unit = self.chunks.len() as u32;
        // The chunk span opened when its first request started.
        tr.aggregate("trace.decode", unit, 0, c.decode_ns);
        tr.aggregate("serve.advance", unit, c.decode_ns, c.advance_ns);
        tr.aggregate("serve.offer", unit, c.decode_ns + c.advance_ns, c.offer_ns);
        self.chunks.push(c);
    }

    fn set_layers(&self, layers: &mut Layers) {
        let requests: u64 = self.chunks.iter().map(|c| c.requests).sum();
        let sum = |f: fn(&ChunkCost) -> u64| self.chunks.iter().map(f).sum::<u64>() as f64;
        let (decode, advance, offer) = (
            sum(|c| c.decode_ns),
            sum(|c| c.advance_ns),
            sum(|c| c.offer_ns),
        );
        let per_req = requests.max(1) as f64;
        layers.set("trace.decode_s", decode * 1e-9);
        layers.set("trace.decode_ns_per_req", decode / per_req);
        layers.set("serve.advance_s", advance * 1e-9);
        layers.set("serve.offer_s", offer * 1e-9);
        layers.set("serve.advance_ns_per_req", advance / per_req);
        layers.set("serve.offer_ns_per_req", offer / per_req);
        // Last-decile over first-decile host cost per request.
        let decile = (self.chunks.len() / 10).max(1);
        let cost = |cs: &[ChunkCost]| {
            let ns: u64 = cs
                .iter()
                .map(|c| c.decode_ns + c.advance_ns + c.offer_ns)
                .sum();
            ns as f64 / cs.iter().map(|c| c.requests).sum::<u64>().max(1) as f64
        };
        let first = cost(&self.chunks[..decile]);
        let last = cost(&self.chunks[self.chunks.len() - decile..]);
        layers.set(
            "serve.cost_growth_ratio",
            last / first.max(f64::MIN_POSITIVE),
        );
    }
}

/// The driver surface `ServeSim` and `ClusterSim` share.
trait Driver {
    fn advance_before(&mut self, t: f64);
    fn offer(&mut self, req: ServeRequest);
}

impl Driver for ServeSim {
    fn advance_before(&mut self, t: f64) {
        ServeSim::advance_before(self, t);
    }
    fn offer(&mut self, req: ServeRequest) {
        ServeSim::offer(self, req);
    }
}

impl Driver for ClusterSim {
    fn advance_before(&mut self, t: f64) {
        ClusterSim::advance_before(self, t);
    }
    fn offer(&mut self, req: ServeRequest) {
        ClusterSim::offer(self, req);
    }
}

/// The product's drive loop (advance the clock to the arrival, offer it) with
/// the per-request accounting around each call.
fn drive_chunked(
    tr: &mut Tracer,
    meter: &mut ChunkMeter,
    sim: &mut impl Driver,
    mut next: impl FnMut() -> Option<RequestArrival>,
) {
    let mut chunk_span = None;
    loop {
        if chunk_span.is_none() {
            chunk_span = Some(tr.open("serve.chunk", meter.chunks.len() as u32));
        }
        let t0 = Instant::now();
        let Some(arrival) = next() else {
            break;
        };
        let t1 = Instant::now();
        sim.advance_before(arrival.time_s());
        let t2 = Instant::now();
        sim.offer(ServeRequest::from_arrival(&arrival));
        let t3 = Instant::now();
        let c = &mut meter.current;
        c.decode_ns += (t1 - t0).as_nanos() as u64;
        c.advance_ns += (t2 - t1).as_nanos() as u64;
        c.offer_ns += (t3 - t2).as_nanos() as u64;
        c.requests += 1;
        if c.requests == meter.per_chunk {
            meter.flush(tr);
            tr.close(chunk_span.take().expect("chunk open"));
        }
    }
    meter.flush(tr);
    if let Some(span) = chunk_span {
        tr.close(span);
    }
}

// ---------------------------------------------------------------- replay_mono

/// Replicas of the pinned replay deployment.
const MONO_REPLICAS: usize = 4;

/// Per-tile shuffle seed of the derived-trace recipe (`tlt_trace::million`),
/// XORed with the benchmark seed so each seed shuffles its tiles differently.
fn tile_seed(tile: u64, seed: u64) -> u64 {
    (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(tile + 1) ^ 0x0051_7eed) ^ seed
}

/// The benchmark's own copy of the derived-trace tiling recipe: corpus
/// presets round-robin, each tile rate-scaled x2, tenant-shuffled, shifted
/// past the previous tile plus a 1000-tick gap, cut at `requests`. With
/// `seed` 0 it is `tlt_trace::write_derived_trace`, byte for byte.
pub fn write_tiled_trace<W: std::io::Write>(sink: W, requests: u64, seed: u64) -> u64 {
    let bases: Vec<Trace> = CorpusPreset::all()
        .iter()
        .map(|p| p.build().rate_scaled(2.0))
        .collect();
    let name = format!("derived-million-x{requests}");
    let mut writer =
        TraceWriter::new(sink, &name, CORPUS_TICK_NS, requests).expect("header writes");
    let (mut written, mut offset_ticks, mut tile) = (0u64, 0u64, 0u64);
    while written < requests {
        let base = &bases[(tile % bases.len() as u64) as usize];
        let shuffled = base.tenant_shuffled(tile_seed(tile, seed));
        let mut last_ticks = 0u64;
        for a in shuffled.arrivals() {
            if written == requests {
                break;
            }
            let ticks = offset_ticks + a.time_ns / CORPUS_TICK_NS;
            writer
                .push(&RequestArrival {
                    time_ns: ticks * CORPUS_TICK_NS,
                    ..*a
                })
                .expect("in-memory sink");
            last_ticks = ticks;
            written += 1;
        }
        offset_ticks = last_ticks + 1_000;
        tile += 1;
    }
    writer.finish().expect("declared count was pushed")
}

fn mono_digest(report: &ServeReport) -> u64 {
    let mut d = Digest::default();
    serve_digest(&mut d, report);
    d.finish()
}

/// A prepared `replay_mono`.
pub struct MonoBench {
    seed: u64,
    requests: u64,
    bytes: Vec<u8>,
    config: ServeConfig,
    gen_s: f64,
}

impl MonoBench {
    /// Tiles and encodes the trace, then runs the warm-up rep.
    pub fn setup(seed: u64, scale: Scale) -> Self {
        let requests = match scale {
            Scale::Full => 100_000,
            Scale::Smoke => 6_000,
        };
        let t = Instant::now();
        let mut bytes = Vec::new();
        write_tiled_trace(&mut bytes, requests, seed);
        let gen_s = t.elapsed().as_secs_f64();
        let mut bench = MonoBench {
            seed,
            requests,
            bytes,
            config: tlt::replay_deployment(MONO_REPLICAS),
            gen_s,
        };
        std::hint::black_box(bench.rep());
        bench
    }
}

impl Bench for MonoBench {
    fn precheck(&self) -> Result<(), String> {
        // Seed 0 of the recipe copy is the product's pinned stream.
        let checksum = write_tiled_trace(std::io::sink(), MILLION_REQUESTS, 0);
        if checksum != MILLION_CHECKSUM {
            return Err(format!(
                "replay_mono: seed-0 tiling gives checksum {checksum:#018x}, MILLION_CHECKSUM is {MILLION_CHECKSUM:#018x}"
            ));
        }
        // Streamed and in-memory replay agree on a prefix of this seed's stream.
        let mut prefix = Vec::new();
        let n = PREFIX_REQUESTS.min(self.requests);
        write_tiled_trace(&mut prefix, n, self.seed);
        let trace = Trace::from_bytes(&prefix).map_err(|e| format!("replay_mono: {e}"))?;
        let in_memory = tlt::run_replay(&trace, MONO_REPLICAS);
        let mut reader = TraceReader::open(&prefix[..]).map_err(|e| format!("replay_mono: {e}"))?;
        let streamed = tlt::run_replay_streamed(&mut reader, MONO_REPLICAS)
            .map_err(|e| format!("replay_mono: {e}"))?;
        conservation("replay_mono", &streamed, n)?;
        if mono_digest(&in_memory) != mono_digest(&streamed) {
            return Err("replay_mono: streamed and in-memory reports differ".to_string());
        }
        Ok(())
    }

    fn rep(&mut self) -> Rep {
        let mut reader = TraceReader::open(&self.bytes[..]).expect("own trace opens");
        let report =
            tlt::run_replay_streamed(&mut reader, MONO_REPLICAS).expect("own trace replays");
        serve_rep(&report, mono_digest(&report), self.requests)
    }

    /// `tlt_trace::replay_serving_streamed` recomposed from `TraceReader` and
    /// the `ServeSim` driver surface.
    fn traced_rep(&mut self, tr: &mut Tracer, layers: &mut Layers) -> Rep {
        let root = tr.open("bench.rep", 0);
        let (mut reader, open_s) = tr.time("trace.open", 0, || {
            TraceReader::open(&self.bytes[..]).expect("own trace opens")
        });
        record(
            ObsEvent::instant(0.0, Track::Frontend, EventKind::Replay, NO_REQ)
                .with_args(reader.request_count() as f64, reader.tick_ns() as f64),
        );
        let (mut sim, new_s) = tr.time("serve.new", 0, || ServeSim::new(&self.config));
        let mut meter = ChunkMeter::new(self.requests);
        drive_chunked(tr, &mut meter, &mut sim, || {
            reader.next_arrival().expect("own trace decodes")
        });
        let (_, drain_s) = tr.time("serve.drain", 0, || sim.run_until_drained());
        let (decode_steps, sd_steps) = sim.replicas().iter().fold((0, 0), |(d, s), r| {
            (d + r.metrics().decode_steps(), s + r.metrics().sd_steps())
        });
        let (report, report_s) = tr.time("serve.report", 0, || sim.into_report());
        tr.close(root);

        meter.set_layers(layers);
        layers.set("trace.decode_s", layers.get("trace.decode_s") + open_s);
        layers.set("serve.new_s", new_s);
        layers.set("serve.drain_s", drain_s);
        layers.set("serve.report_s", report_s);
        layers.set("serve.decode_steps", decode_steps as f64);
        layers.set("serve.sd_steps", sd_steps as f64);
        serve_layers(layers, &report, self.requests);
        serve_rep(&report, mono_digest(&report), self.requests)
    }

    fn probes(&self, layers: &mut Layers) {
        let trace = Trace::from_bytes(&self.bytes).expect("own trace decodes");
        probes::trace_encode(layers, &trace);
        probes::serve(layers, &self.config, trace.arrivals());
        probes::sd_manager(layers);
        probes::gpusim(layers);
        probes::obs(layers);
    }

    fn setup_layers(&self, layers: &mut Layers) {
        layers.set("workload.arrivals_gen_s", self.gen_s);
        layers.set("workload.arrivals", self.requests as f64);
    }
}

// -------------------------------------------------------------- replay_disagg

const PREFILL_REPLICAS: usize = 3;
const DECODE_REPLICAS: usize = 5;

/// The `run_disagg_comparison` deployment: memory-tight 3P+5D, SD off, the
/// scale-to-fit autoscaler, prefill-heavy prompts under a streaming SLO.
fn disagg_experiment(seed: u64, horizon_s: f64) -> ServingExperimentConfig {
    let mut config =
        ServingExperimentConfig::qwen7b_bursty(PREFILL_REPLICAS + DECODE_REPLICAS, 30.0)
            .with_prefix_share(0.6, 768);
    config.prompt_len_range = (1024, 3072);
    config.slo = SloSpec {
        ttft_s: 2.0,
        tpot_s: 0.010,
    };
    config.horizon_s = horizon_s;
    config.seed ^= seed;
    config
}

fn disagg_config(experiment: &ServingExperimentConfig) -> DisaggConfig {
    let mut base = experiment.serve_config(ServingSdPolicy::Disabled);
    base.kv_memory_fraction = 0.25;
    DisaggConfig::new(base, PREFILL_REPLICAS, DECODE_REPLICAS).with_autoscale(AutoscaleConfig {
        interval_s: 1.0,
        min_prefill: 1,
        max_prefill: PREFILL_REPLICAS,
        min_decode: 1,
        max_decode: DECODE_REPLICAS,
        prefill_queue_high: 4.0,
        prefill_queue_low: 0.5,
        decode_tokens_high: 12_000.0,
        decode_tokens_low: 2_500.0,
        spawn_delay_s: 0.5,
    })
}

/// A prepared `replay_disagg`.
pub struct DisaggBench {
    requests: u64,
    bytes: Vec<u8>,
    config: DisaggConfig,
    gen_s: f64,
    encode_s: f64,
}

impl DisaggBench {
    /// Generates the arrival stream, encodes it to TLTR (the trace write),
    /// then runs the warm-up rep.
    pub fn setup(seed: u64, scale: Scale) -> Self {
        let horizon_s = match scale {
            Scale::Full => 3000.0,
            Scale::Smoke => 120.0,
        };
        let experiment = disagg_experiment(seed, horizon_s);
        let t = Instant::now();
        let arrivals = experiment.arrivals();
        let gen_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let bytes = Trace::from_arrivals("bench-disagg", CORPUS_TICK_NS, &arrivals).to_bytes();
        let encode_s = t.elapsed().as_secs_f64();
        let mut bench = DisaggBench {
            requests: arrivals.len() as u64,
            bytes,
            config: disagg_config(&experiment),
            gen_s,
            encode_s,
        };
        std::hint::black_box(bench.rep());
        bench
    }

    fn rep_of(&self, report: &ClusterReport) -> Rep {
        serve_rep(&report.serve, cluster_digest(report), self.requests)
    }
}

impl Bench for DisaggBench {
    fn precheck(&self) -> Result<(), String> {
        // A prefix of the stream: the trace-driven replay equals the
        // product's own in-memory driver on the decoded arrivals.
        let trace = Trace::from_bytes(&self.bytes).map_err(|e| format!("replay_disagg: {e}"))?;
        let n = (PREFIX_REQUESTS.min(self.requests)) as usize;
        let prefix = Trace::from_arrivals(
            "bench-disagg-prefix",
            CORPUS_TICK_NS,
            &trace.arrivals()[..n],
        );
        let decoded =
            Trace::from_bytes(&prefix.to_bytes()).map_err(|e| format!("replay_disagg: {e}"))?;
        let replayed = tlt_trace::replay_disagg(&decoded, self.config.clone());
        let in_memory = tlt_serve::simulate_disagg(self.config.clone(), prefix.arrivals());
        conservation("replay_disagg", &replayed.serve, n as u64)?;
        if cluster_digest(&replayed) != cluster_digest(&in_memory) {
            return Err("replay_disagg: trace replay and in-memory reports differ".to_string());
        }
        Ok(())
    }

    fn rep(&mut self) -> Rep {
        let trace = Trace::from_bytes(&self.bytes).expect("own trace decodes");
        let report = tlt_trace::replay_disagg(&trace, self.config.clone());
        self.rep_of(&report)
    }

    /// `Trace::from_bytes` + `tlt_trace::replay_disagg` recomposed from the
    /// `ClusterSim` driver surface.
    fn traced_rep(&mut self, tr: &mut Tracer, layers: &mut Layers) -> Rep {
        let root = tr.open("bench.rep", 0);
        let (trace, decode_s) = tr.time("trace.decode", 0, || {
            Trace::from_bytes(&self.bytes).expect("own trace decodes")
        });
        record(
            ObsEvent::instant(0.0, Track::Frontend, EventKind::Replay, NO_REQ)
                .with_args(trace.arrivals().len() as f64, trace.tick_ns() as f64),
        );
        let (mut sim, new_s) = tr.time("serve.new", 0, || ClusterSim::new(self.config.clone()));
        let mut meter = ChunkMeter::new(self.requests);
        let mut arrivals = trace.arrivals().iter();
        drive_chunked(tr, &mut meter, &mut sim, || arrivals.next().copied());
        let (_, drain_s) = tr.time("serve.drain", 0, || sim.run_until_drained());
        let (report, report_s) = tr.time("serve.report", 0, || sim.into_report());
        tr.close(root);

        meter.set_layers(layers);
        // The whole-trace decode replaces the per-request iterator cost.
        layers.set("trace.decode_s", decode_s);
        layers.set(
            "trace.decode_ns_per_req",
            decode_s * 1e9 / self.requests.max(1) as f64,
        );
        layers.set("serve.new_s", new_s);
        layers.set("serve.drain_s", drain_s);
        layers.set("serve.report_s", report_s);
        serve_layers(layers, &report.serve, self.requests);
        layers.set("serve.migrations", report.migrations as f64);
        layers.set("serve.migrated_blocks", report.migrated_blocks as f64);
        layers.set("serve.scale_ups", report.scale_ups as f64);
        layers.set("serve.scale_downs", report.scale_downs as f64);
        layers.set("serve.sim_transfer_busy_s", report.transfer_busy_s);
        layers.set("serve.sim_avg_active_replicas", report.avg_active_replicas);
        layers.set("serve.sim_goodput_per_replica", report.goodput_per_replica);
        self.rep_of(&report)
    }

    fn probes(&self, layers: &mut Layers) {
        let trace = Trace::from_bytes(&self.bytes).expect("own trace decodes");
        probes::serve(layers, &self.config.base, trace.arrivals());
        probes::gpusim(layers);
        probes::obs(layers);
    }

    fn setup_layers(&self, layers: &mut Layers) {
        let per_req = self.requests.max(1) as f64;
        layers.set("workload.arrivals_gen_s", self.gen_s);
        layers.set("workload.arrivals", self.requests as f64);
        layers.set("trace.encode_s", self.encode_s);
        layers.set("trace.encode_ns_per_req", self.encode_s * 1e9 / per_req);
        layers.set("trace.bytes_per_req", self.bytes.len() as f64 / per_req);
    }
}
