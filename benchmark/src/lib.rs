//! # tlt-benchmark
//!
//! The repo benchmark: five workloads measured from outside the product
//! crates. End-to-end numbers come from the product's own entry points with
//! tracing off, on the process CPU clock and normalised by a host-speed
//! reference ([`host`]); a separate traced run recomposes the same loops from the
//! layers' public functions, wraps each call in a span, enables
//! `tlt_obs::hooks` and adds single-layer probes. `README.md` in this
//! directory documents every workload and metric.

#![warn(missing_docs)]

pub mod alloc;
pub mod clock;
pub mod host;
pub mod manifest;
pub mod paper;
pub mod probes;
pub mod replay;
pub mod rl;
pub mod spans;
pub mod stats;

use clock::CpuTimer;
use spans::Tracer;
use stats::Summary;
use std::collections::BTreeMap;
use std::time::Instant;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Fewest timed reps of a run, however short `--seconds` is.
pub const MIN_REPS: usize = 3;

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Tiny-model GRPO, vanilla rollouts.
    RlVanilla,
    /// Tiny-model GRPO, speculative rollouts and adaptive drafter.
    RlTlt,
    /// Streamed corpus-trace replay through `ServeSim`.
    ReplayMono,
    /// Bursty shared-prefix trace through `ClusterSim`.
    ReplayDisagg,
    /// The Figure 11 grid through `tlt::run_comparison`.
    PaperSim,
}

impl Kind {
    /// All workloads, in manifest order.
    pub const ALL: [Kind; 5] = [
        Kind::RlVanilla,
        Kind::RlTlt,
        Kind::ReplayMono,
        Kind::ReplayDisagg,
        Kind::PaperSim,
    ];

    /// Manifest name.
    pub fn name(self) -> &'static str {
        manifest::WORKLOADS[Kind::ALL
            .iter()
            .position(|k| *k == self)
            .expect("listed in ALL")]
        .0
    }

    /// Parses a manifest name.
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// What one unit of `work_per_s` is on this workload (the issue's name
    /// for the metric there).
    pub fn work_unit(self) -> &'static str {
        match self {
            Kind::RlVanilla | Kind::RlTlt => "generated response tokens (rl_tok_per_s)",
            Kind::ReplayMono | Kind::ReplayDisagg => "completed requests (replay_req_per_s)",
            Kind::PaperSim => "simulated RL steps (sim_rl_steps_per_s)",
        }
    }
}

/// Input sizes: the measured ones, or small ones for the package's tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes every reported number uses.
    Full,
    /// Seconds in total; same code paths.
    Smoke,
}

/// Outcome of one rep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rep {
    /// Units of work done (see [`Kind::work_unit`]).
    pub work: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// FNV-1a 64 over the deterministic fields of the rep's report.
    pub digest: u64,
}

/// Per-layer metrics of one traced rep, by manifest name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Sets a metric.
    ///
    /// # Panics
    ///
    /// Panics on a name the manifest does not list or a non-finite value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        manifest::unit_of(name);
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.insert(name, value);
    }

    /// A metric's value; 0 when this workload does not execute its layer.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Per-metric median over traced reps (counts repeat exactly, so their
    /// median is their value).
    fn median_of(reps: &[Layers]) -> Layers {
        let mut out = Layers::default();
        for &(name, _, _) in manifest::PER_LAYER {
            let values: Vec<f64> = reps.iter().filter_map(|l| l.0.get(name).copied()).collect();
            if !values.is_empty() {
                out.set(name, stats::median(&values));
            }
        }
        out
    }
}

/// A prepared workload: inputs generated, product warmed up.
pub trait Bench {
    /// One-off correctness pre-checks, untimed.
    fn precheck(&self) -> Result<(), String>;
    /// One rep through the product's own entry point.
    fn rep(&mut self) -> Rep;
    /// The same rep recomposed from the layers' public functions, every call
    /// inside a span; fills the layer metrics the spans, the reports and the
    /// `tlt_obs::hooks` counters (enabled and zeroed by the caller) give.
    fn traced_rep(&mut self, tracer: &mut Tracer, layers: &mut Layers) -> Rep;
    /// Single-layer probes for the layers this workload executes.
    fn probes(&self, layers: &mut Layers);
    /// Layer metrics known from set-up (input generation, encoding).
    fn setup_layers(&self, layers: &mut Layers);
}

fn setup(kind: Kind, seed: u64, scale: Scale) -> Box<dyn Bench> {
    match kind {
        Kind::RlVanilla | Kind::RlTlt => Box::new(rl::RlBench::setup(kind, seed, scale)),
        Kind::ReplayMono => Box::new(replay::MonoBench::setup(seed, scale)),
        Kind::ReplayDisagg => Box::new(replay::DisaggBench::setup(seed, scale)),
        Kind::PaperSim => Box::new(paper::PaperBench::setup(scale)),
    }
}

/// Pins the product to one thread: exports `TLT_NUM_THREADS=1` to its worker
/// pool; call before any other thread runs. The host has two cores and other
/// tenants. A second worker would take the core the rest of the machine needs,
/// and its timing would follow theirs.
pub fn pin_threads() -> usize {
    std::env::set_var("TLT_NUM_THREADS", "1");
    1
}

/// Result of an untraced run.
#[derive(Debug, Clone)]
pub struct Untraced {
    /// Which workload ran.
    pub kind: Kind,
    /// Median, quartiles and count of the set-up times (quiet-host seconds).
    pub setup_s: Summary,
    /// Median, quartiles and count of the per-rep work per quiet-host second.
    pub work_per_s: Summary,
    /// Median, quartiles and count of the per-rep peak live heap, MiB.
    pub peak_live_mb: Summary,
    /// Median, quartiles and count of the host slowdown around each rep.
    pub host_slowdown: Summary,
    /// Operations attempted over all timed reps.
    pub attempted: u64,
    /// Operations failed over all timed reps.
    pub failed: u64,
    /// The report digest every rep produced.
    pub digest: u64,
}

impl Untraced {
    /// The end-to-end metrics by manifest name: the reported value (the
    /// median), and the summary over reps it was taken from.
    pub fn metrics(&self) -> [(&'static str, f64, Summary); 3] {
        [
            ("work_per_s", self.work_per_s.median, self.work_per_s),
            ("peak_live_mb", self.peak_live_mb.median, self.peak_live_mb),
            ("setup_s", self.setup_s.median, self.setup_s),
        ]
    }
}

/// Times reps through the product's entry point for `seconds` (at least
/// [`MIN_REPS`]), in [`SETUP_REPS`] equal segments that each begin with a
/// fresh, timed set-up.
///
/// Every timed call (a set-up, a rep) is taken on the process CPU clock
/// ([`clock`]) and bracketed by two readings of the host reference kernel
/// ([`host`]); its time is divided by the slowdown they show. `work_per_s` and
/// `setup_s` are therefore in seconds of the quiet host, whatever the
/// neighbours were doing.
pub fn run_untraced(kind: Kind, seed: u64, seconds: f64, scale: Scale) -> Result<Untraced, String> {
    let mut reference = host::Reference::warmed();
    // What the harness itself holds is not the product's heap.
    let harness_live = alloc::live();
    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut rates = Vec::new();
    let mut peaks = Vec::new();
    let mut walls = Vec::new();
    let mut slowdowns = Vec::new();
    let mut first: Option<Rep> = None;
    let mut measured = 0.0;
    for segment in 1..=SETUP_REPS {
        let before = reference.measure();
        let t = CpuTimer::start();
        let mut bench = setup(kind, seed, scale);
        let setup_cpu = t.elapsed_s();
        let mut host_before = reference.measure();
        setup_times.push(setup_cpu / host::slowdown(before, host_before));
        if segment == 1 {
            bench.precheck()?;
            host_before = reference.measure();
        }
        let budget = seconds * segment as f64 / SETUP_REPS as f64;
        let min_reps = (MIN_REPS * segment).div_ceil(SETUP_REPS);
        loop {
            alloc::reset();
            let wall = Instant::now();
            let t = CpuTimer::start();
            let rep = std::hint::black_box(bench.rep());
            let cpu = t.elapsed_s();
            peaks.push(alloc::mib(alloc::stats().peak_live - harness_live));
            let host_after = reference.measure();
            let slowdown = host::slowdown(host_before, host_after);
            host_before = host_after;
            rates.push(rep.work * slowdown / cpu);
            // Raw material for checking the reference against a workload.
            eprintln!("rep cpu_s {cpu:.6} host_slowdown {slowdown:.4}");
            slowdowns.push(slowdown);
            walls.push(wall.elapsed().as_secs_f64());
            measured += walls[walls.len() - 1];
            let first = first.get_or_insert(rep);
            if *first != rep {
                return Err(format!(
                    "{}: rep {} gave {rep:?}, the first rep {first:?}",
                    kind.name(),
                    rates.len()
                ));
            }
            // Stop before the rep that would overrun the segment.
            if rates.len() >= min_reps && measured + stats::median(&walls) > budget {
                break;
            }
        }
    }
    let first = first.expect("at least one rep");
    if first.attempted == 0 {
        return Err(format!("{}: no operation attempted", kind.name()));
    }
    let reps = rates.len() as u64;
    Ok(Untraced {
        kind,
        setup_s: Summary::of(&setup_times),
        work_per_s: Summary::of(&rates),
        peak_live_mb: Summary::of(&peaks),
        host_slowdown: Summary::of(&slowdowns),
        attempted: first.attempted * reps,
        failed: first.failed * reps,
        digest: first.digest,
    })
}

/// Result of a traced run.
#[derive(Debug)]
pub struct Traced {
    /// Which workload ran.
    pub kind: Kind,
    /// Every per-layer metric (0 where the layer is bypassed).
    pub layers: Layers,
    /// The spans of every traced rep.
    pub tracer: Tracer,
    /// Operations attempted over the traced reps.
    pub attempted: u64,
    /// Operations failed over the traced reps.
    pub failed: u64,
    /// The report digest, equal between product and recomposed loop.
    pub digest: u64,
}

/// Spans one traced rep may record before the tracer has to grow.
const SPANS_PER_REP: usize = 4096;

/// Runs the probes, then alternates product reps and recomposed traced reps
/// for `seconds` (at least one pair) and checks each pair produces the same
/// report.
pub fn run_traced(kind: Kind, seed: u64, seconds: f64, scale: Scale) -> Result<Traced, String> {
    let mut bench = setup(kind, seed, scale);
    let mut static_layers = Layers::default();
    bench.setup_layers(&mut static_layers);
    bench.probes(&mut static_layers);

    let mut tracer = Tracer::default();
    let mut per_rep = Vec::new();
    let mut plain_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut rates = Vec::new();
    let mut reference = host::Reference::warmed();
    let mut slowdowns = Vec::new();
    let mut host_before = reference.measure();
    let window = Instant::now();
    let rep = loop {
        let t = Instant::now();
        let plain = std::hint::black_box(bench.rep());
        let plain_wall = t.elapsed().as_secs_f64();
        plain_walls.push(plain_wall);
        rates.push(plain.work / plain_wall);

        let rep_id = per_rep.len() as u32;
        tracer.start_rep(rep_id, SPANS_PER_REP);
        let mut layers = Layers::default();
        tlt_obs::hooks::reset();
        tlt_obs::hooks::enable();
        alloc::reset();
        let t = Instant::now();
        let traced = bench.traced_rep(&mut tracer, &mut layers);
        let traced_wall = t.elapsed().as_secs_f64();
        let heap = alloc::stats();
        tlt_obs::hooks::disable();
        traced_walls.push(traced_wall);
        if traced != plain {
            return Err(format!(
                "{}: the recomposed traced loop does not reproduce the product's report: \
                 product {plain:?}, recomposed {traced:?}",
                kind.name()
            ));
        }
        let ops = traced.attempted.max(1) as f64;
        layers.set("alloc.count", heap.calls as f64);
        layers.set("alloc.bytes", heap.bytes as f64);
        layers.set("alloc.count_per_op", heap.calls as f64 / ops);
        layers.set("alloc.bytes_per_op", heap.bytes as f64 / ops);
        layers.set("alloc.peak_live_mb", alloc::mib(heap.peak_live));
        let cover = tracer.leaf_cover(rep_id);
        layers.set("bench.span_cover_frac", cover);
        layers.set("tlt.loop_other_s", traced_wall * (1.0 - cover));
        per_rep.push(layers);
        let host_after = reference.measure();
        slowdowns.push(host::slowdown(host_before, host_after));
        host_before = host_after;

        let pair = plain_wall + traced_wall;
        if window.elapsed().as_secs_f64() + pair > seconds {
            break traced;
        }
    };
    let pairs = per_rep.len() as u64;

    let mut layers = Layers::median_of(&per_rep);
    for (name, value) in static_layers.0 {
        layers.set(name, value);
    }
    // Fastest against fastest: the host only ever adds time to a rep.
    let fastest = |walls: &[f64]| walls.iter().copied().fold(f64::INFINITY, f64::min);
    layers.set(
        "bench.trace_overhead_frac",
        fastest(&traced_walls) / fastest(&plain_walls) - 1.0,
    );
    layers.set("bench.rep_spread", Summary::of(&rates).spread());
    layers.set("bench.host_slowdown", stats::median(&slowdowns));
    Ok(Traced {
        kind,
        layers,
        tracer,
        attempted: rep.attempted * pairs,
        failed: rep.failed * pairs,
        digest: rep.digest,
    })
}
