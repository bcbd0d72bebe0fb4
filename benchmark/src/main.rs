//! Command line of the repo benchmark. See `README.md` in this directory.
//!
//! Driver form (what `BENCHMARK.json`'s `command` runs):
//!   `--workload W --seed N --seconds S --trace 0|1`
//! prints one JSON object as the last line of standard output.
//!
//! Human form:
//!   `--all [--workload W] [--seed N] [--seconds S] [--traced] [--out DIR] [--smoke]`
//!   `--selfcheck [--workload W] [--seed N] [--seconds S] [--smoke]`
//!   `--print-manifest`

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use tlt_benchmark::manifest::{self, Better};
use tlt_benchmark::{run_traced, run_untraced, Kind, Scale, Traced, Untraced};
use tlt_obs::JsonValue;

struct Args {
    all: bool,
    selfcheck: bool,
    print_manifest: bool,
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    traced: bool,
    out: PathBuf,
    scale: Scale,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        all: false,
        selfcheck: false,
        print_manifest: false,
        workload: None,
        seed: 0,
        seconds: manifest::RUN_SECONDS as f64,
        trace: None,
        traced: false,
        out: PathBuf::from("benchmark/out"),
        scale: Scale::Full,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--all" => args.all = true,
            "--selfcheck" => args.selfcheck = true,
            "--print-manifest" => args.print_manifest = true,
            "--traced" => args.traced = true,
            "--smoke" => args.scale = Scale::Smoke,
            "--workload" => {
                let name = value("a workload name")?;
                args.workload = Some(Kind::from_name(&name).ok_or_else(|| {
                    let known: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
                    format!("unknown workload {name}; known: {}", known.join(", "))
                })?);
            }
            "--seed" => {
                args.seed = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let seconds: f64 = value("a number of seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && (0.0..=600.0).contains(&seconds)) {
                    return Err(format!("--seconds must be within 0..=600, got {seconds}"));
                }
                args.seconds = seconds;
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                });
            }
            "--out" => args.out = PathBuf::from(value("a directory")?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn selected(args: &Args) -> Vec<Kind> {
    args.workload.map_or(Kind::ALL.to_vec(), |k| vec![k])
}

fn write_spans(out: &Path, traced: &Traced) -> Result<PathBuf, String> {
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let path = out.join(format!("{}.trace.json", traced.kind.name()));
    let json = traced.tracer.to_json(traced.kind.name());
    std::fs::write(&path, format!("{json}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64)>,
) -> String {
    let metrics = metrics
        .into_iter()
        .map(|(name, value)| {
            (
                name,
                JsonValue::object(vec![
                    ("value", JsonValue::Number(value)),
                    ("unit", JsonValue::string(manifest::unit_of(name))),
                ]),
            )
        })
        .collect();
    JsonValue::object(vec![
        ("correct", JsonValue::Bool(correct)),
        ("attempted", JsonValue::Number(attempted as f64)),
        ("failed", JsonValue::Number(failed as f64)),
        ("metrics", JsonValue::object(metrics)),
    ])
    .to_string()
}

fn layer_values(traced: &Traced) -> Vec<(&'static str, f64)> {
    manifest::PER_LAYER
        .iter()
        .map(|&(name, _, _)| (name, traced.layers.get(name)))
        .collect()
}

/// One run in the driver's form. The JSON line is the last thing on standard
/// output; everything for people goes to standard error.
fn driver_run(args: &Args, kind: Kind, trace: bool) -> Result<(), String> {
    if trace {
        let traced = run_traced(kind, args.seed, args.seconds, args.scale)?;
        let path = write_spans(&args.out, &traced)?;
        eprintln!(
            "{}: digest {:016x}, spans in {}",
            kind.name(),
            traced.digest,
            path.display()
        );
        println!(
            "{}",
            result_line(true, traced.attempted, traced.failed, layer_values(&traced))
        );
    } else {
        let run = run_untraced(kind, args.seed, args.seconds, args.scale)?;
        eprintln!(
            "{}: digest {:016x}, {} reps, work_per_s q1 {:.1} q3 {:.1}, host slowdown q1 {:.2} q3 {:.2}",
            kind.name(),
            run.digest,
            run.work_per_s.n,
            run.work_per_s.q1,
            run.work_per_s.q3,
            run.host_slowdown.q1,
            run.host_slowdown.q3
        );
        let metrics = run
            .metrics()
            .into_iter()
            .map(|(name, value, _)| (name, value))
            .collect();
        println!("{}", result_line(true, run.attempted, run.failed, metrics));
    }
    Ok(())
}

fn print_untraced(run: &Untraced) {
    println!(
        "\n== {} (untraced, digest {:016x}; attempted {}, failed {}) ==",
        run.kind.name(),
        run.digest,
        run.attempted,
        run.failed
    );
    println!("   one unit of work: {}", run.kind.work_unit());
    println!(
        "   host slowdown around the reps: median {:.3}, q1 {:.3}, q3 {:.3}",
        run.host_slowdown.median, run.host_slowdown.q1, run.host_slowdown.q3
    );
    println!(
        "   {:<16} {:>14} {:>14} {:>14} {:>14} {:>4}  unit",
        "metric", "reported", "median", "q1", "q3", "n"
    );
    for (name, value, s) in run.metrics() {
        println!(
            "   {:<16} {:>14.4} {:>14.4} {:>14.4} {:>14.4} {:>4}  {}",
            name,
            value,
            s.median,
            s.q1,
            s.q3,
            s.n,
            manifest::unit_of(name)
        );
    }
}

fn print_traced(traced: &Traced, spans: &Path) {
    println!(
        "\n== {} (traced, digest {:016x}; spans in {}) ==",
        traced.kind.name(),
        traced.digest,
        spans.display()
    );
    for (name, value) in layer_values(traced) {
        println!(
            "   {:<44} {:>18.4}  {}",
            name,
            value,
            manifest::unit_of(name)
        );
    }
}

/// The traced run must account for its own wall time and cost little.
fn reconcile(traced: &Traced) -> Result<(), String> {
    let cover = traced.layers.get("bench.span_cover_frac");
    let overhead = traced.layers.get("bench.trace_overhead_frac");
    if cover < 0.9 {
        return Err(format!(
            "{}: spans cover only {cover:.3} of the traced wall (need 0.9)",
            traced.kind.name()
        ));
    }
    if overhead > 0.10 {
        return Err(format!(
            "{}: tracing costs {overhead:.3} of the untraced wall (at most 0.10)",
            traced.kind.name()
        ));
    }
    Ok(())
}

fn run_all(args: &Args) -> Result<(), String> {
    for kind in selected(args) {
        let run = run_untraced(kind, args.seed, args.seconds, args.scale)?;
        print_untraced(&run);
        if args.traced {
            let traced = run_traced(kind, args.seed, args.seconds, args.scale)?;
            let path = write_spans(&args.out, &traced)?;
            print_traced(&traced, &path);
            if args.scale == Scale::Full {
                reconcile(&traced)?;
            }
        }
    }
    Ok(())
}

fn relative_worsening(better: Better, first: f64, second: f64) -> f64 {
    if first == 0.0 {
        return 0.0;
    }
    match better {
        Better::Higher => (first - second) / first.abs(),
        Better::Lower => (second - first) / first.abs(),
    }
}

/// Two full sets back to back: end-to-end medians must agree within their
/// bounds either way round, digests and exact counters must be identical.
fn selfcheck(args: &Args) -> Result<(), String> {
    let mut problems = Vec::new();
    for kind in selected(args) {
        let mut sets = Vec::new();
        for _ in 0..2 {
            let run = run_untraced(kind, args.seed, args.seconds, args.scale)?;
            // The spans are dropped here: held, they would raise the second
            // set's live heap.
            let Traced { layers, digest, .. } =
                run_traced(kind, args.seed, args.seconds, args.scale)?;
            sets.push((run, layers, digest));
        }
        let [(a, la, da), (b, lb, db)] = &sets[..] else {
            unreachable!("two sets were pushed");
        };
        println!("\n== {} ==", kind.name());
        if a.digest != b.digest || da != db || a.digest != *da {
            problems.push(format!("{}: report digests differ", kind.name()));
        }
        println!(
            "   {:<16} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8} {:>6}",
            "end to end",
            "reported 1",
            "median",
            "q1",
            "q3",
            "reported 2",
            "median",
            "q1",
            "q3",
            "rel",
            "bound"
        );
        for ((name, x, xs), (_, y, ys)) in a.metrics().into_iter().zip(b.metrics()) {
            let &(_, _, better, bound) = manifest::END_TO_END
                .iter()
                .find(|m| m.0 == name)
                .expect("end-to-end metric");
            let rel = relative_worsening(better, x, y);
            println!(
                "   {:<16} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>+8.4} {:>6}",
                name, x, xs.median, xs.q1, xs.q3, y, ys.median, ys.q1, ys.q3, rel, bound
            );
            if rel.abs() > bound {
                problems.push(format!(
                    "{}: {name} differs by {rel:+.4} between two sets of the same code (bound {bound})",
                    kind.name()
                ));
            }
        }
        for &(name, _, _) in manifest::PER_LAYER {
            let (x, y) = (la.get(name), lb.get(name));
            let exact = manifest::is_exact(name);
            let rel = if x == 0.0 { 0.0 } else { (y - x) / x.abs() };
            println!(
                "   {:<44} {:>16.4} {:>16.4} {:>+8.4} {}",
                name,
                x,
                y,
                rel,
                if exact { "exact" } else { "" }
            );
            if exact && x.to_bits() != y.to_bits() {
                problems.push(format!(
                    "{}: exact counter {name} differs: {x} then {y}",
                    kind.name()
                ));
            }
        }
    }
    if problems.is_empty() {
        println!("\nselfcheck passed");
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("tlt-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.print_manifest {
        print!("{}", manifest::render());
        return ExitCode::SUCCESS;
    }
    let threads = tlt_benchmark::pin_threads();
    eprintln!(
        "tlt-benchmark: TLT_NUM_THREADS={threads}, seed {}",
        args.seed
    );

    let outcome = if args.selfcheck {
        selfcheck(&args)
    } else if args.all {
        run_all(&args)
    } else if let (Some(kind), Some(trace)) = (args.workload, args.trace) {
        let outcome = driver_run(&args, kind, trace);
        if outcome.is_err() {
            println!("{}", result_line(false, 1, 1, Vec::new()));
        }
        outcome
    } else {
        Err("give --all, --selfcheck, --print-manifest, or --workload W --trace 0|1".to_string())
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tlt-benchmark: FAILED\n{e}");
            ExitCode::FAILURE
        }
    }
}
