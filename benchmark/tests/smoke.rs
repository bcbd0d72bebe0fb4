//! Smoke-size checks of the benchmark itself: every recomposed traced loop
//! equals its product entry point, the seed-0 tiling reproduces
//! `MILLION_CHECKSUM`, and two runs repeat each other exactly.
//!
//! The allocator counters and `tlt_obs::hooks` are process-wide, so the
//! tests take [`SERIAL`] instead of running on parallel test threads.

use std::sync::Mutex;
use tlt_benchmark::{manifest, run_traced, run_untraced, Kind, Scale};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    // A test that failed while holding the lock left no state behind.
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn benchmark_json_is_rendered_from_the_manifest_tables() {
    let _guard = serial();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        on_disk,
        manifest::render(),
        "regenerate with `-- --print-manifest > BENCHMARK.json`"
    );
}

#[test]
fn smoke_runs_are_correct_and_repeat_exactly() {
    let _guard = serial();
    tlt_benchmark::pin_threads();
    for kind in Kind::ALL {
        // Pre-checks (losslessness, conservation, streamed against in-memory,
        // MILLION_CHECKSUM, Figure 11 ordering) and identical rep digests.
        let runs: Vec<_> = (0..2)
            .map(|_| run_untraced(kind, 0, 0.0, Scale::Smoke).expect("untraced smoke run"))
            .collect();
        assert_eq!(runs[0].digest, runs[1].digest, "{}: digest", kind.name());
        assert_eq!(runs[0].failed, 0, "{}: failed operations", kind.name());
        for (name, value, _) in runs[0].metrics() {
            assert!(value > 0.0, "{}: {name} must never be 0", kind.name());
        }

        // `run_traced` fails unless the recomposed loop reproduces the
        // product's report; two of them agree on every exact counter.
        let traced: Vec<_> = (0..2)
            .map(|_| run_traced(kind, 0, 0.0, Scale::Smoke).expect("traced smoke run"))
            .collect();
        assert_eq!(
            traced[0].digest,
            runs[0].digest,
            "{}: traced digest",
            kind.name()
        );
        for &(name, _, _) in manifest::PER_LAYER {
            if manifest::is_exact(name) {
                let (a, b) = (traced[0].layers.get(name), traced[1].layers.get(name));
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{}: {name}: {a} then {b}",
                    kind.name()
                );
            }
        }
        let cover = traced[0].layers.get("bench.span_cover_frac");
        assert!(
            cover > 0.5 && cover <= 1.0,
            "{}: span cover {cover}",
            kind.name()
        );
    }
}

#[test]
fn a_different_seed_gives_a_different_replay_stream() {
    let _guard = serial();
    use tlt_benchmark::replay::write_tiled_trace;
    let (mut a, mut b, mut c) = (Vec::new(), Vec::new(), Vec::new());
    write_tiled_trace(&mut a, 2_000, 1);
    write_tiled_trace(&mut b, 2_000, 1);
    write_tiled_trace(&mut c, 2_000, 2);
    assert_eq!(a, b, "the same seed gives the same inputs");
    assert_ne!(a, c, "another seed gives other inputs");
}
