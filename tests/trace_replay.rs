//! Round-trip suite for `tlt-trace`: recording a run, writing the trace,
//! reading it back and replaying it must reproduce the recorded run's
//! per-request completion stream **bit for bit** — for the monolithic and the
//! disaggregated frontends, over random seeds — and damaged trace files must
//! be rejected with typed errors, never panics or silently-wrong traces.

use proptest::prelude::*;
use tlt::replay_deployment;
use tlt_serve::{ClusterSim, DisaggConfig, Driver, ServeSim};
use tlt_trace::{record, replay_disagg, replay_serving, CorpusPreset, Trace, TraceError};
use tlt_workload::{generate_arrivals, ArrivalConfig};

fn arrivals_for(seed: u64, rps: f64, horizon_s: f64) -> Vec<tlt_workload::RequestArrival> {
    generate_arrivals(&ArrivalConfig::constant(rps, horizon_s, seed).with_prefix(0.4, 128))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Monolithic frontend: record → encode → decode → replay equals the
    /// recorded run bit for bit, at nanosecond and at millisecond ticks.
    #[test]
    fn monolithic_record_replay_round_trips(seed in 0u64..10_000) {
        // Alternate between nanosecond (lossless) and millisecond ticks.
        let tick = if seed % 2 == 0 { 1u64 } else { 1_000_000 };
        let arrivals = arrivals_for(seed, 6.0, 15.0);
        let config = replay_deployment(2);
        let (recorded, trace) = record("prop", tick, ServeSim::new(&config), &arrivals);

        let decoded = Trace::from_bytes(&trace.to_bytes()).expect("round trip");
        prop_assert_eq!(&decoded, &trace);

        let replayed = replay_serving(&decoded, &config);
        prop_assert_eq!(&replayed.completed, &recorded.completed);
        prop_assert_eq!(replayed.goodput_rps, recorded.goodput_rps);
        prop_assert_eq!(replayed.slo_attainment, recorded.slo_attainment);
        prop_assert_eq!(replayed.throughput_tokens_per_s, recorded.throughput_tokens_per_s);
    }

    /// Disaggregated frontend: the same round trip holds through the
    /// prefill/decode cluster, including the recorded SD bitstream.
    #[test]
    fn disagg_record_replay_round_trips(seed in 0u64..10_000) {
        let arrivals = arrivals_for(seed, 4.0, 10.0);
        let config = || DisaggConfig::new(replay_deployment(1), 1, 2);
        let (recorded, trace) = record("prop-disagg", 1_000, ClusterSim::new(config()), &arrivals);

        let decoded = Trace::from_bytes(&trace.to_bytes()).expect("round trip");
        prop_assert_eq!(&decoded, &trace);

        let replayed = replay_disagg(&decoded, config());
        prop_assert_eq!(&replayed.serve.completed, &recorded.serve.completed);
        prop_assert_eq!(replayed.serve.goodput_rps, recorded.serve.goodput_rps);
        prop_assert_eq!(replayed.migrations, recorded.migrations);
    }
}

/// Replaying the *same decoded bytes* twice yields identical reports — the
/// bit-determinism the CI double-run `cmp` gate relies on.
#[test]
fn double_replay_is_bit_identical() {
    let trace = CorpusPreset::Chat.build();
    let a = tlt::run_replay(&trace, 2);
    let b = tlt::run_replay(&trace, 2);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.goodput_rps, b.goodput_rps);
    assert_eq!(a.slo_attainment, b.slo_attainment);
}

/// A recorded trace survives an actual filesystem round trip.
#[test]
fn file_round_trip_preserves_the_trace() {
    let arrivals = arrivals_for(7, 5.0, 10.0);
    let sim = ServeSim::new(&replay_deployment(2));
    let (_, trace) = record("file-rt", 1_000, sim, &arrivals);
    let path = std::env::temp_dir().join("tlt_trace_file_rt.tltr");
    let path = path.to_str().expect("utf-8 temp path");
    trace.write_file(path).expect("write");
    let read = Trace::read_file(path).expect("read");
    std::fs::remove_file(path).ok();
    assert_eq!(read, trace);
}

/// Damaged traces are rejected with typed errors.
#[test]
fn damaged_traces_are_rejected_with_typed_errors() {
    let bytes = CorpusPreset::BurstyMobile.build().to_bytes();

    let mut bad_magic = bytes.clone();
    bad_magic[0] = b'Z';
    assert_eq!(Trace::from_bytes(&bad_magic), Err(TraceError::BadMagic));

    let mut bad_version = bytes.clone();
    bad_version[4] = 200;
    assert_eq!(
        Trace::from_bytes(&bad_version),
        Err(TraceError::UnsupportedVersion(200))
    );

    for cut in [0, 3, 10, bytes.len() / 3, bytes.len() - 1] {
        let err = Trace::from_bytes(&bytes[..cut]).unwrap_err();
        assert!(
            matches!(err, TraceError::Truncated | TraceError::Corrupt { .. }),
            "cut {cut}: {err:?}"
        );
    }

    let mut corrupt = bytes.clone();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0x01;
    assert!(matches!(
        Trace::from_bytes(&corrupt),
        Err(TraceError::Corrupt { .. })
    ));

    // Reading a missing file is a typed IO error, not a panic.
    assert!(matches!(
        Trace::read_file("/nonexistent/definitely-missing.tltr"),
        Err(TraceError::Io(_))
    ));
}

/// The committed corpus meets the acceptance criterion: ≤ 8 bytes/request on
/// average, every trace within its pinned budget.
#[test]
fn corpus_meets_the_size_budget() {
    let mut total_bytes = 0usize;
    let mut total_requests = 0usize;
    for preset in CorpusPreset::all() {
        let stats = preset.build().stats();
        assert!(stats.total_bytes <= preset.size_budget_bytes());
        total_bytes += stats.total_bytes;
        total_requests += stats.requests;
    }
    assert!(total_bytes as f64 / total_requests as f64 <= 8.0);
}

/// Transforms are deterministic per seed and replayable.
#[test]
fn transformed_variants_replay_deterministically() {
    let base = CorpusPreset::Chat.build();
    let variants = [
        base.rate_scaled(2.0),
        base.storm_injected(20.0, 5.0, 50.0, 9),
        base.tenant_shuffled(9),
    ];
    for variant in &variants {
        assert!(variant.sd_accepts().is_none());
        let decoded = Trace::from_bytes(&variant.to_bytes()).expect("round trip");
        let a = tlt::run_replay(&decoded, 2);
        let b = tlt::run_replay(&decoded, 2);
        assert_eq!(a.completed, b.completed);
    }
    // Same seed, same variant — different seed, different workload.
    assert_eq!(
        base.storm_injected(20.0, 5.0, 50.0, 9),
        base.storm_injected(20.0, 5.0, 50.0, 9)
    );
    assert_ne!(
        base.storm_injected(20.0, 5.0, 50.0, 9).arrivals(),
        base.storm_injected(20.0, 5.0, 50.0, 10).arrivals()
    );
}

/// FNV-1a 64 over a byte stream.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `ServeSim` on the committed chat trace under `config`: digests of the whole
/// report (its `Debug` rendering prints every float exactly) and of the
/// per-step SD accept stream.
fn chat_corpus_digests(config: &tlt_serve::ServeConfig) -> (u64, usize, u64) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../corpus/chat.tltr");
    let trace = Trace::read_file(path).expect("committed chat trace");
    let mut sim = ServeSim::new(config);
    tlt_serve::drive(&mut sim, trace.arrivals().iter().copied(), |_, _| {});
    let sd_accepts = sim.sd_accept_trace();
    let report = format!("{:?}", sim.into_report());
    (
        fnv1a(report.as_bytes()),
        sd_accepts.len(),
        fnv1a(&sd_accepts),
    )
}

/// The replica's SD step moved into `tlt-rollout`'s shared evaluator (with a
/// memoised accept length); these digests were taken with the inline step it
/// replaced, so report and SD accept stream are byte-identical across the move
/// in both SD modes a replica dispatches on.
#[test]
fn chat_corpus_report_and_sd_accept_stream_are_pinned() {
    assert_eq!(
        chat_corpus_digests(&replay_deployment(2)),
        (0xada4_945d_4dab_305a, 10_387, 0x91d3_1d05_8345_90aa)
    );
    let always_on = replay_deployment(2).with_sd_mode(tlt_rollout::SdMode::Static {
        strategy: tlt_rollout::SdStrategy::default(),
        threshold: 6,
    });
    assert_eq!(
        chat_corpus_digests(&always_on),
        (0x0b8f_9327_2063_b369, 12_728, 0xaf39_415e_1de1_5c7d)
    );
}

/// The recorder reads the SD accept stream back out of the replicas, where it
/// is now stored run-length: the TLTR bytes `record` emits on either
/// simulator for the committed chat trace (workload plus SD
/// section, checksum trailer included) are pinned at what the byte-per-step
/// log produced.
#[test]
fn recorded_chat_corpus_tltr_bytes_are_pinned() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../corpus/chat.tltr");
    let chat = Trace::read_file(path).expect("committed chat trace");
    let (_, mono) = record(
        "chat-rec",
        chat.tick_ns(),
        ServeSim::new(&replay_deployment(2)),
        chat.arrivals(),
    );
    let (_, disagg) = record(
        "chat-rec-disagg",
        chat.tick_ns(),
        ClusterSim::new(DisaggConfig::new(replay_deployment(1), 1, 2)),
        chat.arrivals(),
    );
    let pin = |trace: &Trace| {
        let bytes = trace.to_bytes();
        let sd_steps = trace.sd_accepts().expect("recorded runs carry SD").len();
        (bytes.len(), sd_steps, fnv1a(&bytes))
    };
    assert_eq!(pin(&mono), (16_105, 10_387, 0xd9b7_bc66_5445_b1e0));
    assert_eq!(pin(&disagg), (16_952, 11_059, 0xc743_f0ec_228b_6fb5));
}

/// Streamed decode must equal the in-memory decoder on arbitrary traces and
/// arbitrary (tiny) chunk capacities — records and prefix back-references
/// straddle refill boundaries at capacity 16.
mod streamed {
    use super::*;
    use std::io::Cursor;
    use tlt_trace::{replay_serving_streamed, TraceReader, TraceWriter};

    proptest! {
        #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

        /// Reader equivalence: every arrival, any chunk size.
        #[test]
        fn streamed_reader_matches_in_memory_decode(
            seed in 0u64..10_000,
            capacity_idx in 0usize..5,
        ) {
            let capacity = [16usize, 17, 63, 256, 65_536][capacity_idx];
            let arrivals = generate_arrivals(
                &ArrivalConfig::constant(8.0, 12.0, seed).with_prefix(0.7, 128),
            );
            let trace = Trace::from_arrivals("stream-prop", 1_000, &arrivals);
            let bytes = trace.to_bytes();

            let in_memory = Trace::from_bytes(&bytes).expect("decodes");
            let mut reader = TraceReader::open_with_capacity(&bytes[..], capacity).expect("opens");
            prop_assert_eq!(reader.request_count() as usize, in_memory.arrivals().len());
            let mut streamed = Vec::new();
            while let Some(a) = reader.next_arrival().expect("clean stream") {
                streamed.push(a);
            }
            prop_assert_eq!(&streamed[..], in_memory.arrivals());
        }

        /// Writer equivalence: streaming canonical arrivals produces the exact
        /// bytes of the in-memory encoder.
        #[test]
        fn streamed_writer_matches_in_memory_encode(seed in 0u64..10_000) {
            let arrivals = generate_arrivals(
                &ArrivalConfig::constant(6.0, 10.0, seed).with_prefix(0.5, 96),
            );
            let trace = Trace::from_arrivals("stream-prop", 1_000, &arrivals);
            let mut out = Vec::new();
            let mut writer = TraceWriter::new(
                &mut out,
                trace.name(),
                trace.tick_ns(),
                trace.arrivals().len() as u64,
            )
            .expect("header writes");
            for a in trace.arrivals() {
                writer.push(a).expect("record writes");
            }
            writer.finish().expect("trailer writes");
            prop_assert_eq!(out, trace.to_bytes());
        }
    }

    /// Streamed replay reproduces the in-memory replay bit for bit across the
    /// whole committed corpus (completions, goodput, SLO attainment).
    #[test]
    fn streamed_replay_matches_in_memory_replay_on_the_corpus() {
        for preset in CorpusPreset::all() {
            let trace = preset.build();
            let in_memory = tlt::run_replay(&trace, 2);
            let mut reader = TraceReader::open(Cursor::new(trace.to_bytes())).expect("opens");
            let streamed = tlt::run_replay_streamed(&mut reader, 2).expect("replays");
            assert_eq!(streamed.completed, in_memory.completed, "{}", preset.name());
            assert_eq!(streamed.goodput_rps, in_memory.goodput_rps);
            assert_eq!(streamed.slo_attainment, in_memory.slo_attainment);
            assert_eq!(
                streamed.throughput_tokens_per_s,
                in_memory.throughput_tokens_per_s
            );
        }
    }

    /// Streamed replay surfaces decode errors typed, after the fact, and a
    /// truncated stream never panics the simulator.
    #[test]
    fn streamed_replay_reports_typed_errors() {
        let bytes = CorpusPreset::Chat.build().to_bytes();
        let cut = &bytes[..bytes.len() - 9]; // inside the trailer
        let mut reader = TraceReader::open(cut).expect("header is intact");
        let err = replay_serving_streamed(&mut reader, &replay_deployment(2)).unwrap_err();
        assert!(
            matches!(err, TraceError::Truncated),
            "expected Truncated, got {err:?}"
        );
    }
}

#[path = "common/churn.rs"]
mod churn;

/// `replay_disagg` under autoscaler churn: digests of the whole
/// `ClusterReport` — completions, the per-replica table with every retired
/// replica in pool order, migration / link / autoscaler counters — and of the
/// flight-recorder event stream, taken before the cluster's per-event loops
/// moved from the full pools to their live members.
#[test]
fn churn_cluster_report_and_event_stream_are_pinned() {
    tlt::obs::install(tlt::obs::FlightRecorder::new(1 << 12));
    let report = replay_disagg(&churn::trace(), churn::config());
    let events = tlt::obs::uninstall().expect("recorder installed").events();
    assert!(report.retires >= churn::MIN_RETIRES, "{}", report.retires);
    assert_eq!(
        (
            report.serve.replicas.len(),
            fnv1a(format!("{report:?}").as_bytes()),
            events.len(),
            fnv1a(format!("{events:?}").as_bytes()),
        ),
        (82, 0xb636458a034143eb, 15_812, 0x6685150a8abc1998)
    );
}
