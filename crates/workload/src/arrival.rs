//! Open-loop request arrival processes for the serving subsystem.
//!
//! The closed-loop engines elsewhere in the repo decode one fixed batch to
//! completion; online serving instead sees requests *arrive over time*. This module
//! provides seeded arrival generators: a (possibly non-homogeneous) Poisson process
//! whose instantaneous rate follows a [`RateCurve`] — constant, diurnal
//! (sinusoidal), or bursty (square-wave) — with per-request prompt lengths and
//! long-tail output lengths drawn from a [`LengthDistribution`]. Everything is a
//! pure function of the seed, like the rest of the workspace.

use crate::longtail::LengthDistribution;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Instantaneous request-arrival rate as a function of simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RateCurve {
    /// Homogeneous Poisson arrivals at a fixed rate (requests per second).
    Constant {
        /// Requests per second.
        rps: f64,
    },
    /// Diurnal load: `mean_rps * (1 + amplitude * sin(2πt / period_s))`.
    Diurnal {
        /// Mean requests per second.
        mean_rps: f64,
        /// Relative swing around the mean, in `[0, 1]`.
        amplitude: f64,
        /// Period of one day-night cycle in simulated seconds.
        period_s: f64,
    },
    /// Bursty load: a square wave spending `burst_fraction` of every period at
    /// `burst_rps` and the remainder at `base_rps`.
    Bursty {
        /// Rate outside bursts (requests per second).
        base_rps: f64,
        /// Rate during bursts (requests per second).
        burst_rps: f64,
        /// Fraction of each period spent bursting, in `(0, 1)`.
        burst_fraction: f64,
        /// Period of the burst cycle in simulated seconds.
        period_s: f64,
    },
}

impl RateCurve {
    /// Instantaneous rate at time `t` (seconds), in requests per second.
    pub fn rate_at(&self, t: f64) -> f64 {
        match *self {
            RateCurve::Constant { rps } => rps,
            RateCurve::Diurnal {
                mean_rps,
                amplitude,
                period_s,
            } => {
                let a = amplitude.clamp(0.0, 1.0);
                mean_rps * (1.0 + a * (2.0 * std::f64::consts::PI * t / period_s).sin())
            }
            RateCurve::Bursty {
                base_rps,
                burst_rps,
                burst_fraction,
                period_s,
            } => {
                let phase = (t % period_s) / period_s;
                if phase < burst_fraction.clamp(0.0, 1.0) {
                    burst_rps
                } else {
                    base_rps
                }
            }
        }
    }

    /// Upper bound on the instantaneous rate (used by the thinning sampler).
    pub fn peak_rate(&self) -> f64 {
        match *self {
            RateCurve::Constant { rps } => rps,
            RateCurve::Diurnal {
                mean_rps,
                amplitude,
                ..
            } => mean_rps * (1.0 + amplitude.clamp(0.0, 1.0)),
            RateCurve::Bursty {
                base_rps,
                burst_rps,
                ..
            } => base_rps.max(burst_rps),
        }
    }

    /// The same curve with every rate multiplied by `factor`, keeping the
    /// temporal shape (period, amplitude, burst fraction) intact — the knob
    /// rate-sweep experiments turn to push one workload shape to 10x load.
    ///
    /// # Panics
    ///
    /// Panics unless `factor` is finite and positive.
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "rate scale factor must be finite and positive"
        );
        match *self {
            RateCurve::Constant { rps } => RateCurve::Constant { rps: rps * factor },
            RateCurve::Diurnal {
                mean_rps,
                amplitude,
                period_s,
            } => RateCurve::Diurnal {
                mean_rps: mean_rps * factor,
                amplitude,
                period_s,
            },
            RateCurve::Bursty {
                base_rps,
                burst_rps,
                burst_fraction,
                period_s,
            } => RateCurve::Bursty {
                base_rps: base_rps * factor,
                burst_rps: burst_rps * factor,
                burst_fraction,
                period_s,
            },
        }
    }

    /// Exact integral of the rate over `[0, horizon_s]`: the expected number of
    /// arrivals of the (non-homogeneous) Poisson process over that window.
    pub fn expected_requests(&self, horizon_s: f64) -> f64 {
        let t = horizon_s.max(0.0);
        match *self {
            RateCurve::Constant { rps } => rps * t,
            RateCurve::Diurnal {
                mean_rps,
                amplitude,
                period_s,
            } => {
                let a = amplitude.clamp(0.0, 1.0);
                let w = 2.0 * std::f64::consts::PI / period_s;
                // ∫ mean (1 + a sin(wt)) dt = mean t + mean a (1 - cos(wt)) / w.
                mean_rps * t + mean_rps * a * (1.0 - (w * t).cos()) / w
            }
            RateCurve::Bursty {
                base_rps,
                burst_rps,
                burst_fraction,
                period_s,
            } => {
                let f = burst_fraction.clamp(0.0, 1.0);
                let per_period = period_s * (f * burst_rps + (1.0 - f) * base_rps);
                let full = (t / period_s).floor();
                let rem = t - full * period_s;
                let partial =
                    rem.min(f * period_s) * burst_rps + (rem - f * period_s).max(0.0) * base_rps;
                full * per_period + partial
            }
        }
    }
}

/// Shared system-prompt specification for an arrival stream: each request
/// independently carries the shared prefix with probability `share`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SharedPrefixSpec {
    /// Fraction of requests whose prompt starts with the shared prefix,
    /// in `[0, 1]`.
    pub share: f64,
    /// Length of the shared prefix in tokens (clamped to the prompt length).
    pub len: usize,
}

impl SharedPrefixSpec {
    /// The prefix-group id stamped on sharing requests (0 means "no prefix").
    pub const GROUP_ID: u64 = 1;
}

/// Configuration of one arrival stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArrivalConfig {
    /// The time-varying arrival rate.
    pub curve: RateCurve,
    /// Arrivals are generated over `[0, horizon_s)` simulated seconds.
    pub horizon_s: f64,
    /// Prompt lengths are drawn uniformly from this inclusive range.
    pub prompt_len_range: (usize, usize),
    /// Output (response) lengths follow this long-tail distribution.
    pub output_lengths: LengthDistribution,
    /// Optional shared system prompt. `None` leaves the stream — including
    /// its RNG draws — bit-identical to streams generated before prefix
    /// support existed.
    pub prefix: Option<SharedPrefixSpec>,
    /// Seed determining the entire stream.
    pub seed: u64,
}

impl ArrivalConfig {
    /// A constant-rate stream with chat-style prompts and long-tail outputs.
    pub fn constant(rps: f64, horizon_s: f64, seed: u64) -> Self {
        ArrivalConfig {
            curve: RateCurve::Constant { rps },
            horizon_s,
            prompt_len_range: (256, 768),
            output_lengths: LengthDistribution::LongTailMixture {
                mu: 5.5,
                sigma: 0.9,
                truncation_mass: 0.02,
                max_len: 4096,
            },
            prefix: None,
            seed,
        }
    }

    /// Same stream with a shared system prompt carried by `share` of requests.
    pub fn with_prefix(mut self, share: f64, len: usize) -> Self {
        self.prefix = Some(SharedPrefixSpec { share, len });
        self
    }
}

/// One request arriving at the serving frontend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RequestArrival {
    /// Monotonically increasing request id (arrival order).
    pub id: u64,
    /// Arrival time in integer simulated nanoseconds (exact, hashable, orderable).
    pub time_ns: u64,
    /// Prompt length in tokens.
    pub prompt_len: usize,
    /// Target output length in tokens.
    pub output_len: usize,
    /// Shared-prefix group the prompt starts with (0 = none).
    pub prefix_id: u64,
    /// Tokens of the prompt belonging to the shared prefix.
    pub prefix_len: usize,
}

impl RequestArrival {
    /// Arrival time in seconds.
    pub fn time_s(&self) -> f64 {
        self.time_ns as f64 * 1e-9
    }
}

/// A pull-based source of time-ordered arrivals.
///
/// The serving frontends consume arrivals strictly one at a time (advance the
/// clock to the arrival, offer it, repeat), so a replay driver never needs the
/// whole stream in memory — any feed with bounded per-pull state gives a
/// bounded-memory replay. Every in-memory iterator of arrivals is a feed via
/// the blanket impl; `tlt-trace` feeds a streamed TLTR decode through the same
/// trait.
pub trait ArrivalFeed {
    /// The next arrival, in non-decreasing time order, or `None` at the end
    /// of the stream.
    fn next_arrival(&mut self) -> Option<RequestArrival>;
}

impl<I> ArrivalFeed for I
where
    I: Iterator<Item = RequestArrival>,
{
    fn next_arrival(&mut self) -> Option<RequestArrival> {
        self.next()
    }
}

/// Generates the arrival stream described by `config` via Poisson thinning:
/// candidate arrivals are drawn from a homogeneous process at the peak rate and
/// kept with probability `rate(t) / peak`, yielding a non-homogeneous Poisson
/// process with intensity `rate(t)`. Identical configs give identical streams.
pub fn generate_arrivals(config: &ArrivalConfig) -> Vec<RequestArrival> {
    let peak = config.curve.peak_rate();
    // A NaN or infinite rate or horizon would never end the loop below.
    assert!(
        peak.is_finite() && peak > 0.0,
        "arrival rate {peak} is not finite and positive"
    );
    assert!(
        config.horizon_s.is_finite(),
        "arrival horizon {} is not finite",
        config.horizon_s
    );
    let (lo, hi) = config.prompt_len_range;
    assert!(lo >= 1 && lo <= hi, "invalid prompt length range");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut out = Vec::new();
    let mut t = 0.0f64;
    let mut id = 0u64;
    loop {
        // Exponential inter-arrival at the peak rate (inverse CDF).
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        t += -u.ln() / peak;
        if t >= config.horizon_s {
            break;
        }
        let keep: f64 = rng.gen_range(0.0..1.0);
        if keep < config.curve.rate_at(t) / peak {
            let prompt_len = rng.gen_range(lo..=hi);
            let output_len = config.output_lengths.sample(&mut rng);
            // The prefix coin is only drawn when a prefix is configured, so
            // legacy configs reproduce their historical streams bit for bit.
            let (prefix_id, prefix_len) = match config.prefix {
                Some(spec) if rng.gen_range(0.0..1.0) < spec.share.clamp(0.0, 1.0) => {
                    (SharedPrefixSpec::GROUP_ID, spec.len.min(prompt_len))
                }
                _ => (0, 0),
            };
            out.push(RequestArrival {
                id,
                // Quantised to integer nanoseconds so arrival times are exactly
                // representable and comparisons are reproducible everywhere.
                time_ns: (t * 1e9) as u64,
                prompt_len,
                output_len,
                prefix_id,
                prefix_len,
            });
            id += 1;
        }
    }
    out
}

/// Shifts every arrival in the stream forward by `offset_s` seconds (used to
/// place a generated burst at an injection point on another stream's timeline).
pub fn shift_arrivals(arrivals: &mut [RequestArrival], offset_s: f64) {
    assert!(offset_s >= 0.0, "offset must be non-negative");
    let offset_ns = (offset_s * 1e9) as u64;
    for a in arrivals {
        a.time_ns += offset_ns;
    }
}

/// Merges several arrival streams into one timeline and re-assigns ids in
/// arrival order (ties broken by stream index, then original id, so the merge
/// is fully deterministic). The result satisfies the same contract as
/// [`generate_arrivals`]: sorted by time with sequential ids — which is what
/// the serving frontend's request-conservation invariant is checked against.
pub fn merge_arrival_streams(streams: Vec<Vec<RequestArrival>>) -> Vec<RequestArrival> {
    let mut merged: Vec<(usize, RequestArrival)> = streams
        .into_iter()
        .enumerate()
        .flat_map(|(s, stream)| stream.into_iter().map(move |a| (s, a)))
        .collect();
    merged.sort_by_key(|(s, a)| (a.time_ns, *s, a.id));
    merged
        .into_iter()
        .enumerate()
        .map(|(i, (_, mut a))| {
            a.id = i as u64;
            a
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_multiplies_rates_and_keeps_the_shape() {
        let bursty = RateCurve::Bursty {
            base_rps: 2.0,
            burst_rps: 20.0,
            burst_fraction: 0.25,
            period_s: 8.0,
        };
        let x10 = bursty.scaled(10.0);
        for t in [0.0, 1.0, 3.0, 7.9, 12.5] {
            assert!((x10.rate_at(t) - 10.0 * bursty.rate_at(t)).abs() < 1e-9);
        }
        assert!((x10.expected_requests(20.0) - 10.0 * bursty.expected_requests(20.0)).abs() < 1e-6);
        let diurnal = RateCurve::Diurnal {
            mean_rps: 4.0,
            amplitude: 0.5,
            period_s: 60.0,
        };
        assert_eq!(
            diurnal.scaled(2.5),
            RateCurve::Diurnal {
                mean_rps: 10.0,
                amplitude: 0.5,
                period_s: 60.0
            }
        );
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn zero_scale_factor_is_rejected() {
        RateCurve::Constant { rps: 1.0 }.scaled(0.0);
    }

    #[test]
    #[should_panic(expected = "arrival horizon NaN is not finite")]
    fn nan_horizon_is_rejected_instead_of_looping_forever() {
        count_for(RateCurve::Constant { rps: 1.0 }, f64::NAN, 0);
    }

    fn count_for(curve: RateCurve, horizon_s: f64, seed: u64) -> usize {
        generate_arrivals(&ArrivalConfig {
            curve,
            horizon_s,
            prompt_len_range: (64, 128),
            output_lengths: LengthDistribution::Constant { len: 100 },
            prefix: None,
            seed,
        })
        .len()
    }

    #[test]
    fn constant_rate_count_matches_integral() {
        let curve = RateCurve::Constant { rps: 50.0 };
        let horizon = 400.0;
        let expected = curve.expected_requests(horizon);
        let n = count_for(curve, horizon, 11) as f64;
        // Poisson sd is sqrt(expected); allow 5 sigma.
        let tol = 5.0 * expected.sqrt();
        assert!(
            (n - expected).abs() < tol,
            "count {n} vs expected {expected} (tol {tol})"
        );
    }

    #[test]
    fn diurnal_rate_count_matches_integral() {
        let curve = RateCurve::Diurnal {
            mean_rps: 40.0,
            amplitude: 0.8,
            period_s: 60.0,
        };
        let horizon = 390.0; // deliberately not a whole number of periods
        let expected = curve.expected_requests(horizon);
        let n = count_for(curve, horizon, 12) as f64;
        let tol = 5.0 * expected.sqrt();
        assert!(
            (n - expected).abs() < tol,
            "count {n} vs expected {expected} (tol {tol})"
        );
    }

    #[test]
    fn bursty_rate_count_matches_integral() {
        let curve = RateCurve::Bursty {
            base_rps: 10.0,
            burst_rps: 80.0,
            burst_fraction: 0.25,
            period_s: 40.0,
        };
        let horizon = 410.0; // ends mid-period to exercise the partial term
        let expected = curve.expected_requests(horizon);
        let n = count_for(curve, horizon, 13) as f64;
        let tol = 5.0 * expected.sqrt();
        assert!(
            (n - expected).abs() < tol,
            "count {n} vs expected {expected} (tol {tol})"
        );
    }

    #[test]
    fn bursty_integral_is_piecewise_exact() {
        let curve = RateCurve::Bursty {
            base_rps: 2.0,
            burst_rps: 10.0,
            burst_fraction: 0.5,
            period_s: 10.0,
        };
        // One full period: 5 s at 10 rps + 5 s at 2 rps = 60.
        assert!((curve.expected_requests(10.0) - 60.0).abs() < 1e-9);
        // Half a period (all burst): 5 s at 10 rps = 50.
        assert!((curve.expected_requests(5.0) - 50.0).abs() < 1e-9);
        // 7 s: 50 + 2 s at 2 rps = 54.
        assert!((curve.expected_requests(7.0) - 54.0).abs() < 1e-9);
    }

    #[test]
    fn identical_seeds_give_identical_streams() {
        let config = ArrivalConfig::constant(25.0, 120.0, 99);
        let a = generate_arrivals(&config);
        let b = generate_arrivals(&config);
        assert!(!a.is_empty());
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let a = generate_arrivals(&ArrivalConfig::constant(25.0, 120.0, 1));
        let b = generate_arrivals(&ArrivalConfig::constant(25.0, 120.0, 2));
        assert_ne!(a, b);
    }

    #[test]
    fn arrivals_are_sorted_ids_sequential_lengths_in_range() {
        let config = ArrivalConfig {
            curve: RateCurve::Diurnal {
                mean_rps: 30.0,
                amplitude: 0.5,
                period_s: 30.0,
            },
            horizon_s: 60.0,
            prompt_len_range: (100, 200),
            output_lengths: LengthDistribution::LongTailMixture {
                mu: 5.0,
                sigma: 1.0,
                truncation_mass: 0.05,
                max_len: 2048,
            },
            prefix: None,
            seed: 7,
        };
        let arrivals = generate_arrivals(&config);
        assert!(!arrivals.is_empty());
        for (i, pair) in arrivals.windows(2).enumerate() {
            assert!(pair[0].time_ns <= pair[1].time_ns, "unsorted at {i}");
        }
        for (i, a) in arrivals.iter().enumerate() {
            assert_eq!(a.id, i as u64);
            assert!(a.time_s() < config.horizon_s);
            assert!((100..=200).contains(&a.prompt_len));
            assert!((1..=2048).contains(&a.output_len));
        }
    }

    #[test]
    fn shared_prefix_is_sampled_at_the_configured_share() {
        let base = ArrivalConfig::constant(50.0, 40.0, 5);
        let none = generate_arrivals(&base);
        assert!(none.iter().all(|a| a.prefix_id == 0 && a.prefix_len == 0));

        let all = generate_arrivals(&base.clone().with_prefix(1.0, 128));
        assert!(!all.is_empty());
        for a in &all {
            assert_eq!(a.prefix_id, SharedPrefixSpec::GROUP_ID);
            assert_eq!(a.prefix_len, 128.min(a.prompt_len));
        }

        let half = generate_arrivals(&base.clone().with_prefix(0.5, 10_000));
        let with = half.iter().filter(|a| a.prefix_id != 0).count();
        let frac = with as f64 / half.len() as f64;
        assert!((0.35..0.65).contains(&frac), "share came out at {frac}");
        // The prefix never exceeds the prompt it is part of.
        assert!(half
            .iter()
            .all(|a| a.prefix_len <= a.prompt_len && (a.prefix_id == 0) == (a.prefix_len == 0)));

        // Timing and lengths of the no-prefix stream are unchanged by prefix
        // support existing at all (no extra RNG draw without a prefix).
        let replay = generate_arrivals(&base);
        assert_eq!(none, replay);
    }

    #[test]
    fn merged_streams_are_sorted_with_sequential_ids() {
        let base = generate_arrivals(&ArrivalConfig::constant(10.0, 10.0, 1));
        let mut burst = generate_arrivals(&ArrivalConfig::constant(40.0, 2.0, 2));
        shift_arrivals(&mut burst, 4.0);
        let n = base.len() + burst.len();
        let merged = merge_arrival_streams(vec![base.clone(), burst.clone()]);
        assert_eq!(merged.len(), n);
        for (i, a) in merged.iter().enumerate() {
            assert_eq!(a.id, i as u64);
        }
        for pair in merged.windows(2) {
            assert!(pair[0].time_ns <= pair[1].time_ns);
        }
        // The burst lands entirely inside [4, 6) seconds.
        assert!(burst.iter().all(|a| (4.0..6.0).contains(&a.time_s())));
        // Merging is deterministic.
        assert_eq!(merged, merge_arrival_streams(vec![base, burst]));
    }

    fn arrival_at(id: u64, time_ns: u64, prompt_len: usize) -> RequestArrival {
        RequestArrival {
            id,
            time_ns,
            prompt_len,
            output_len: 5,
            prefix_id: 0,
            prefix_len: 0,
        }
    }

    #[test]
    fn merge_reassigns_colliding_ids_uniquely() {
        // Regression: both streams carry ids 0 and 1; the merged timeline must
        // not — ids are reassigned sequentially in merged arrival order.
        let s0 = vec![arrival_at(0, 100, 10), arrival_at(1, 300, 11)];
        let s1 = vec![arrival_at(0, 200, 20), arrival_at(1, 400, 21)];
        let merged = merge_arrival_streams(vec![s0, s1]);
        assert_eq!(merged.len(), 4);
        for (i, a) in merged.iter().enumerate() {
            assert_eq!(a.id, i as u64, "ids must be unique and sequential");
        }
        // Payloads interleave by timestamp: s0[0], s1[0], s0[1], s1[1].
        assert_eq!(
            merged.iter().map(|a| a.prompt_len).collect::<Vec<_>>(),
            vec![10, 20, 11, 21]
        );
    }

    #[test]
    fn merge_breaks_timestamp_ties_by_stream_index_then_original_id() {
        // Regression: equal-timestamp ties are ordered by (stream index,
        // original id), pinning the previously unspecified merge order.
        let s0 = vec![arrival_at(5, 1000, 10)];
        let s1 = vec![arrival_at(3, 1000, 20), arrival_at(4, 1000, 21)];
        let s2 = vec![arrival_at(0, 1000, 30)];
        let merged = merge_arrival_streams(vec![s0, s1, s2]);
        assert_eq!(
            merged.iter().map(|a| a.prompt_len).collect::<Vec<_>>(),
            vec![10, 20, 21, 30],
            "ties must order by stream index first, then original id"
        );
        assert!(merged.iter().all(|a| a.time_ns == 1000));
        // Determinism under repetition.
        let again = merge_arrival_streams(vec![
            vec![arrival_at(5, 1000, 10)],
            vec![arrival_at(3, 1000, 20), arrival_at(4, 1000, 21)],
            vec![arrival_at(0, 1000, 30)],
        ]);
        assert_eq!(merged, again);
    }

    #[test]
    fn shift_arrivals_is_exact_in_integer_nanoseconds() {
        let mut arrivals = vec![arrival_at(0, 0, 10), arrival_at(1, 123_456_789, 11)];
        shift_arrivals(&mut arrivals, 4.0);
        assert_eq!(arrivals[0].time_ns, 4_000_000_000);
        assert_eq!(arrivals[1].time_ns, 4_123_456_789);
        // Zero offset is the identity.
        let mut same = vec![arrival_at(0, 777, 10)];
        shift_arrivals(&mut same, 0.0);
        assert_eq!(same[0].time_ns, 777);
    }

    #[test]
    fn bursty_peak_dominates_rate_everywhere() {
        let curve = RateCurve::Bursty {
            base_rps: 5.0,
            burst_rps: 50.0,
            burst_fraction: 0.2,
            period_s: 20.0,
        };
        for i in 0..200 {
            let t = i as f64 * 0.37;
            assert!(curve.rate_at(t) <= curve.peak_rate());
        }
    }
}
