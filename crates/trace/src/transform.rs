//! Deterministic trace transforms: rate scaling, storm injection, tenant
//! shuffling.
//!
//! Every transform is a pure function of the input trace (and a seed where
//! noted), produces a renamed trace, and **drops the SD section** — a recorded
//! accept stream describes one exact run and no longer corresponds to the
//! edited workload.

use crate::format::Trace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tlt_workload::{merge_arrival_streams, RequestArrival};

impl Trace {
    /// Compresses (factor > 1) or stretches (factor < 1) the arrival timeline
    /// by `factor`, keeping every request payload: the trace-replay analogue
    /// of `RateCurve::scaled`. Tick deltas are rounded, so relative order is
    /// preserved exactly.
    ///
    /// # Panics
    ///
    /// Panics unless `factor` is finite and positive, and if a scaled arrival
    /// time does not fit in `u64` nanoseconds.
    pub fn rate_scaled(&self, factor: f64) -> Trace {
        assert!(
            factor.is_finite() && factor > 0.0,
            "rate scale factor must be finite and positive"
        );
        let tick = self.tick_ns();
        let scaled: Vec<RequestArrival> = self
            .arrivals()
            .iter()
            .map(|a| {
                let ticks = ((a.time_ns / tick) as f64 / factor).round();
                let time_ns = (ticks < u64::MAX as f64)
                    .then_some(ticks as u64)
                    .and_then(|t| t.checked_mul(tick))
                    .unwrap_or_else(|| {
                        panic!("rate scale factor {factor} overflows the u64 ns timeline")
                    });
                RequestArrival { time_ns, ..*a }
            })
            .collect();
        let name = derived_name(self.name(), &format!("+x{factor:.2}"));
        Trace::from_arrivals(&name, tick, &scaled)
    }

    /// Injects a synthetic request storm: a homogeneous Poisson burst at
    /// `storm_rps` over `[at_s, at_s + duration_s)`, each storm request
    /// cloning the payload (lengths, prefix) of a uniformly drawn base
    /// request. Deterministic per `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty, the storm rate is not positive, or the
    /// window is degenerate.
    pub fn storm_injected(&self, at_s: f64, duration_s: f64, storm_rps: f64, seed: u64) -> Trace {
        assert!(!self.arrivals().is_empty(), "cannot storm an empty trace");
        assert!(storm_rps > 0.0, "storm rate must be positive");
        assert!(duration_s > 0.0 && at_s >= 0.0, "invalid storm window");
        let tick = self.tick_ns();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut storm = Vec::new();
        let mut t = at_s;
        loop {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            t += -u.ln() / storm_rps;
            if t >= at_s + duration_s {
                break;
            }
            let donor = self.arrivals()[rng.gen_range(0..self.arrivals().len())];
            storm.push(RequestArrival {
                id: storm.len() as u64,
                time_ns: ((t * 1e9) as u64 / tick) * tick,
                ..donor
            });
        }
        let merged = merge_arrival_streams(vec![self.arrivals().to_vec(), storm]);
        Trace::from_arrivals(&derived_name(self.name(), "+storm"), tick, &merged)
    }

    /// Re-deals the request payloads (lengths and prefix membership) across
    /// the arrival slots with a seeded Fisher–Yates shuffle, keeping the
    /// arrival timeline itself fixed — "same tenants, different timing
    /// correlation". Deterministic per `seed`.
    pub fn tenant_shuffled(&self, seed: u64) -> Trace {
        let mut payloads: Vec<(usize, usize, u64, usize)> = self
            .arrivals()
            .iter()
            .map(|a| (a.prompt_len, a.output_len, a.prefix_id, a.prefix_len))
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..payloads.len()).rev() {
            let j = rng.gen_range(0..=i);
            payloads.swap(i, j);
        }
        let shuffled: Vec<RequestArrival> = self
            .arrivals()
            .iter()
            .zip(payloads)
            .map(
                |(a, (prompt_len, output_len, prefix_id, prefix_len))| RequestArrival {
                    prompt_len,
                    output_len,
                    prefix_id,
                    prefix_len,
                    ..*a
                },
            )
            .collect();
        Trace::from_arrivals(
            &derived_name(self.name(), "+shuffle"),
            self.tick_ns(),
            &shuffled,
        )
    }
}

/// `base` followed by a transform's `suffix`, cut on a char boundary to the
/// 255 bytes a TLTR name holds.
fn derived_name(base: &str, suffix: &str) -> String {
    let mut name = format!("{base}{suffix}");
    let cut = (0..=name.len().min(255))
        .rev()
        .find(|&i| name.is_char_boundary(i))
        .unwrap_or(0);
    name.truncate(cut);
    name
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlt_workload::{generate_arrivals, ArrivalConfig};

    fn base() -> Trace {
        let mut trace = named("base");
        trace.set_sd_accepts(vec![2; 10]);
        trace
    }

    fn named(name: &str) -> Trace {
        let config = ArrivalConfig::constant(10.0, 60.0, 5).with_prefix(0.4, 64);
        Trace::from_arrivals(name, 1_000_000, &generate_arrivals(&config))
    }

    #[test]
    fn rate_scaling_compresses_the_timeline_and_keeps_payloads() {
        let t = base();
        let fast = t.rate_scaled(2.0);
        assert_eq!(fast.arrivals().len(), t.arrivals().len());
        assert!(
            fast.sd_accepts().is_none(),
            "transforms drop the SD section"
        );
        let last = t.arrivals().last().unwrap().time_ns as f64;
        let fast_last = fast.arrivals().last().unwrap().time_ns as f64;
        assert!((fast_last - last / 2.0).abs() <= 2.0 * t.tick_ns() as f64);
        for (a, b) in t.arrivals().iter().zip(fast.arrivals()) {
            assert_eq!(a.prompt_len, b.prompt_len);
            assert_eq!(a.output_len, b.output_len);
        }
        assert_eq!(fast.name(), "base+x2.00");
        // Identity-ish: scaling by 1.0 keeps the timeline bit-for-bit.
        assert_eq!(t.rate_scaled(1.0).arrivals(), t.arrivals());
    }

    #[test]
    fn storm_injection_is_deterministic_per_seed() {
        let t = base();
        let a = t.storm_injected(10.0, 5.0, 40.0, 1);
        let b = t.storm_injected(10.0, 5.0, 40.0, 1);
        assert_eq!(a, b);
        let c = t.storm_injected(10.0, 5.0, 40.0, 2);
        assert_ne!(a.arrivals(), c.arrivals());
        // The storm adds roughly rate x duration requests inside the window.
        let added = a.arrivals().len() - t.arrivals().len();
        assert!((100..=300).contains(&added), "storm added {added}");
        let window = 10.0..15.5;
        let in_window = a
            .arrivals()
            .iter()
            .filter(|r| window.contains(&r.time_s()))
            .count();
        assert!(in_window >= added, "storm requests land in the window");
    }

    #[test]
    fn tenant_shuffle_permutes_payloads_but_not_times() {
        let t = base();
        let s = t.tenant_shuffled(9);
        assert_eq!(s.arrivals().len(), t.arrivals().len());
        for (a, b) in t.arrivals().iter().zip(s.arrivals()) {
            assert_eq!(a.time_ns, b.time_ns, "timeline must be untouched");
        }
        let mut before: Vec<_> = t
            .arrivals()
            .iter()
            .map(|a| (a.prompt_len, a.output_len, a.prefix_id, a.prefix_len))
            .collect();
        let mut after: Vec<_> = s
            .arrivals()
            .iter()
            .map(|a| (a.prompt_len, a.output_len, a.prefix_id, a.prefix_len))
            .collect();
        assert_ne!(before, after, "shuffle should move something");
        before.sort_unstable();
        after.sort_unstable();
        assert_eq!(before, after, "payload multiset is preserved");
        assert_eq!(s, t.tenant_shuffled(9));
    }

    #[test]
    fn transforms_accept_every_name_and_factor_tltr_allows() {
        let long = "é".repeat(127) + "a"; // 255 bytes
        let t = named(&long);
        for derived in [
            t.rate_scaled(2.0),
            t.storm_injected(10.0, 5.0, 40.0, 1),
            t.tenant_shuffled(9),
        ] {
            assert_eq!(derived.name(), long);
        }
        let flat = base().rate_scaled(1e300);
        assert_eq!(flat.name().len(), 255);
        assert!(flat.name().starts_with("base+x1000"));
        assert!(flat.arrivals().iter().all(|a| a.time_ns == 0));
        // A trailing multi-byte char that would straddle the cut is dropped.
        assert_eq!(derived_name(&"a".repeat(254), "é"), "a".repeat(254));
    }

    #[test]
    #[should_panic(expected = "rate scale factor 0.000000001 overflows")]
    fn rate_scaling_past_the_u64_timeline_panics_naming_the_factor() {
        base().rate_scaled(1e-9);
    }

    #[test]
    fn transformed_traces_still_round_trip() {
        let t = base().storm_injected(5.0, 2.0, 30.0, 3).tenant_shuffled(4);
        let decoded = Trace::from_bytes(&t.to_bytes()).unwrap();
        assert_eq!(decoded, t);
    }
}
