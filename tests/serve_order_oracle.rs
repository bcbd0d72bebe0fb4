//! `ServeSim` runs each replica's due steps replica by replica between two
//! driver inputs. The scan-order oracle (`common/scan_order.rs`) runs the
//! same deployment in global time order, soonest step first. Over random
//! seeds, 1-6 replicas, every balancer and non-unit slow factors, the two
//! must agree bit for bit on the completions, on every replica's stats and on
//! every flight-recorder track's own event stream. Only the interleaving of
//! the tracks may differ.

use tlt::obs::{install, uninstall, FlightRecorder};
use tlt::replay_deployment;
use tlt_serve::{BalancerPolicy, ServeSim};
use tlt_workload::{generate_arrivals, ArrivalConfig};

#[path = "common/drive.rs"]
mod drive;
use drive::{drive, per_track_streams, Fault};

#[path = "common/scan_order.rs"]
mod scan_order;

/// SplitMix64: a seeded stream of deployment choices.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[(self.next() % from.len() as u64) as usize]
    }
}

#[test]
fn serve_sim_matches_the_scan_order_loop_over_random_deployments() {
    let mut slowed = 0;
    for seed in 0..24u64 {
        let mut rng = SplitMix(seed);
        let replicas = 1 + (rng.next() % 6) as usize;
        let policy = BalancerPolicy::all()[seed as usize % 3];
        let slow: Vec<f64> = (0..replicas)
            .map(|_| rng.pick(&[1.0, 0.5, 1.75, 3.0]))
            .collect();
        slowed += slow.iter().filter(|&&f| f != 1.0).count();
        let rps = rng.pick(&[3.0, 8.0, 16.0]);
        let arrivals =
            generate_arrivals(&ArrivalConfig::constant(rps, 4.0, seed).with_prefix(0.5, 128));
        let config = replay_deployment(replicas).with_balancer(policy);
        let label = format!(
            "seed {seed}: {replicas} replicas, {}, slow {slow:?}",
            policy.name()
        );

        let faults: Vec<(f64, Fault)> = slow
            .iter()
            .enumerate()
            .map(|(i, &factor)| (0.0, Fault::Slow(i, factor)))
            .collect();
        let (report, events) = drive(ServeSim::new(&config), &arrivals, &faults);

        install(FlightRecorder::new(1 << 16));
        let (completed, stats) = scan_order::run(&config, &slow, &arrivals);
        let oracle_events = uninstall().expect("recorder installed").events();

        assert_eq!(completed.len(), arrivals.len(), "{label}");
        scan_order::assert_same(&report.completed, &completed, &label);
        scan_order::assert_same(&report.replicas, &stats, &label);
        scan_order::assert_same_tracks(
            &per_track_streams(&events),
            &per_track_streams(&oracle_events),
            &label,
        );
    }
    assert!(slowed > 0, "some replica must run slowed");
}
