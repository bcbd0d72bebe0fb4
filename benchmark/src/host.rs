//! A fixed reference kernel that says how fast the host is right now.
//!
//! The benchmark runs on a few cores of a shared host. When a neighbour is
//! busy the same instructions take longer, in episodes of seconds to minutes
//! and with no steal time accounted: over 400 s of identical `replay_disagg`
//! reps the median rep took 1.2 s in the quiet state and 2.1 s in the busy one,
//! and the middle half of 28 s windows spread 53% of their median. No estimator
//! inside a run removes an episode longer than the run.
//!
//! So every end-to-end time is divided by the host's speed at that moment,
//! taken from this kernel run just before and just after the timed call. The
//! kernel is ~18 ms of the kinds of code the product is made of, chosen
//! because a busy neighbour slows them about as much as it slows the
//! workloads (measured on this host, quiet against busy): a loop over an array
//! of structs with a conditional update (+75%), a sort (+65%), a hash map
//! (+50%), a dense matvec (+45%); the workloads slow by +45% (`paper_sim`) to
//! +80% (`replay_disagg`). Tight arithmetic loops, pointer chases and copies
//! slow by only 8-20% and would track nothing. What the mix leaves is the
//! difference between a workload's own factor and the mix's (+60%): on the
//! same 400 s the windows of normalised medians spread 13% on `replay_disagg`
//! and under 3% on `rl_vanilla` and `paper_sim`.
//!
//! The kernel belongs to the benchmark, so a change to the product cannot move
//! it.

use crate::clock::CpuTimer;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;

/// CPU seconds one [`Reference::measure`] takes on this host when it is
/// quiet. Rates are scaled by `measured / NOMINAL_S`, so they read as work per
/// second of the quiet host.
pub const NOMINAL_S: f64 = 0.018;

#[derive(Clone, Copy)]
struct Slot {
    state: u64,
    period: u32,
    count: u32,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The reference kernel's working set (~250 KiB), built once per run.
pub struct Reference {
    slots: Vec<Slot>,
    keys: Vec<u32>,
    scratch: Vec<u32>,
    // Fixed hash keys: the same probe sequence in every process.
    map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    mat: Vec<f32>,
    vec: Vec<f32>,
}

impl Reference {
    /// Builds the working set and runs the kernel once, so the first reading
    /// taken is not a cold one.
    pub fn warmed() -> Self {
        let mut seed = 88_172_645_463_325_252u64;
        let mut reference = Reference {
            slots: (0..2048)
                .map(|_| Slot {
                    state: xorshift(&mut seed),
                    period: 1 + (xorshift(&mut seed) % 511) as u32,
                    count: 0,
                })
                .collect(),
            keys: (0..4096).map(|_| xorshift(&mut seed) as u32).collect(),
            scratch: vec![0; 4096],
            map: HashMap::with_capacity_and_hasher(8192, BuildHasherDefault::default()),
            mat: (0..64 * 64).map(|i| (i % 17) as f32 * 0.01).collect(),
            vec: (0..64).map(|i| i as f32 * 0.1).collect(),
        };
        reference.measure();
        reference
    }

    /// Runs the kernel once; CPU seconds it took.
    pub fn measure(&mut self) -> f64 {
        let t = CpuTimer::start();
        black_box(self.scan());
        black_box(self.sort());
        black_box(self.map());
        black_box(self.matvec());
        t.elapsed_s()
    }

    /// Countdown timers in an array of structs: a branch per slot per round,
    /// taken once in `period` rounds.
    fn scan(&mut self) -> u64 {
        let mut fired = 0u64;
        for s in &mut self.slots {
            s.count = 0;
        }
        for round in 0..6000u64 {
            for s in &mut self.slots {
                s.count += 1;
                if s.count >= s.period {
                    s.count = 0;
                    s.state = s.state.rotate_left(5) ^ round;
                    fired += 1;
                }
            }
        }
        fired
    }

    fn sort(&mut self) -> u32 {
        let mut acc = 0;
        for _ in 0..140 {
            self.scratch.copy_from_slice(&self.keys);
            self.scratch.sort_unstable();
            acc ^= black_box(&self.scratch)[7];
        }
        acc
    }

    fn map(&mut self) -> usize {
        self.map.clear();
        let mut x = 1u64;
        for _ in 0..320_000 {
            *self.map.entry(xorshift(&mut x) & 4095).or_insert(0) += 1;
        }
        self.map.len()
    }

    fn matvec(&mut self) -> f32 {
        let mut out = [0f32; 64];
        for _ in 0..3000 {
            for (r, o) in out.iter_mut().enumerate() {
                let row = &self.mat[r * 64..(r + 1) * 64];
                *o = row.iter().zip(&self.vec).map(|(a, b)| a * b).sum();
            }
            self.vec[0] = out[63] * 1e-6;
        }
        out[1]
    }
}

/// Host slowdown over an interval bracketed by two reference readings: their
/// mean over [`NOMINAL_S`]. 1.0 on the quiet host, ~1.6 beside a busy one.
pub fn slowdown(before_s: f64, after_s: f64) -> f64 {
    (before_s + after_s) / (2.0 * NOMINAL_S)
}
