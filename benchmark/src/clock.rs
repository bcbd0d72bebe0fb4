//! The clock the end-to-end rates are taken on: CPU time of this process.
//!
//! The benchmark runs on a few cores of a shared host, beside whatever else
//! the machine is doing. While the process is descheduled the wall clock runs
//! and the program does not, so wall time measures the neighbours. The
//! process CPU clock stops with the program. The product is pinned to one
//! thread ([`crate::pin_threads`]), so on an idle host the two clocks agree
//! to about a percent; work handed to further threads would count in full,
//! never hide.

use std::time::Duration;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads the process CPU clock through 64-bit Linux's clock_gettime");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` of Linux (`<time.h>`).
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU time this process has used, over all its threads.
///
/// # Panics
///
/// Panics if the platform has no process CPU clock (64-bit Linux has).
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` of the 64-bit Linux
    // layout (two 64-bit fields); the call writes it and keeps no pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "no process CPU clock");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// A started reading of the process CPU clock.
#[derive(Debug, Clone, Copy)]
pub struct CpuTimer(Duration);

impl CpuTimer {
    /// Starts now.
    pub fn start() -> CpuTimer {
        CpuTimer(process_cpu())
    }

    /// CPU seconds since the start.
    pub fn elapsed_s(&self) -> f64 {
        (process_cpu() - self.0).as_secs_f64()
    }
}
