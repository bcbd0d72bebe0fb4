//! Roofline execution-time model.
//!
//! Every simulated kernel is summarised by the floating-point work it performs and
//! the bytes it must move through device memory. Its execution time is the maximum
//! of the compute time and the memory time (the classical roofline), plus a launch
//! overhead term that CUDAGraph replay removes — which is exactly the effect the
//! paper exploits (Figure 5(c): speculative verification moves decoding from the
//! memory-bound region toward the compute-bound region).

use crate::specs::GpuSpec;
use serde::{Deserialize, Serialize};

/// Fraction of peak tensor throughput realistically achievable by dense GEMMs.
pub const DEFAULT_COMPUTE_EFFICIENCY: f64 = 0.55;
/// Fraction of peak memory bandwidth realistically achievable by decode kernels.
pub const DEFAULT_MEMORY_EFFICIENCY: f64 = 0.80;
/// Per-kernel execution floor in microseconds that remains even under CUDAGraph
/// replay (tiny kernels cannot run faster than this; it is what makes a 24-layer
/// 0.5B drafter slower than a single-layer EAGLE drafter of similar size).
pub const GRAPH_KERNEL_FLOOR_US: f64 = 2.5;

/// Work performed by one (fused) kernel invocation.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct KernelWork {
    /// Floating-point operations.
    pub flops: f64,
    /// Bytes moved through device memory.
    pub bytes: f64,
    /// Number of kernel launches this work is split into (for launch overhead).
    pub launches: f64,
}

impl KernelWork {
    /// Creates a work descriptor.
    pub fn new(flops: f64, bytes: f64, launches: f64) -> Self {
        KernelWork {
            flops,
            bytes,
            launches,
        }
    }

    /// Combines two pieces of work executed back to back.
    pub fn then(self, other: KernelWork) -> KernelWork {
        KernelWork {
            flops: self.flops + other.flops,
            bytes: self.bytes + other.bytes,
            launches: self.launches + other.launches,
        }
    }

    /// Arithmetic intensity in FLOP/byte. Returns infinity when no bytes are moved.
    pub fn arithmetic_intensity(&self) -> f64 {
        if self.bytes <= 0.0 {
            f64::INFINITY
        } else {
            self.flops / self.bytes
        }
    }
}

/// Execution-mode knobs that affect kernel timing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExecutionMode {
    /// Whether kernels are replayed from a captured CUDAGraph (removes launch overhead).
    pub cuda_graph: bool,
    /// Achieved fraction of peak compute.
    pub compute_efficiency: f64,
    /// Achieved fraction of peak memory bandwidth.
    pub memory_efficiency: f64,
}

impl Default for ExecutionMode {
    fn default() -> Self {
        ExecutionMode {
            cuda_graph: true,
            compute_efficiency: DEFAULT_COMPUTE_EFFICIENCY,
            memory_efficiency: DEFAULT_MEMORY_EFFICIENCY,
        }
    }
}

impl ExecutionMode {
    /// Eager (non-captured) execution.
    pub fn eager() -> Self {
        ExecutionMode {
            cuda_graph: false,
            ..ExecutionMode::default()
        }
    }
}

/// Breakdown of a roofline time estimate.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct TimeBreakdown {
    /// Seconds spent limited by compute.
    pub compute_s: f64,
    /// Seconds spent limited by memory bandwidth.
    pub memory_s: f64,
    /// Seconds of launch overhead.
    pub launch_s: f64,
    /// Total seconds (`max(compute, memory) + launch`).
    pub total_s: f64,
}

impl TimeBreakdown {
    /// Whether the kernel is compute-bound (compute time exceeds memory time).
    pub fn is_compute_bound(&self) -> bool {
        self.compute_s >= self.memory_s
    }
}

/// Achieved memory bandwidth of `gpu` under `mode`, in bytes per second.
pub fn peak_bandwidth(gpu: &GpuSpec, mode: ExecutionMode) -> f64 {
    gpu.memory_bandwidth_gbps * 1e9 * mode.memory_efficiency
}

/// Estimates execution time of `work` on `gpu` under `mode`.
pub fn estimate_time(work: KernelWork, gpu: &GpuSpec, mode: ExecutionMode) -> TimeBreakdown {
    let peak_flops = gpu.bf16_tflops * 1e12 * mode.compute_efficiency;
    let peak_bw = peak_bandwidth(gpu, mode);
    let compute_s = work.flops / peak_flops;
    let memory_s = work.bytes / peak_bw;
    // Kernel execution floor applies regardless of capture; CPU-side launch
    // overhead is only paid in eager mode (CUDAGraph replays the whole graph with a
    // single submission).
    let mut launch_s = work.launches * GRAPH_KERNEL_FLOOR_US * 1e-6;
    if !mode.cuda_graph {
        launch_s += work.launches * gpu.kernel_launch_us * 1e-6;
    }
    TimeBreakdown {
        compute_s,
        memory_s,
        launch_s,
        total_s: compute_s.max(memory_s) + launch_s,
    }
}

/// Effective achieved TFLOP/s of a kernel (used to reproduce Figure 5(c)).
pub fn achieved_tflops(work: KernelWork, gpu: &GpuSpec, mode: ExecutionMode) -> f64 {
    let t = estimate_time(work, gpu, mode).total_s;
    if t <= 0.0 {
        0.0
    } else {
        work.flops / t / 1e12
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specs::GpuType;

    #[test]
    fn memory_bound_kernel_limited_by_bandwidth() {
        let gpu = GpuType::H100.spec();
        // 1 GB of traffic, negligible flops.
        let work = KernelWork::new(1e6, 1e9, 10.0);
        let t = estimate_time(work, &gpu, ExecutionMode::default());
        assert!(!t.is_compute_bound());
        assert!(t.total_s > 1e-4);
    }

    #[test]
    fn compute_bound_kernel_limited_by_flops() {
        let gpu = GpuType::H100.spec();
        // Huge GEMM with little traffic.
        let work = KernelWork::new(1e15, 1e6, 10.0);
        let t = estimate_time(work, &gpu, ExecutionMode::default());
        assert!(t.is_compute_bound());
    }

    #[test]
    fn cuda_graph_removes_per_kernel_launch_overhead() {
        let gpu = GpuType::H100.spec();
        let work = KernelWork::new(1e9, 1e7, 500.0);
        let eager = estimate_time(work, &gpu, ExecutionMode::eager());
        let graphed = estimate_time(work, &gpu, ExecutionMode::default());
        assert!(eager.launch_s > graphed.launch_s * 2.0);
        assert!(eager.total_s > graphed.total_s);
    }

    #[test]
    fn achieved_tflops_increases_with_batched_verification() {
        // Figure 5(c): speculative decoding saturates compute at much smaller batch
        // sizes. Verifying 8 tokens per sequence ~8x the achieved TFLOPS of
        // single-token decode at the same batch size (while memory-bound).
        let gpu = GpuType::H100.spec();
        let params = 7.6e9;
        let decode = KernelWork::new(2.0 * params * 8.0, 2.0 * params, 1.0);
        let verify = KernelWork::new(2.0 * params * 8.0 * 8.0, 2.0 * params, 1.0);
        let t_decode = achieved_tflops(decode, &gpu, ExecutionMode::default());
        let t_verify = achieved_tflops(verify, &gpu, ExecutionMode::default());
        assert!(t_verify > 4.0 * t_decode);
    }

    #[test]
    fn work_composition_adds_fields() {
        let a = KernelWork::new(1.0, 2.0, 3.0);
        let b = KernelWork::new(10.0, 20.0, 30.0);
        let c = a.then(b);
        assert_eq!(c.flops, 11.0);
        assert_eq!(c.bytes, 22.0);
        assert_eq!(c.launches, 33.0);
    }

    #[test]
    fn arithmetic_intensity_handles_zero_bytes() {
        assert!(KernelWork::new(1.0, 0.0, 1.0)
            .arithmetic_intensity()
            .is_infinite());
        assert_eq!(KernelWork::new(4.0, 2.0, 1.0).arithmetic_intensity(), 2.0);
    }
}
