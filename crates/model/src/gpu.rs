//! GPU and host-side hardware description.
//!
//! [`GpuSpec`] holds the peak numbers and efficiency factors of the roofline
//! performance model. The presets are calibrated so that, combined with
//! [`crate::LlmSpec::deepseek_r1_distill_qwen_32b`], the simulated decode
//! step lands in the ~25–35 ms range the paper treats as typical (§IV-B
//! cites 30 ms/token as an aggressive decode speed).

/// Peak capabilities and achievable-efficiency factors of one serving GPU.
///
/// # Examples
///
/// ```
/// use pascal_model::GpuSpec;
///
/// let gpu = GpuSpec::h100_96gb();
/// assert!(gpu.hbm_bytes > 90_000_000_000);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct GpuSpec {
    /// Marketing name of the device.
    pub name: String,
    /// Total HBM capacity in bytes.
    pub hbm_bytes: u64,
    /// Peak HBM bandwidth in bytes/second.
    pub hbm_bandwidth: f64,
    /// Peak dense FP16/BF16 throughput in FLOP/second (no sparsity).
    pub dense_fp16_flops: f64,
    /// Fraction of peak FLOPs achieved by prefill kernels (model FLOPs
    /// utilization).
    pub prefill_mfu: f64,
    /// Fraction of peak HBM bandwidth achieved by decode kernels.
    pub decode_bandwidth_eff: f64,
    /// Host link (PCIe) effective bandwidth in bytes/second, used for KV
    /// offload to and reload from CPU memory.
    pub pcie_bandwidth: f64,
    /// Fixed per-iteration launch/scheduling overhead in seconds.
    pub iteration_overhead_s: f64,
    /// Additional per-sequence overhead per iteration in seconds (batching
    /// bookkeeping, sampler, paged-attention table walks).
    pub per_sequence_overhead_s: f64,
    /// HBM bytes reserved for activations, CUDA graphs and allocator slack —
    /// unavailable to weights or KV cache.
    pub activation_reserve_bytes: u64,
}

impl GpuSpec {
    /// NVIDIA H100 with 96 GB HBM3 over PCIe 5.0 — the testbed of §III-A and
    /// the per-instance GPU of the §V-A cluster simulator.
    ///
    /// Peak numbers: 989 TFLOP/s dense BF16, 3.35 TB/s HBM. Efficiency
    /// factors (45% prefill MFU, 75% decode bandwidth) follow the published
    /// ranges used by profile-based simulators.
    #[must_use]
    pub fn h100_96gb() -> Self {
        GpuSpec {
            name: "NVIDIA H100 96GB".to_owned(),
            hbm_bytes: 96_000_000_000,
            hbm_bandwidth: 3.35e12,
            dense_fp16_flops: 989.0e12,
            prefill_mfu: 0.45,
            decode_bandwidth_eff: 0.75,
            pcie_bandwidth: 50.0e9,
            iteration_overhead_s: 1.5e-3,
            per_sequence_overhead_s: 20.0e-6,
            activation_reserve_bytes: 4_000_000_000,
        }
    }

    /// NVIDIA A100 80 GB — a weaker preset for sensitivity studies.
    #[must_use]
    pub fn a100_80gb() -> Self {
        GpuSpec {
            name: "NVIDIA A100 80GB".to_owned(),
            hbm_bytes: 80_000_000_000,
            hbm_bandwidth: 2.0e12,
            dense_fp16_flops: 312.0e12,
            prefill_mfu: 0.45,
            decode_bandwidth_eff: 0.75,
            pcie_bandwidth: 25.0e9,
            iteration_overhead_s: 1.5e-3,
            per_sequence_overhead_s: 25.0e-6,
            activation_reserve_bytes: 4_000_000_000,
        }
    }

    /// Effective decode-path bandwidth in bytes/second.
    #[must_use]
    pub fn effective_bandwidth(&self) -> f64 {
        self.hbm_bandwidth * self.decode_bandwidth_eff
    }

    /// Effective prefill-path compute in FLOP/second.
    #[must_use]
    pub fn effective_flops(&self) -> f64 {
        self.dense_fp16_flops * self.prefill_mfu
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn h100_effective_rates_are_sane() {
        let gpu = GpuSpec::h100_96gb();
        assert!(gpu.effective_bandwidth() > 2.0e12);
        assert!(gpu.effective_flops() > 3.0e14);
    }

    #[test]
    fn a100_is_slower_than_h100() {
        let h = GpuSpec::h100_96gb();
        let a = GpuSpec::a100_80gb();
        assert!(a.effective_bandwidth() < h.effective_bandwidth());
        assert!(a.effective_flops() < h.effective_flops());
        assert!(a.hbm_bytes < h.hbm_bytes);
    }
}
