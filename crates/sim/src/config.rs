use tie_quant::QFormat;
use tie_tensor::{Result, TensorError};

/// Quantization configuration of the datapath.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantConfig {
    /// Format of stored weights (tensor-core elements).
    pub weight_format: QFormat,
    /// Format of activations / intermediate `V_h` values. When
    /// `calibrate_activations` is set this is only the fallback.
    pub activation_format: QFormat,
    /// If true (default), each stage's output format is calibrated
    /// **once at load time** from float traces of a seeded probe set:
    /// `load_layer` traces [`QuantConfig::probe_count`] probe vectors
    /// through the float reference engine, memoizes the per-stage maxima
    /// on the loaded layer, and every run reuses those formats. Steady-
    /// state `run_batch` therefore performs **zero** float reference
    /// work, and batched runs are bit-identical to the same samples run
    /// one at a time. This models the per-layer fixed-point scaling pass
    /// an ASIC flow would run offline.
    pub calibrate_activations: bool,
    /// If true (default), each core's weight format is calibrated to its
    /// own max-abs at load time; otherwise `weight_format` is used as-is.
    pub calibrate_weights: bool,
    /// Probe vectors traced per layer for one-shot calibration.
    pub probe_count: usize,
    /// Seed of the deterministic probe generator (uniform ±`probe_amplitude`
    /// components; network loads propagate the probes layer to layer so
    /// deeper layers calibrate at realistic amplitudes).
    pub probe_seed: u64,
    /// Max-abs of the probe components (default 1.0, the usual normalized-
    /// activation convention). One-shot formats are chosen for inputs of
    /// this amplitude; raise it when feeding unnormalized inputs, exactly
    /// as an offline ASIC calibration would use representative data.
    pub probe_amplitude: f64,
    /// Headroom multiplier applied to probe maxima before format
    /// selection. One-shot formats must cover inputs the probes never
    /// saw, so the margin is wider than a trace of the actual inputs needs;
    /// the cost is only `log2(margin)` of the 16-bit depth (≈ 0.6 bits
    /// at the default 1.5), leaving SQNR far above the 40 dB floor.
    pub probe_margin: f64,
}

impl QuantConfig {
    /// This configuration with a different calibration headroom margin —
    /// the knob the autotuner searches and the saturation re-probe loop
    /// widens.
    ///
    /// # Panics
    ///
    /// Panics when `margin` is not positive and finite.
    #[must_use]
    pub fn with_probe_margin(self, margin: f64) -> Self {
        assert!(
            margin > 0.0 && margin.is_finite(),
            "probe margin must be positive and finite, got {margin}"
        );
        QuantConfig {
            probe_margin: margin,
            ..self
        }
    }
}

impl Default for QuantConfig {
    fn default() -> Self {
        QuantConfig {
            weight_format: QFormat::new(12).expect("12 < 16"),
            activation_format: QFormat::new(8).expect("8 < 16"),
            calibrate_activations: true,
            calibrate_weights: true,
            probe_count: 8,
            probe_seed: 0x71e5_c0de,
            probe_amplitude: 1.0,
            probe_margin: 1.5,
        }
    }
}

/// The TIE design configuration (paper Table 5).
///
/// `Default` is the fabricated prototype: 16 PEs × 16 MACs, 16-bit
/// quantization, 1000 MHz, 16 KB weight SRAM and two 384 KB working
/// SRAMs.
///
/// # Example
///
/// ```
/// use tie_sim::TieConfig;
/// let cfg = TieConfig::default();
/// assert_eq!(cfg.n_pe * cfg.n_mac, 256);
/// assert_eq!(cfg.peak_ops_per_sec(), 512e9); // 256 MACs × 2 ops × 1 GHz
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TieConfig {
    /// Processing elements (columns of the output block).
    pub n_pe: usize,
    /// MAC units per PE (rows of the output block).
    pub n_mac: usize,
    /// Clock frequency in MHz.
    pub freq_mhz: f64,
    /// Weight SRAM capacity in bytes (16 KB holds 8192 16-bit weights).
    pub weight_sram_bytes: usize,
    /// Capacity of **each** of the two working SRAMs, in bytes.
    pub working_sram_bytes: usize,
    /// Working-SRAM bank (component SRAM) count per copy; the paper
    /// partitions into groups of component SRAMs — the number of banks
    /// bounds how many scattered elements one cycle can deliver.
    pub working_sram_banks: usize,
    /// Extra cycles charged per PE-array pass (one `(row_tile, pe_tile)`
    /// block): models pipeline fill/drain that the paper's idealized
    /// Fig. 7 schedule hides. 0 (the default) reproduces the paper's
    /// steady-state accounting.
    pub pass_overhead_cycles: u64,
    /// Datapath quantization.
    pub quant: QuantConfig,
}

impl Default for TieConfig {
    fn default() -> Self {
        TieConfig {
            n_pe: 16,
            n_mac: 16,
            freq_mhz: 1000.0,
            weight_sram_bytes: 16 * 1024,
            working_sram_bytes: 384 * 1024,
            working_sram_banks: 16,
            pass_overhead_cycles: 0,
            quant: QuantConfig::default(),
        }
    }
}

impl TieConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for zero-sized resources
    /// or a bank count below the PE count (the read scheme must deliver
    /// `n_pe` elements per cycle).
    pub fn validate(&self) -> Result<()> {
        if self.n_pe == 0 || self.n_mac == 0 {
            return Err(TensorError::InvalidArgument {
                message: "PE and MAC counts must be nonzero".into(),
            });
        }
        if self.freq_mhz <= 0.0 {
            return Err(TensorError::InvalidArgument {
                message: "frequency must be positive".into(),
            });
        }
        if self.weight_sram_bytes == 0 || self.working_sram_bytes == 0 {
            return Err(TensorError::InvalidArgument {
                message: "SRAM capacities must be nonzero".into(),
            });
        }
        if self.working_sram_banks < self.n_pe {
            return Err(TensorError::InvalidArgument {
                message: format!(
                    "need at least n_pe = {} working-SRAM banks, got {}",
                    self.n_pe, self.working_sram_banks
                ),
            });
        }
        Ok(())
    }

    /// Weight SRAM capacity in 16-bit elements.
    pub fn weight_capacity_elems(&self) -> usize {
        self.weight_sram_bytes / 2
    }

    /// Per-copy working SRAM capacity in 16-bit elements.
    pub fn working_capacity_elems(&self) -> usize {
        self.working_sram_bytes / 2
    }

    /// Peak MAC throughput in ops/s (multiply + accumulate = 2 ops, the
    /// convention of the paper's TOPS numbers).
    pub fn peak_ops_per_sec(&self) -> f64 {
        (self.n_pe * self.n_mac) as f64 * 2.0 * self.freq_mhz * 1e6
    }

    /// Converts a cycle count to seconds at the configured clock.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.freq_mhz * 1e6)
    }

    /// The analytic [`tie_core::CostModel`] projection of this
    /// configuration (PE/MAC geometry + pass overhead) — the scoring hook
    /// `TieAccelerator::predict_cycles` and the deployment autotuner share.
    #[must_use]
    pub fn cost_model(&self) -> tie_core::CostModel {
        tie_core::CostModel {
            n_pe: self.n_pe,
            n_mac: self.n_mac,
            pass_overhead_cycles: self.pass_overhead_cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table5() {
        let c = TieConfig::default();
        assert_eq!(c.n_pe, 16);
        assert_eq!(c.n_mac, 16);
        assert_eq!(c.freq_mhz, 1000.0);
        assert_eq!(c.weight_capacity_elems(), 8192); // "up to 8192 16-bit weights"
        assert_eq!(c.working_capacity_elems(), 196_608); // 384 KB / 2
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_degenerate_configs() {
        let c = TieConfig {
            n_pe: 0,
            ..TieConfig::default()
        };
        assert!(c.validate().is_err());
        let c = TieConfig {
            working_sram_banks: 8,
            ..TieConfig::default()
        };
        assert!(c.validate().is_err());
        let c = TieConfig {
            freq_mhz: 0.0,
            ..TieConfig::default()
        };
        assert!(c.validate().is_err());
        let c = TieConfig {
            weight_sram_bytes: 0,
            ..TieConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn peak_ops_and_time_conversion() {
        let c = TieConfig::default();
        assert_eq!(c.peak_ops_per_sec(), 512e9);
        assert!((c.cycles_to_seconds(1000) - 1e-6).abs() < 1e-15);
    }
}
