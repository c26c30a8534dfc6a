//! Calibrated simulation presets.
//!
//! `emmy()` and `meggie()` reproduce the paper's two production clusters
//! at full scale (5 months, 560/728 nodes); the `*_small` variants keep
//! the same calibrated behaviour on a scaled-down machine and horizon so
//! tests and quick experiments run in seconds. See `DESIGN.md` §4 for the
//! calibration rationale behind each knob.

use hpcpower_trace::SystemSpec;
use serde::{Deserialize, Serialize};

use crate::apps::Arch;
use crate::faults::FaultConfig;
use crate::monitor::InstrumentConfig;
use crate::power::PowerModelConfig;
use crate::users::PopulationConfig;
use crate::workload::ArrivalConfig;

/// Five months at one-minute resolution (150 days).
pub const FIVE_MONTHS_MIN: u64 = 150 * 1440;

/// Complete configuration of one cluster simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Hardware description (Table 1).
    pub system: SystemSpec,
    /// Architecture selector for application power profiles.
    pub arch: Arch,
    /// Master seed; every derived stream is deterministic in it.
    pub seed: u64,
    /// Trace horizon in minutes.
    pub horizon_min: u64,
    /// User population knobs.
    pub population: PopulationConfig,
    /// Arrival process knobs.
    pub arrivals: ArrivalConfig,
    /// Power model knobs.
    pub power: PowerModelConfig,
    /// Instrumented-subset selection.
    pub instrument: InstrumentConfig,
    /// Worker threads for trace materialization (0 = all cores).
    /// Output is bit-identical regardless of this value.
    #[serde(default)]
    pub threads: usize,
    /// Fault-injection rates (all-zero default = clean telemetry).
    #[serde(default)]
    pub faults: FaultConfig,
}

/// Job-count application weights on Emmy (aligned with
/// [`crate::apps::standard_catalog`]): MD ~30% of cycles, chemistry ~30%,
/// CFD ~25%, others ~15%, plus packed serial work.
pub fn emmy_app_weights() -> Vec<f64> {
    vec![0.20, 0.15, 0.11, 0.10, 0.12, 0.08, 0.08, 0.01, 0.09, 0.06]
}

/// Job-count application weights on Meggie.
pub fn meggie_app_weights() -> Vec<f64> {
    vec![0.18, 0.12, 0.14, 0.10, 0.16, 0.10, 0.08, 0.005, 0.08, 0.035]
}

impl SimConfig {
    /// Full-scale Emmy: 560 Ivy Bridge nodes over 5 months, ~48k jobs.
    pub fn emmy(seed: u64) -> Self {
        let system = SystemSpec::emmy();
        Self {
            arch: Arch::IvyBridge,
            seed,
            horizon_min: FIVE_MONTHS_MIN,
            population: PopulationConfig {
                n_users: 220,
                zipf_s: 0.95,
                runtime_base_min: 300.0,
                runtime_sigma: 0.75,
                // Emmy: power couples to runtime (Table 2: rho 0.42 vs 0.21).
                runtime_coupling: 5.0,
                size_coupling: -6.0,
                mean_nodes: 4.0,
                max_nodes: 64,
                small_user_bimodality: 0.70,
                user_power_sigma: 0.16,
                app_weights: emmy_app_weights(),
            },
            arrivals: ArrivalConfig {
                offered_load: 0.87,
                diurnal_amplitude: 0.35,
                weekend_factor: 0.55,
            },
            power: PowerModelConfig {
                idle_w: system.node_idle_w,
                tdp_w: system.node_tdp_w,
                mfg_sigma: 0.020,
                common_noise_sigma: 0.015,
                node_noise_sigma: 0.015,
                flare_prob: 0.008,
                flare_amp: 0.35,
                phase_block_min: 6,
            },
            // "Over a duration of one month, several time-resolved
            // counters were also logged": month 3 of the trace.
            instrument: InstrumentConfig {
                start_min: 60 * 1440,
                end_min: 90 * 1440,
                min_nodes: 2,
                sample_budget: 6_000_000,
            },
            threads: 0,
            faults: FaultConfig::default(),
            system,
        }
    }

    /// Full-scale Meggie: 728 Broadwell nodes over 5 months, ~36k jobs.
    pub fn meggie(seed: u64) -> Self {
        let system = SystemSpec::meggie();
        Self {
            arch: Arch::Broadwell,
            seed,
            horizon_min: FIVE_MONTHS_MIN,
            population: PopulationConfig {
                n_users: 140,
                zipf_s: 1.00,
                runtime_base_min: 330.0,
                runtime_sigma: 1.00,
                // Meggie: power couples to size, not runtime
                // (Table 2: rho 0.42 vs 0.12).
                runtime_coupling: 0.8,
                size_coupling: 6.0,
                mean_nodes: 7.0,
                max_nodes: 64,
                small_user_bimodality: 0.95,
                user_power_sigma: 0.20,
                app_weights: meggie_app_weights(),
            },
            arrivals: ArrivalConfig {
                offered_load: 0.79,
                diurnal_amplitude: 0.35,
                weekend_factor: 0.60,
            },
            power: PowerModelConfig {
                idle_w: system.node_idle_w,
                tdp_w: system.node_tdp_w,
                mfg_sigma: 0.020,
                common_noise_sigma: 0.015,
                node_noise_sigma: 0.015,
                flare_prob: 0.008,
                flare_amp: 0.35,
                phase_block_min: 6,
            },
            instrument: InstrumentConfig {
                start_min: 60 * 1440,
                end_min: 90 * 1440,
                min_nodes: 2,
                sample_budget: 6_000_000,
            },
            threads: 0,
            faults: FaultConfig::default(),
            system,
        }
    }

    /// Scales a preset to a smaller machine/horizon/population while
    /// preserving its calibrated behaviour. Useful for tests and benches.
    pub fn scaled_down(mut self, nodes: u32, horizon_min: u64, users: usize) -> Self {
        self.system = self.system.scaled(nodes);
        self.horizon_min = horizon_min;
        self.population.n_users = users;
        // Shrink runtimes with the horizon (floored at 20%) so a short
        // trace still contains a statistically useful number of jobs.
        let time_scale = (horizon_min as f64 / FIVE_MONTHS_MIN as f64).clamp(0.2, 1.0);
        self.population.runtime_base_min *= time_scale;
        self.population.max_nodes = self.population.max_nodes.min(nodes / 2).max(1);
        self.population.mean_nodes = self.population.mean_nodes.min(nodes as f64 / 8.0).max(1.0);
        // Instrument the middle third of the scaled horizon.
        self.instrument.start_min = horizon_min / 3;
        self.instrument.end_min = 2 * horizon_min / 3;
        self.instrument.sample_budget = self.instrument.sample_budget.min(1_000_000);
        self
    }

    /// Small Emmy for fast tests: 48 nodes, two weeks, 40 users.
    pub fn emmy_small(seed: u64) -> Self {
        Self::emmy(seed).scaled_down(48, 14 * 1440, 40)
    }

    /// Small Meggie for fast tests: 64 nodes, two weeks, 32 users.
    pub fn meggie_small(seed: u64) -> Self {
        Self::meggie(seed).scaled_down(64, 14 * 1440, 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_consistent_with_specs() {
        for cfg in [SimConfig::emmy(1), SimConfig::meggie(1)] {
            assert_eq!(cfg.power.tdp_w, cfg.system.node_tdp_w);
            assert_eq!(cfg.power.idle_w, cfg.system.node_idle_w);
            assert_eq!(cfg.population.app_weights.len(), 10);
            let total: f64 = cfg.population.app_weights.iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "weights sum to {total}");
            assert!(cfg.population.max_nodes <= cfg.system.nodes);
        }
    }

    #[test]
    fn emmy_and_meggie_differ_where_the_paper_says() {
        let emmy = SimConfig::emmy(1);
        let meggie = SimConfig::meggie(1);
        // Coupling structure drives Table 2.
        assert!(emmy.population.runtime_coupling > meggie.population.runtime_coupling);
        assert!(meggie.population.size_coupling > emmy.population.size_coupling);
        // Meggie users are more variable (Fig. 12).
        assert!(meggie.population.small_user_bimodality > emmy.population.small_user_bimodality);
        // Emmy is the busier system (Fig. 1: 87% vs 80%).
        assert!(emmy.arrivals.offered_load > meggie.arrivals.offered_load);
    }

    #[test]
    fn scaled_down_keeps_job_sizes_feasible() {
        let small = SimConfig::emmy(3).scaled_down(16, 5000, 10);
        assert_eq!(small.system.nodes, 16);
        assert!(small.population.max_nodes <= 16);
        assert!(small.population.mean_nodes <= 2.0);
        assert!(small.instrument.start_min < small.instrument.end_min);
        assert!(small.instrument.end_min <= 5000);
    }

    #[test]
    fn serde_round_trip() {
        let cfg = SimConfig::emmy_small(5);
        let s = serde_json::to_string(&cfg).unwrap();
        let back: SimConfig = serde_json::from_str(&s).unwrap();
        assert_eq!(cfg, back);
    }
}
