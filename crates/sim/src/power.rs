//! Node-level power model.
//!
//! Produces the per-(job, node, minute) RAPL-style samples that the
//! monitoring pipeline aggregates. The model is **stateless**: every
//! sample is a pure function of the job's power parameters, the physical
//! node id, the node's rank within the job, and the minute — implemented
//! on the counter-based RNG so telemetry can be re-derived on demand and
//! evaluated in parallel.
//!
//! A sample decomposes multiplicatively:
//!
//! ```text
//! p(t, n) = base
//!         * mfg(node_id)        persistent manufacturing variability
//!         * imb(job, rank)      per-job workload imbalance across nodes
//!         * phase(job, t)       spike/dip phases + common temporal noise
//!         * (1 + node_noise)    per-node per-minute measurement noise
//! ```
//!
//! clamped to `[idle floor, node TDP]`. The manufacturing and imbalance
//! factors drive the paper's *spatial* findings (Figs. 9-10); the phase
//! term drives the *temporal* findings (Fig. 7); their magnitudes are
//! calibrated in `config.rs`.

// The salt constants spell ASCII tags; their grouping is intentional and
// part of the frozen RNG streams (changing them would re-randomize every
// calibrated trace).
#![allow(clippy::unusual_byte_groupings)]

use hpcpower_stats::rng::CounterRng;
use serde::{Deserialize, Serialize};

use crate::apps::PowerProfile;
use crate::users::JobTemplate;

/// Salts for deriving independent random streams from one job key.
const SALT_SPIKE: u64 = 0x5349_4B45;
const SALT_DIP: u64 = 0x4449_5053;
const SALT_COMMON: u64 = 0x434F_4D4D;
const SALT_NODE_NOISE: u64 = 0x4E4F_4953;
const SALT_AMP: u64 = 0x414D_5053;

/// Per-job resolved power parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobPowerParams {
    /// Deterministic key for this job's random streams.
    pub key: u64,
    /// Expected per-node power in watts (before clamping).
    pub base_w: f64,
    /// Sigma of the per-node imbalance factor.
    pub imbalance_sigma: f64,
    /// Whether this job has spike phases, and their shape.
    pub spike_frac: f64,
    /// Spike amplitude (0 disables).
    pub spike_amp: f64,
    /// Dip phase fraction.
    pub dip_frac: f64,
    /// Dip amplitude (0 disables).
    pub dip_amp: f64,
}

/// System-wide power model configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerModelConfig {
    /// Idle floor of a node (W).
    pub idle_w: f64,
    /// Node TDP (W) — hard ceiling of RAPL PKG+DRAM draw.
    pub tdp_w: f64,
    /// Sigma of the persistent per-node manufacturing factor (~4%
    /// matches the variability literature the paper cites).
    pub mfg_sigma: f64,
    /// Sigma of the common (across nodes) per-minute noise.
    pub common_noise_sigma: f64,
    /// Sigma of the independent per-node per-minute noise.
    pub node_noise_sigma: f64,
    /// Probability per (node, minute) of a transient flare — a short
    /// single-node excursion (OS jitter, imbalance transient). Flares
    /// right-skew the spatial-spread distribution, which is what keeps a
    /// job's spread above its *average* spread for only ~30% of its
    /// runtime (Fig. 9c) instead of ~50%.
    pub flare_prob: f64,
    /// Maximum relative amplitude of a flare (uniform in `[amp/2, amp]`).
    pub flare_amp: f64,
    /// Length of a temporal phase block in minutes.
    pub phase_block_min: u64,
}

impl Default for PowerModelConfig {
    fn default() -> Self {
        Self {
            idle_w: 30.0,
            tdp_w: 210.0,
            mfg_sigma: 0.020,
            common_noise_sigma: 0.015,
            node_noise_sigma: 0.015,
            flare_prob: 0.008,
            flare_amp: 0.35,
            phase_block_min: 6,
        }
    }
}

/// The stateless power model for one system.
#[derive(Debug, Clone, Copy)]
pub struct PowerModel {
    cfg: PowerModelConfig,
    /// Keyed stream for persistent node factors.
    node_stream: CounterRng,
}

impl PowerModel {
    /// Creates a model; `system_seed` fixes the persistent node factors.
    pub fn new(cfg: PowerModelConfig, system_seed: u64) -> Self {
        Self {
            cfg,
            node_stream: CounterRng::new(system_seed).derive(0x4D46_47), // "MFG"
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &PowerModelConfig {
        &self.cfg
    }

    /// Persistent manufacturing factor of a physical node (mean ~1,
    /// clamped to ±3 sigma).
    #[inline]
    pub fn node_factor(&self, node_id: u32) -> f64 {
        let z = self.node_stream.normal_at(node_id as u64).clamp(-3.0, 3.0);
        1.0 + self.cfg.mfg_sigma * z
    }

    /// Workload-imbalance factor of the `rank`-th node of a job
    /// (mean ~1, clamped to ±3 sigma).
    #[inline]
    pub fn imbalance_factor(&self, params: &JobPowerParams, rank: u32) -> f64 {
        if params.imbalance_sigma == 0.0 {
            return 1.0;
        }
        let rng = CounterRng::new(params.key).derive(0x494D_42); // "IMB"
        let z = rng.normal_at(rank as u64).clamp(-3.0, 3.0);
        1.0 + params.imbalance_sigma * z
    }

    /// Phase factor (spikes/dips) for a minute, excluding common noise.
    #[inline]
    pub fn phase_factor(&self, params: &JobPowerParams, minute: u64) -> f64 {
        let block = minute / self.cfg.phase_block_min;
        let key = CounterRng::new(params.key);
        if params.dip_amp > 0.0 && key.f64_at2(SALT_DIP, block) < params.dip_frac {
            // Dip phase: amplitude jittered per block.
            let jitter = 0.75 + 0.5 * key.f64_at2(SALT_AMP ^ SALT_DIP, block);
            return 1.0 - params.dip_amp * jitter;
        }
        if params.spike_amp > 0.0 && key.f64_at2(SALT_SPIKE, block) < params.spike_frac {
            let jitter = 0.75 + 0.5 * key.f64_at2(SALT_AMP ^ SALT_SPIKE, block);
            return 1.0 + params.spike_amp * jitter;
        }
        1.0
    }

    /// Common (node-independent) temporal factor: phase * (1 + noise).
    #[inline]
    pub fn temporal_factor(&self, params: &JobPowerParams, minute: u64) -> f64 {
        let key = CounterRng::new(params.key);
        let noise =
            key.normal_at2(SALT_COMMON, minute).clamp(-4.0, 4.0) * self.cfg.common_noise_sigma;
        self.phase_factor(params, minute) * (1.0 + noise)
    }

    /// Per-(job, rank) invariant prefactor of [`Self::sample`]:
    /// `base * mfg(node_id) * imb(rank)`. Hoisting it out of the minute
    /// loop preserves bit-identity because `sample` multiplies
    /// left-associatively — the first three factors group as
    /// `((base * mfg) * imb)` with or without the hoist.
    #[inline]
    pub fn rank_prefactor(&self, params: &JobPowerParams, node_id: u32, rank: u32) -> f64 {
        params.base_w * self.node_factor(node_id) * self.imbalance_factor(params, rank)
    }

    /// Fills `out[t] = temporal_factor(params, t)` for `t` in
    /// `0..out.len()`, one stride-filled Gaussian draw per minute plus one
    /// phase evaluation per phase block (job minutes start at 0, so block
    /// boundaries land on multiples of `phase_block_min`).
    pub fn fill_temporal_factors(&self, params: &JobPowerParams, out: &mut [f64]) {
        let key = CounterRng::new(params.key);
        // Pre-mixed lane: `normal_at(lane ^ t)` == `normal_at2(SALT_COMMON, t)`.
        let lane = SALT_COMMON.wrapping_mul(0xD134_2543_DE82_EF95);
        let sigma = self.cfg.common_noise_sigma;
        let block_len = self.cfg.phase_block_min as usize;
        let mut start = 0usize;
        while start < out.len() {
            let phase = self.phase_factor(params, start as u64);
            let end = (start + block_len).min(out.len());
            for (t, v) in out[start..end].iter_mut().enumerate() {
                // Same grouping as `temporal_factor`: phase * (1 + noise),
                // drawn and scaled in one fused pass per phase block.
                let noise = key.normal_at(lane ^ (start + t) as u64).clamp(-4.0, 4.0);
                *v = phase * (1.0 + noise * sigma);
            }
            start = end;
        }
    }

    /// Fills `out[t] = sample(params, node_id, rank, t)` for one rank,
    /// given the precomputed [`Self::rank_prefactor`] `pre` and the
    /// job's temporal-factor column `tf`. One fused stride over the
    /// minute axis: the rank's noise lanes are pre-mixed once, and each
    /// iteration draws noise, applies the flare, and clamps in registers
    /// — no per-sample keyed-call setup and no intermediate buffers.
    pub fn fill_power_row(
        &self,
        params: &JobPowerParams,
        rank: u32,
        pre: f64,
        tf: &[f64],
        out: &mut [f64],
    ) {
        debug_assert_eq!(tf.len(), out.len());
        let key = CounterRng::new(params.key);
        let lane = SALT_NODE_NOISE ^ ((rank as u64) << 32);
        // Pre-mixed 2-D lanes: `normal_at2(lane, t)` == `normal_at(nlane ^ t)`
        // and `f64_at2(lane ^ 0xF1A5, t)` == `f64_at(ulane ^ t)`.
        let nlane = lane.wrapping_mul(0xD134_2543_DE82_EF95);
        let ulane = (lane ^ 0xF1A5).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let flares = self.cfg.flare_prob > 0.0;
        let sigma = self.cfg.node_noise_sigma;
        let flare_prob = self.cfg.flare_prob;
        let flare_amp = self.cfg.flare_amp;
        let idle = self.cfg.idle_w;
        let tdp = self.cfg.tdp_w;
        // `f64_at` yields `k * 2^-53` with `k` the top 53 bits, which is
        // exact, so `u < flare_prob` is equivalent to the integer test
        // `k < ceil(flare_prob * 2^53)` — the conversion to f64 is then
        // only paid on the ~1% of samples whose flare actually fires.
        let flare_bits = (flare_prob * (1u64 << 53) as f64).ceil() as u64;
        let m = out.len();
        let mut t = 0usize;
        // Two independent sample chains per iteration: the Box-Muller
        // draws of minute t and t+1 share no data, so their libm calls
        // can overlap in the out-of-order window.
        while t + 1 < m {
            let (t0, t1) = (t as u64, (t + 1) as u64);
            let n0 = key.normal_at(nlane ^ t0).clamp(-4.0, 4.0) * sigma;
            let n1 = key.normal_at(nlane ^ t1).clamp(-4.0, 4.0) * sigma;
            let mut nn0 = n0;
            let mut nn1 = n1;
            if flares {
                let k0 = key.u64_at(ulane ^ t0) >> 11;
                let k1 = key.u64_at(ulane ^ t1) >> 11;
                if k0 < flare_bits {
                    let u = k0 as f64 * (1.0 / (1u64 << 53) as f64);
                    nn0 += flare_amp * (0.5 + 0.5 * (u / flare_prob));
                }
                if k1 < flare_bits {
                    let u = k1 as f64 * (1.0 / (1u64 << 53) as f64);
                    nn1 += flare_amp * (0.5 + 0.5 * (u / flare_prob));
                }
            }
            out[t] = (pre * tf[t] * (1.0 + nn0)).clamp(idle, tdp);
            out[t + 1] = (pre * tf[t + 1] * (1.0 + nn1)).clamp(idle, tdp);
            t += 2;
        }
        if t < m {
            let tu = t as u64;
            let mut node_noise = key.normal_at(nlane ^ tu).clamp(-4.0, 4.0) * sigma;
            if flares {
                let k = key.u64_at(ulane ^ tu) >> 11;
                if k < flare_bits {
                    let u = k as f64 * (1.0 / (1u64 << 53) as f64);
                    node_noise += flare_amp * (0.5 + 0.5 * (u / flare_prob));
                }
            }
            out[t] = (pre * tf[t] * (1.0 + node_noise)).clamp(idle, tdp);
        }
    }

    /// One RAPL-style sample: power of the `rank`-th node (physical id
    /// `node_id`) of a job at `minute` (minutes since *job start*).
    #[inline]
    pub fn sample(&self, params: &JobPowerParams, node_id: u32, rank: u32, minute: u64) -> f64 {
        let key = CounterRng::new(params.key);
        let lane = SALT_NODE_NOISE ^ ((rank as u64) << 32);
        let mut node_noise =
            key.normal_at2(lane, minute).clamp(-4.0, 4.0) * self.cfg.node_noise_sigma;
        // Transient single-node flare.
        if self.cfg.flare_prob > 0.0 {
            let u = key.f64_at2(lane ^ 0xF1A5, minute);
            if u < self.cfg.flare_prob {
                // Re-use the uniform for the amplitude draw.
                node_noise += self.cfg.flare_amp * (0.5 + 0.5 * (u / self.cfg.flare_prob));
            }
        }
        let p = params.base_w
            * self.node_factor(node_id)
            * self.imbalance_factor(params, rank)
            * self.temporal_factor(params, minute)
            * (1.0 + node_noise);
        p.clamp(self.cfg.idle_w, self.cfg.tdp_w)
    }
}

/// Resolves a job's power parameters from its application profile and
/// template, deterministically from the job's key.
pub fn resolve_job_params(
    profile: &PowerProfile,
    template: &JobTemplate,
    tdp_w: f64,
    job_key: u64,
) -> JobPowerParams {
    let rng = CounterRng::new(job_key).derive(0x5041_52); // "PAR"
                                                          // Mean-corrected log-normal jitter on the base power.
    let sigma = profile.job_jitter_sigma;
    let jitter = (rng.normal_at(0).clamp(-3.0, 3.0) * sigma - sigma * sigma / 2.0).exp();
    let base_w = tdp_w * profile.mean_tdp_fraction * template.power_modifier * jitter;

    let has_spikes = rng.f64_at(1) < profile.burst.spike_prob;
    let has_dips = rng.f64_at(2) < profile.burst.dip_prob;
    // Per-job jitter of the phase fractions (0.5x - 1.5x).
    let spike_frac = if has_spikes {
        profile.burst.spike_frac * (0.5 + rng.f64_at(3))
    } else {
        0.0
    };
    let spike_amp = if has_spikes {
        profile.burst.spike_amp
    } else {
        0.0
    };
    let dip_frac = if has_dips {
        profile.burst.dip_frac * (0.5 + rng.f64_at(4))
    } else {
        0.0
    };
    let dip_amp = if has_dips { profile.burst.dip_amp } else { 0.0 };
    // Normalize the base so the job's *realized mean* power equals
    // base_w regardless of its phase structure: E[phase] = 1 +
    // spike_frac*spike_amp - dip_frac*dip_amp (block amplitude jitter is
    // mean-one). Without this, whether a job happened to have dips would
    // shift its mean power by several percent, destroying the
    // within-template predictability the paper measures (Figs. 13-15).
    let expected_phase = 1.0 + spike_frac * spike_amp - dip_frac * dip_amp;
    JobPowerParams {
        key: job_key,
        base_w: base_w / expected_phase,
        imbalance_sigma: profile.imbalance_sigma,
        spike_frac,
        spike_amp,
        dip_frac,
        dip_amp,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::BurstProfile;

    fn params(base: f64) -> JobPowerParams {
        JobPowerParams {
            key: 1234,
            base_w: base,
            imbalance_sigma: 0.05,
            spike_frac: 0.2,
            spike_amp: 0.15,
            dip_frac: 0.1,
            dip_amp: 0.2,
        }
    }

    fn model() -> PowerModel {
        PowerModel::new(PowerModelConfig::default(), 99)
    }

    #[test]
    fn samples_within_physical_bounds() {
        let m = model();
        let p = params(150.0);
        for node in 0..8u32 {
            for t in 0..500u64 {
                let w = m.sample(&p, node * 13, node, t);
                assert!(w >= m.config().idle_w && w <= m.config().tdp_w);
            }
        }
    }

    #[test]
    fn samples_are_deterministic() {
        let m = model();
        let p = params(140.0);
        let a = m.sample(&p, 5, 2, 100);
        let b = m.sample(&p, 5, 2, 100);
        assert_eq!(a, b);
    }

    #[test]
    fn columnar_fills_match_scalar_samples_bitwise() {
        // The columnar kernel must be a pure re-grouping of `sample`:
        // every filled value bit-identical to the scalar path, across
        // burst shapes, flare settings, and row lengths that are not
        // multiples of the phase block.
        let no_flare = PowerModelConfig {
            flare_prob: 0.0,
            ..Default::default()
        };
        let cfgs = [PowerModelConfig::default(), no_flare];
        for cfg in cfgs {
            for (key, imb) in [(1234u64, 0.05), (987_654_321, 0.0), (42, 0.08)] {
                let m = PowerModel::new(cfg, 99);
                let mut p = params(150.0);
                p.key = key;
                p.imbalance_sigma = imb;
                for minutes in [1usize, 5, 97, 360] {
                    let mut tf = vec![0.0; minutes];
                    m.fill_temporal_factors(&p, &mut tf);
                    for (t, &v) in tf.iter().enumerate() {
                        assert_eq!(v, m.temporal_factor(&p, t as u64), "tf at {t}");
                    }
                    let mut row = vec![0.0; minutes];
                    for (node_id, rank) in [(0u32, 0u32), (17, 3), (1000, 31)] {
                        let pre = m.rank_prefactor(&p, node_id, rank);
                        m.fill_power_row(&p, rank, pre, &tf, &mut row);
                        for (t, &w) in row.iter().enumerate() {
                            assert_eq!(
                                w,
                                m.sample(&p, node_id, rank, t as u64),
                                "key={key} rank={rank} t={t}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn node_factors_persist_and_spread() {
        let m = model();
        // Same node -> same factor forever.
        assert_eq!(m.node_factor(17), m.node_factor(17));
        // Factors average ~1 with ~mfg_sigma spread.
        let n = 2000;
        let mean: f64 = (0..n).map(|i| m.node_factor(i)).sum::<f64>() / n as f64;
        let var: f64 = (0..n)
            .map(|i| (m.node_factor(i) - mean).powi(2))
            .sum::<f64>()
            / n as f64;
        let sigma = m.config().mfg_sigma;
        assert!((mean - 1.0).abs() < 0.01, "mean {mean}");
        assert!(
            (var.sqrt() - sigma).abs() < sigma * 0.3,
            "sigma {}",
            var.sqrt()
        );
    }

    #[test]
    fn mean_power_tracks_base() {
        let m = model();
        let mut p = params(150.0);
        p.spike_amp = 0.0;
        p.dip_amp = 0.0;
        let n_nodes = 16u32;
        let minutes = 600u64;
        let mut sum = 0.0;
        for rank in 0..n_nodes {
            for t in 0..minutes {
                sum += m.sample(&p, rank, rank, t);
            }
        }
        let mean = sum / (n_nodes as f64 * minutes as f64);
        assert!(
            (mean - 150.0).abs() < 6.0,
            "mean {mean} should track base 150"
        );
    }

    #[test]
    fn spikes_raise_power_in_blocks() {
        let m = model();
        let mut p = params(150.0);
        p.spike_frac = 0.5;
        p.spike_amp = 0.3;
        p.dip_amp = 0.0;
        // Count blocks that are elevated.
        let mut high_blocks = 0;
        let blocks = 200u64;
        for b in 0..blocks {
            let f = m.phase_factor(&p, b * m.config().phase_block_min);
            assert!(f >= 1.0);
            if f > 1.1 {
                high_blocks += 1;
            }
        }
        let frac = high_blocks as f64 / blocks as f64;
        assert!((frac - 0.5).abs() < 0.15, "spike block fraction {frac}");
    }

    #[test]
    fn phase_factor_constant_within_block() {
        let m = model();
        let p = params(150.0);
        let block = m.config().phase_block_min;
        for b in 0..50u64 {
            let f0 = m.phase_factor(&p, b * block);
            for off in 1..block {
                assert_eq!(f0, m.phase_factor(&p, b * block + off));
            }
        }
    }

    #[test]
    fn imbalance_zero_sigma_is_unity() {
        let m = model();
        let mut p = params(100.0);
        p.imbalance_sigma = 0.0;
        for rank in 0..10 {
            assert_eq!(m.imbalance_factor(&p, rank), 1.0);
        }
    }

    #[test]
    fn resolve_params_is_mean_correct() {
        // Across many jobs, resolved base should average to
        // tdp * fraction * modifier.
        let profile = PowerProfile {
            mean_tdp_fraction: 0.7,
            job_jitter_sigma: 0.1,
            imbalance_sigma: 0.04,
            burst: BurstProfile::flat(),
        };
        let template = JobTemplate {
            app: 0,
            nodes: 4,
            walltime_req_min: 240,
            runtime_median_min: 120.0,
            runtime_sigma: 0.5,
            power_modifier: 1.05,
            weight: 1.0,
        };
        let n = 20_000;
        // base_w is phase-normalized; the *realized mean* (base times the
        // expected phase factor) must track tdp * fraction * modifier.
        let mean: f64 = (0..n)
            .map(|i| {
                let p = resolve_job_params(&profile, &template, 210.0, i as u64 * 7919);
                let expected_phase = 1.0 + p.spike_frac * p.spike_amp - p.dip_frac * p.dip_amp;
                p.base_w * expected_phase
            })
            .sum::<f64>()
            / n as f64;
        let expected = 210.0 * 0.7 * 1.05;
        assert!(
            (mean - expected).abs() < expected * 0.02,
            "mean realized power {mean} vs expected {expected}"
        );
    }

    #[test]
    fn resolve_params_burst_flags_follow_probabilities() {
        let profile = PowerProfile {
            mean_tdp_fraction: 0.7,
            job_jitter_sigma: 0.05,
            imbalance_sigma: 0.04,
            burst: BurstProfile {
                spike_prob: 0.3,
                spike_frac: 0.2,
                spike_amp: 0.15,
                dip_prob: 0.6,
                dip_frac: 0.1,
                dip_amp: 0.2,
            },
        };
        let template = JobTemplate {
            app: 0,
            nodes: 1,
            walltime_req_min: 60,
            runtime_median_min: 30.0,
            runtime_sigma: 0.5,
            power_modifier: 1.0,
            weight: 1.0,
        };
        let n = 10_000;
        let spiky = (0..n)
            .filter(|&i| {
                resolve_job_params(&profile, &template, 210.0, i as u64 * 104729).spike_amp > 0.0
            })
            .count() as f64
            / n as f64;
        let dippy = (0..n)
            .filter(|&i| {
                resolve_job_params(&profile, &template, 210.0, i as u64 * 104729).dip_amp > 0.0
            })
            .count() as f64
            / n as f64;
        assert!((spiky - 0.3).abs() < 0.05, "spiky fraction {spiky}");
        assert!((dippy - 0.6).abs() < 0.05, "dippy fraction {dippy}");
    }
}
