//! Deterministic, seeded fault injection for simulated traces.
//!
//! Production power telemetry is never as clean as a simulator's output:
//! RAPL samples go missing (individually and in bursts), whole nodes
//! drop out of monitoring, sensors latch or glitch, clocks drift enough
//! to duplicate or reorder samples, and nodes crash mid-job. Patel et
//! al. filtered such records before analysis; this module *creates*
//! them on purpose, so the repair layer
//! ([`hpcpower_trace::repair`]) and the downstream analyses can be
//! exercised against realistically dirty data.
//!
//! ## Fault taxonomy
//!
//! | Fault | Target | Symptom |
//! |---|---|---|
//! | sample dropout | instrumented series | i.i.d. NaN samples |
//! | monitoring outage | instrumented series | NaN window on one node |
//! | stuck-at sensor | instrumented series | node row latched constant |
//! | spike/glitch | series + job summaries | values above node TDP |
//! | burst gap | system series | Markov-modulated missing minutes |
//! | sample dropout | system series | i.i.d. NaN total power |
//! | clock jitter | system series | duplicated / out-of-order samples |
//! | node crash | accounting + summary | early `end_min`, NaN energy |
//!
//! ## Determinism contract
//!
//! All randomness is drawn from [`CounterRng`] streams keyed by the run
//! seed and addressed by stable coordinates (job id, node, minute), plus
//! two short sequential [`SplitMix64`] walks over the system series.
//! Injection runs after the dataset is materialized and never touches a
//! thread pool, so the same seed yields a byte-identical faulted dataset
//! at any thread count.

use hpcpower_stats::rng::{mix_words, CounterRng, SplitMix64};
use hpcpower_trace::dataset::TraceDataset;
use serde::{Deserialize, Serialize};

/// Domain-separation tags for the per-kind fault streams.
const TAG_CRASH: u64 = 0xFA01;
const TAG_DROPOUT: u64 = 0xFA02;
const TAG_OUTAGE: u64 = 0xFA03;
const TAG_STUCK: u64 = 0xFA04;
const TAG_SPIKE: u64 = 0xFA05;
const TAG_BURST: u64 = 0xFA06;
const TAG_JITTER: u64 = 0xFA07;

/// Fault-injection rates. All-zero (the default) disables injection
/// entirely; [`FaultConfig::at_rate`] scales every kind from one knob.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Per-(node, minute) probability of an i.i.d. missing series sample.
    #[serde(default)]
    pub sample_dropout: f64,
    /// Per-minute probability of the system series entering a burst gap.
    #[serde(default)]
    pub burst_enter: f64,
    /// Per-minute probability of leaving a burst gap once inside one.
    #[serde(default)]
    pub burst_exit: f64,
    /// Per-(series, node) probability of a monitoring outage window.
    #[serde(default)]
    pub node_outage: f64,
    /// Length of an outage window in minutes.
    #[serde(default)]
    pub outage_len_min: u32,
    /// Per-(series, node) probability of a stuck-at sensor (the whole
    /// row latches to its first sample).
    #[serde(default)]
    pub stuck_prob: f64,
    /// Per-sample and per-summary probability of a glitch spike above
    /// the node TDP.
    #[serde(default)]
    pub spike_prob: f64,
    /// Spike amplitude as a fraction above TDP (0.5 ⇒ up to 1.5 × TDP).
    #[serde(default)]
    pub spike_amp: f64,
    /// Per-sample probability of clock jitter duplicating a system row.
    #[serde(default)]
    pub jitter_dup: f64,
    /// Per-sample probability of clock jitter swapping adjacent system
    /// rows (producing out-of-order minutes).
    #[serde(default)]
    pub jitter_swap: f64,
    /// Per-job probability of a node crash killing the job early (the
    /// accounting record is truncated and the energy record lost).
    #[serde(default)]
    pub crash_prob: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            sample_dropout: 0.0,
            burst_enter: 0.0,
            burst_exit: 0.25,
            node_outage: 0.0,
            outage_len_min: 10,
            stuck_prob: 0.0,
            spike_prob: 0.0,
            spike_amp: 0.5,
            jitter_dup: 0.0,
            jitter_swap: 0.0,
            crash_prob: 0.0,
        }
    }
}

impl FaultConfig {
    /// Scales every fault kind from a single overall rate `r`
    /// (e.g. 0.05 for the 5% scenario of the robustness experiment).
    pub fn at_rate(r: f64) -> Self {
        let r = r.clamp(0.0, 1.0);
        Self {
            sample_dropout: r,
            burst_enter: r / 4.0,
            burst_exit: 0.25,
            node_outage: r,
            outage_len_min: 10,
            stuck_prob: r / 4.0,
            spike_prob: r / 10.0,
            spike_amp: 0.5,
            jitter_dup: r / 2.0,
            jitter_swap: r / 2.0,
            crash_prob: r / 4.0,
        }
    }

    /// Whether any fault kind has a nonzero rate.
    pub fn is_active(&self) -> bool {
        self.sample_dropout > 0.0
            || self.burst_enter > 0.0
            || self.node_outage > 0.0
            || self.stuck_prob > 0.0
            || self.spike_prob > 0.0
            || self.jitter_dup > 0.0
            || self.jitter_swap > 0.0
            || self.crash_prob > 0.0
    }
}

/// Counts of every fault actually injected — generator-side ground
/// truth to compare against the repair layer's [`hpcpower_trace::DataQualityReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FaultSummary {
    /// i.i.d. series samples replaced by NaN.
    pub samples_dropped: u64,
    /// Series samples lost to node monitoring outages.
    pub outage_samples: u64,
    /// Node rows latched by stuck-at sensors.
    pub stuck_rows: u64,
    /// Glitch spikes injected (series samples + job summaries).
    pub spikes: u64,
    /// System-series minutes removed by burst gaps.
    pub burst_minutes: u64,
    /// System samples whose power was dropped (NaN) i.i.d.
    pub system_samples_dropped: u64,
    /// System rows duplicated by clock jitter.
    pub duplicated_rows: u64,
    /// Adjacent system rows swapped out of order by clock jitter.
    pub swapped_rows: u64,
    /// Jobs killed early by node crashes.
    pub crashes: u64,
}

impl FaultSummary {
    /// Total number of injected faults across all kinds.
    pub fn total(&self) -> u64 {
        self.samples_dropped
            + self.outage_samples
            + self.stuck_rows
            + self.spikes
            + self.burst_minutes
            + self.system_samples_dropped
            + self.duplicated_rows
            + self.swapped_rows
            + self.crashes
    }
}

/// Injects faults into a (clean) dataset in place. The result will
/// generally **fail** [`hpcpower_trace::validate::validate`] — that is
/// the point; run [`hpcpower_trace::repair::repair`] to recover.
pub fn inject_faults(d: &mut TraceDataset, cfg: &FaultConfig, seed: u64) -> FaultSummary {
    let mut sum = FaultSummary::default();
    if !cfg.is_active() {
        return sum;
    }
    let _span = hpcpower_obs::span!("simulate.faults");
    let root = CounterRng::new(mix_words(&[seed, 0xFAu64.wrapping_shl(32)]));
    let tdp = d.system.node_tdp_w;

    // Node crashes: truncate the accounting record and lose the energy
    // record (an incomplete power record, in the paper's terms).
    let crash_rng = root.derive(TAG_CRASH);
    for (job, summary) in d.jobs.iter_mut().zip(d.summaries.iter_mut()) {
        let runtime = job.runtime_min();
        if runtime < 2 {
            continue;
        }
        let id = job.id.0 as u64;
        if crash_rng.f64_at2(id, 0) < cfg.crash_prob {
            let cut = 1 + (crash_rng.f64_at2(id, 1) * (runtime - 1) as f64) as u64;
            job.end_min = job.start_min + cut;
            summary.energy_wmin = f64::NAN;
            sum.crashes += 1;
        }
    }

    // Summary glitch spikes: the averaged sensor reading lands above TDP.
    let spike_rng = root.derive(TAG_SPIKE);
    for summary in d.summaries.iter_mut() {
        let id = summary.id.0 as u64;
        if spike_rng.f64_at2(id, 0) < cfg.spike_prob {
            let u = spike_rng.f64_at2(id, 1);
            summary.per_node_power_w = tdp * (1.0 + cfg.spike_amp * (0.1 + 0.9 * u));
            sum.spikes += 1;
        }
    }

    // Per-series sensor faults.
    let dropout_rng = root.derive(TAG_DROPOUT);
    let outage_rng = root.derive(TAG_OUTAGE);
    let stuck_rng = root.derive(TAG_STUCK);
    for series in d.instrumented.iter_mut() {
        let sid = series.id.0 as u64;
        let minutes = series.minutes();
        let s_drop = dropout_rng.derive(sid);
        let s_out = outage_rng.derive(sid);
        let s_stuck = stuck_rng.derive(sid);
        let s_spike = spike_rng.derive(sid.wrapping_add(1));
        for node in 0..series.nodes() {
            // Stuck-at: latch the row to its first sample.
            if s_stuck.f64_at(node as u64) < cfg.stuck_prob {
                let row = series.node_row_mut(node);
                let latched = row[0];
                row.fill(latched);
                sum.stuck_rows += 1;
            }
            // Monitoring outage: one NaN window.
            if s_out.f64_at2(node as u64, 0) < cfg.node_outage && minutes > 1 {
                let len = cfg.outage_len_min.clamp(1, minutes);
                let max_start = minutes - len;
                let start = (s_out.f64_at2(node as u64, 1) * (max_start + 1) as f64) as u32;
                let row = series.node_row_mut(node);
                for v in row.iter_mut().skip(start as usize).take(len as usize) {
                    *v = f64::NAN;
                    sum.outage_samples += 1;
                }
            }
            // i.i.d. dropout and glitch spikes.
            for t in 0..minutes {
                let u = s_drop.f64_at2(node as u64, t as u64);
                if u < cfg.sample_dropout {
                    series.set_power(node, t, f64::NAN);
                    sum.samples_dropped += 1;
                } else if s_spike.f64_at2(node as u64, t as u64) < cfg.spike_prob {
                    let amp = s_spike.f64_at2((node as u64 + 1) << 20, t as u64);
                    series.set_power(node, t, tdp * (1.0 + cfg.spike_amp * (0.1 + 0.9 * amp)));
                    sum.spikes += 1;
                }
            }
        }
    }

    // System-series faults: a sequential Markov walk for burst gaps and
    // i.i.d. dropout, then a clock-jitter pass (duplicates + swaps).
    let mut burst_rng = SplitMix64::new(mix_words(&[seed, TAG_BURST]));
    let mut in_burst = false;
    let sys_drop = root.derive(TAG_DROPOUT).derive(u64::MAX);
    let mut kept = Vec::with_capacity(d.system_series.len());
    for s in d.system_series.drain(..) {
        if in_burst {
            if burst_rng.next_f64() < cfg.burst_exit {
                in_burst = false;
            }
        } else if burst_rng.next_f64() < cfg.burst_enter {
            in_burst = true;
        }
        if in_burst {
            sum.burst_minutes += 1;
            continue; // the monitoring system recorded nothing
        }
        let mut s = s;
        if sys_drop.f64_at(s.minute) < cfg.sample_dropout {
            s.total_power_w = f64::NAN;
            sum.system_samples_dropped += 1;
        }
        kept.push(s);
    }
    let mut jitter_rng = SplitMix64::new(mix_words(&[seed, TAG_JITTER]));
    let mut jittered = Vec::with_capacity(kept.len());
    for s in kept {
        jittered.push(s);
        if jitter_rng.next_f64() < cfg.jitter_dup {
            jittered.push(s);
            sum.duplicated_rows += 1;
        }
    }
    let mut i = 0;
    while i + 1 < jittered.len() {
        if jitter_rng.next_f64() < cfg.jitter_swap {
            jittered.swap(i, i + 1);
            sum.swapped_rows += 1;
            i += 2; // do not cascade a sample backwards
        } else {
            i += 1;
        }
    }
    d.system_series = jittered;
    d.reset_index();

    if sum.total() > 0 {
        hpcpower_obs::counter_add("faults.injected", sum.total());
        hpcpower_obs::counter_add("faults.crashes", sum.crashes);
        hpcpower_obs::counter_add(
            "faults.samples_dropped",
            sum.samples_dropped + sum.outage_samples + sum.system_samples_dropped,
        );
        hpcpower_obs::counter_add("faults.spikes", sum.spikes);
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use hpcpower_trace::repair::{repair, RepairConfig, RepairPolicy};
    use hpcpower_trace::validate::validate;

    fn clean_dataset(seed: u64) -> TraceDataset {
        crate::cluster::simulate(SimConfig::emmy_small(seed))
    }

    #[test]
    fn zero_config_is_inactive_and_identity() {
        let cfg = FaultConfig::default();
        assert!(!cfg.is_active());
        let mut d = clean_dataset(3);
        let orig = d.clone();
        let sum = inject_faults(&mut d, &cfg, 3);
        assert_eq!(sum.total(), 0);
        assert_eq!(d.jobs, orig.jobs);
        assert_eq!(d.system_series, orig.system_series);
        assert_eq!(d.instrumented, orig.instrumented);
    }

    #[test]
    fn injection_is_deterministic_in_the_seed() {
        let cfg = FaultConfig::at_rate(0.10);
        let mut a = clean_dataset(9);
        let mut b = clean_dataset(9);
        let sa = inject_faults(&mut a, &cfg, 9);
        let sb = inject_faults(&mut b, &cfg, 9);
        assert_eq!(sa, sb);
        // Injected NaNs defeat PartialEq; Debug strings compare them.
        assert_eq!(a.jobs, b.jobs);
        assert_eq!(format!("{:?}", a.summaries), format!("{:?}", b.summaries));
        assert_eq!(
            format!("{:?}", a.system_series),
            format!("{:?}", b.system_series)
        );
        assert_eq!(
            format!("{:?}", a.instrumented),
            format!("{:?}", b.instrumented)
        );
    }

    #[test]
    fn different_fault_seeds_differ() {
        let cfg = FaultConfig::at_rate(0.10);
        let mut a = clean_dataset(9);
        let mut b = clean_dataset(9);
        inject_faults(&mut a, &cfg, 1);
        inject_faults(&mut b, &cfg, 2);
        assert_ne!(
            format!("{:?}", a.system_series),
            format!("{:?}", b.system_series)
        );
    }

    #[test]
    fn faults_break_validation_and_repair_restores_it() {
        let cfg = FaultConfig::at_rate(0.10);
        let mut d = clean_dataset(5);
        let sum = inject_faults(&mut d, &cfg, 5);
        assert!(sum.total() > 0, "10% rate must inject something");
        assert!(sum.crashes > 0);
        assert!(sum.samples_dropped > 0);
        assert!(validate(&d).is_err(), "faulted dataset must be invalid");
        for policy in [
            RepairPolicy::DropJob,
            RepairPolicy::HoldLast,
            RepairPolicy::Linear,
        ] {
            let mut dirty = d.clone();
            let rep = repair(&mut dirty, &RepairConfig::with_policy(policy));
            assert_eq!(rep.violations_after, 0, "{policy}: {rep:?}");
            validate(&dirty).unwrap_or_else(|e| panic!("{policy}: {e}"));
        }
    }

    #[test]
    fn rate_scales_fault_volume() {
        let mut low = clean_dataset(7);
        let mut high = clean_dataset(7);
        let s_low = inject_faults(&mut low, &FaultConfig::at_rate(0.01), 7);
        let s_high = inject_faults(&mut high, &FaultConfig::at_rate(0.20), 7);
        assert!(
            s_high.total() > 5 * s_low.total(),
            "20% ({}) should dwarf 1% ({})",
            s_high.total(),
            s_low.total()
        );
    }
}
