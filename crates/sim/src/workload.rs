//! Job arrival process.
//!
//! Submissions form a non-homogeneous Poisson process: a base rate chosen
//! to hit the configured offered load, modulated by diurnal and weekly
//! patterns (submissions cluster in working hours; production systems
//! stay busy anyway because the queue carries the backlog — which is how
//! both clusters sustain >80% utilization, Fig. 1).

use hpcpower_stats::rng::{AliasTable, SplitMix64};
use serde::{Deserialize, Serialize};

use crate::users::UserModel;

/// One job submission, before scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobRequest {
    /// Submitting user's dense index.
    pub user: u32,
    /// Index of the template within the user's template list.
    pub template: u32,
    /// Application catalog index (denormalized from the template).
    pub app: u32,
    /// Submission minute.
    pub submit_min: u64,
    /// Node count (from the template).
    pub nodes: u32,
    /// Requested walltime in minutes (from the template).
    pub walltime_req_min: u64,
    /// Actual runtime the job will achieve if not killed, minutes.
    pub runtime_min: u64,
}

/// Arrival-process configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArrivalConfig {
    /// Target offered load as a fraction of system capacity
    /// (node-minutes offered / node-minutes available).
    pub offered_load: f64,
    /// Amplitude of the diurnal submission modulation (0 = none).
    pub diurnal_amplitude: f64,
    /// Weekend submission rate relative to weekdays.
    pub weekend_factor: f64,
}

impl Default for ArrivalConfig {
    fn default() -> Self {
        Self {
            offered_load: 0.92,
            diurnal_amplitude: 0.35,
            weekend_factor: 0.55,
        }
    }
}

/// Relative submission intensity at a given minute (mean ≈ 1 over a week).
pub fn intensity(cfg: &ArrivalConfig, minute: u64) -> f64 {
    let minute_of_day = (minute % 1440) as f64;
    // Peak at 14:00, trough at 02:00.
    let phase = (minute_of_day - 14.0 * 60.0) / 1440.0 * std::f64::consts::TAU;
    let diurnal = 1.0 + cfg.diurnal_amplitude * phase.cos();
    let day_of_week = (minute / 1440) % 7;
    let weekly = if day_of_week >= 5 {
        cfg.weekend_factor
    } else {
        1.0
    };
    diurnal * weekly
}

/// Generates all submissions over `[0, horizon_min)`.
///
/// The base rate is derived from the offered load target:
/// `rate = offered_load * nodes / E[node-minutes per job]`, then thinned
/// by the intensity profile (normalized to mean 1 over a week).
pub fn generate_arrivals(
    users: &[UserModel],
    cfg: &ArrivalConfig,
    system_nodes: u32,
    horizon_min: u64,
    rng: &mut SplitMix64,
) -> Vec<JobRequest> {
    assert!(!users.is_empty(), "need at least one user");
    let expected_nm = crate::users::expected_node_minutes_per_job(users);
    let base_rate = cfg.offered_load * system_nodes as f64 / expected_nm;

    // Normalize the intensity profile so thinning keeps the mean rate.
    let week = 7 * 1440;
    let mean_intensity: f64 = (0..week).map(|m| intensity(cfg, m)).sum::<f64>() / week as f64;
    let max_intensity = (1.0 + cfg.diurnal_amplitude) / mean_intensity;
    let rate_max = base_rate * max_intensity;

    let user_table = AliasTable::new(
        &users
            .iter()
            .map(|u| u.activity_weight)
            .collect::<Vec<f64>>(),
    )
    .expect("user weights valid");

    let mut out = Vec::new();
    let mut t = 0.0f64;
    loop {
        // Thinned Poisson: candidate events at rate_max, accepted with
        // probability intensity(t)/max.
        t += rng.next_exp(rate_max);
        if t >= horizon_min as f64 {
            break;
        }
        let minute = t as u64;
        let accept = intensity(cfg, minute) / mean_intensity / max_intensity;
        if rng.next_f64() >= accept {
            continue;
        }
        let uidx = user_table.sample(rng);
        let user = &users[uidx];
        let tw: Vec<f64> = user.templates.iter().map(|tpl| tpl.weight).collect();
        let tidx = AliasTable::new(&tw)
            .expect("template weights valid")
            .sample(rng);
        let tpl = &user.templates[tidx];
        // Actual runtime: log-normal around the template median, killed
        // at the requested walltime (mass at the cap, like real systems).
        let raw = tpl.runtime_median_min * rng.next_lognormal(0.0, tpl.runtime_sigma) / 1.0;
        let runtime = raw.round().clamp(2.0, tpl.walltime_req_min as f64) as u64;
        out.push(JobRequest {
            user: user.id,
            template: tidx as u32,
            app: tpl.app as u32,
            submit_min: minute,
            nodes: tpl.nodes,
            walltime_req_min: tpl.walltime_req_min,
            runtime_min: runtime,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::{standard_catalog, Arch};
    use crate::users::{generate_population, PopulationConfig};

    fn users() -> Vec<UserModel> {
        let cfg = PopulationConfig {
            n_users: 40,
            zipf_s: 1.25,
            runtime_base_min: 180.0,
            runtime_sigma: 0.6,
            runtime_coupling: 2.0,
            size_coupling: 1.0,
            mean_nodes: 4.0,
            max_nodes: 32,
            small_user_bimodality: 0.5,
            user_power_sigma: 0.06,
            app_weights: vec![0.20, 0.15, 0.12, 0.10, 0.12, 0.08, 0.08, 0.01, 0.10, 0.04],
        };
        let mut rng = SplitMix64::new(11);
        generate_population(&cfg, &standard_catalog(), Arch::IvyBridge, &mut rng)
    }

    #[test]
    fn arrivals_are_time_ordered_and_in_horizon() {
        let users = users();
        let mut rng = SplitMix64::new(1);
        let reqs = generate_arrivals(&users, &ArrivalConfig::default(), 64, 10_000, &mut rng);
        assert!(!reqs.is_empty());
        for pair in reqs.windows(2) {
            assert!(pair[0].submit_min <= pair[1].submit_min);
        }
        assert!(reqs.iter().all(|r| r.submit_min < 10_000));
    }

    #[test]
    fn runtimes_respect_walltime() {
        let users = users();
        let mut rng = SplitMix64::new(2);
        let reqs = generate_arrivals(&users, &ArrivalConfig::default(), 64, 20_000, &mut rng);
        for r in &reqs {
            assert!(r.runtime_min >= 2);
            assert!(r.runtime_min <= r.walltime_req_min);
        }
    }

    #[test]
    fn offered_load_close_to_target() {
        let users = users();
        let mut rng = SplitMix64::new(3);
        let horizon = 60_000u64;
        let nodes = 64u32;
        let cfg = ArrivalConfig {
            offered_load: 0.9,
            ..Default::default()
        };
        let reqs = generate_arrivals(&users, &cfg, nodes, horizon, &mut rng);
        let offered: f64 = reqs
            .iter()
            .map(|r| r.nodes as f64 * r.runtime_min as f64)
            .sum();
        let capacity = nodes as f64 * horizon as f64;
        let load = offered / capacity;
        // Thinning + runtime clamping keep it within a generous band.
        assert!(
            (0.6..=1.2).contains(&load),
            "offered load {load} far from 0.9"
        );
    }

    #[test]
    fn intensity_peaks_in_working_hours() {
        let cfg = ArrivalConfig::default();
        let day_peak = intensity(&cfg, 14 * 60); // Monday 14:00
        let night = intensity(&cfg, 2 * 60); // Monday 02:00
        assert!(day_peak > night);
        let saturday = intensity(&cfg, 5 * 1440 + 14 * 60);
        assert!(saturday < day_peak);
    }

    #[test]
    fn requests_reference_valid_templates() {
        let users = users();
        let mut rng = SplitMix64::new(4);
        let reqs = generate_arrivals(&users, &ArrivalConfig::default(), 64, 5_000, &mut rng);
        for r in &reqs {
            let u = &users[r.user as usize];
            let t = &u.templates[r.template as usize];
            assert_eq!(r.nodes, t.nodes);
            assert_eq!(r.walltime_req_min, t.walltime_req_min);
            assert_eq!(r.app as usize, t.app);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let users = users();
        let mut r1 = SplitMix64::new(5);
        let mut r2 = SplitMix64::new(5);
        let a = generate_arrivals(&users, &ArrivalConfig::default(), 64, 5_000, &mut r1);
        let b = generate_arrivals(&users, &ArrivalConfig::default(), 64, 5_000, &mut r2);
        assert_eq!(a, b);
    }
}
