//! User population and job templates.
//!
//! The paper's user-level findings (Sec. 5) are driven by *who* submits
//! *what*:
//!
//! * a small fraction of users consumes most node-hours and energy
//!   (Fig. 11) — modelled with Zipf-like activity weights;
//! * jobs from the same user vary widely in power (Fig. 12) — because a
//!   user's *templates* (recurring job configurations) span different
//!   applications;
//! * clustering jobs by (user, nodes) or (user, walltime) collapses the
//!   variance (Fig. 13) — because submissions of the same template reuse
//!   the node count and requested walltime while the application (and
//!   hence power) is fixed;
//! * (user, nodes, walltime) predicts power (Figs. 14-15) — same
//!   mechanism, exploited by the ML models.
//!
//! Templates are the paper's "multiple instances of the same job tend to
//! have the same number of nodes and requested wall time" observation,
//! promoted to a generative assumption.

use hpcpower_stats::rng::{zipf_weights, AliasTable, SplitMix64};
use serde::{Deserialize, Serialize};

use crate::apps::{AppClass, Arch};

/// Broad activity class of a user, derived from activity rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UserClass {
    /// Top ~15% by activity: production campaigns, repetitive MPI jobs.
    Heavy,
    /// Next ~30%: regular users, small mixed portfolios.
    Medium,
    /// Remaining ~55%: occasional users, often serial/prep work with the
    /// odd large run — the high-CV population of Fig. 12.
    Small,
}

/// A recurring job configuration of one user.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobTemplate {
    /// Index into the application catalog.
    pub app: usize,
    /// Node count (re-used verbatim across submissions).
    pub nodes: u32,
    /// Requested wall time in minutes (re-used verbatim).
    pub walltime_req_min: u64,
    /// Median of the log-normal actual-runtime distribution, minutes.
    pub runtime_median_min: f64,
    /// Log-normal sigma of the actual runtime.
    pub runtime_sigma: f64,
    /// User/input-deck specific power multiplier (≈1).
    pub power_modifier: f64,
    /// Relative submission frequency among the user's templates.
    pub weight: f64,
}

/// One user with an activity weight and a set of templates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UserModel {
    /// Dense user index.
    pub id: u32,
    /// Activity class.
    pub class: UserClass,
    /// Relative submission rate (unnormalized).
    pub activity_weight: f64,
    /// The user's job templates (non-empty).
    pub templates: Vec<JobTemplate>,
}

/// Exact mean of `min(X, cap)` for `X ~ LogNormal(ln median, sigma)`:
/// `E = e^{mu + sigma^2/2} * Phi((ln cap - mu - sigma^2)/sigma)
///    + cap * (1 - Phi((ln cap - mu)/sigma))`.
///
/// Jobs are killed at their requested walltime, and with heavy-tailed
/// runtimes the truncation removes a large share of the mass — using the
/// untruncated mean here would overestimate the offered load by ~30% and
/// sink the realized utilization well below the Fig. 1 levels.
pub fn truncated_lognormal_mean(median: f64, sigma: f64, cap: f64) -> f64 {
    use hpcpower_stats::special::normal_cdf;
    if cap <= 0.0 {
        return 0.0;
    }
    if sigma <= 0.0 {
        return median.min(cap);
    }
    let mu = median.ln();
    let z = (cap.ln() - mu) / sigma;
    let mean = (mu + sigma * sigma / 2.0).exp();
    mean * normal_cdf(z - sigma) + cap * (1.0 - normal_cdf(z))
}

impl UserModel {
    /// Expected node-minutes per submission of this user, used to convert
    /// a target system load into an arrival rate.
    pub fn expected_node_minutes(&self) -> f64 {
        let total_w: f64 = self.templates.iter().map(|t| t.weight).sum();
        self.templates
            .iter()
            .map(|t| {
                let mean_runtime = truncated_lognormal_mean(
                    t.runtime_median_min,
                    t.runtime_sigma,
                    t.walltime_req_min as f64,
                );
                t.weight / total_w * t.nodes as f64 * mean_runtime
            })
            .sum()
    }
}

/// Knobs controlling population generation, per system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PopulationConfig {
    /// Number of users.
    pub n_users: usize,
    /// Zipf exponent of the activity-weight distribution. ~1.25 puts
    /// ~85% of node-hours in the top 20% of users (with the class-
    /// dependent job sizes compounding the skew).
    pub zipf_s: f64,
    /// Median runtime scale in minutes for a mid-power application.
    pub runtime_base_min: f64,
    /// Log-normal sigma of actual runtimes around a template's median.
    pub runtime_sigma: f64,
    /// Exponential coupling of runtime to app power fraction: Emmy's
    /// high value makes low-power apps short (Table 2: runtime↔power
    /// rho = 0.42); Meggie's low value decouples them (rho = 0.12).
    pub runtime_coupling: f64,
    /// Exponential coupling of node count to app power fraction:
    /// strong on Meggie (size↔power rho = 0.42), weak on Emmy (0.21).
    pub size_coupling: f64,
    /// Mean of the node-count distribution for mid-power MPI templates.
    pub mean_nodes: f64,
    /// Largest node count a template may use.
    pub max_nodes: u32,
    /// Probability that a Small user also owns a high-power template —
    /// the bimodality behind the per-user power CV (Fig. 12); higher on
    /// Meggie (mean CV 100%) than Emmy (50%).
    pub small_user_bimodality: f64,
    /// Sigma of the per-template power modifier.
    pub user_power_sigma: f64,
    /// Job-count weights per application (aligned with the catalog);
    /// class-conditional masks are applied on top.
    pub app_weights: Vec<f64>,
}

/// Candidate node counts; templates pick from these (powers of two and
/// common in-between sizes, like real submissions).
const NODE_CHOICES: [u32; 11] = [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64];

/// Names (by catalog index) of the low-power "filler" classes.
fn is_serial_class(catalog: &[AppClass], app: usize) -> bool {
    matches!(catalog[app].name.as_str(), "SerialFarm" | "DataPrep")
}

fn class_for_rank(rank: usize, n: usize) -> UserClass {
    let f = rank as f64 / n as f64;
    if f < 0.15 {
        UserClass::Heavy
    } else if f < 0.45 {
        UserClass::Medium
    } else {
        UserClass::Small
    }
}

/// Draws an app index for a template given the user class.
fn draw_app(
    cfg: &PopulationConfig,
    catalog: &[AppClass],
    class: UserClass,
    want_high_power: bool,
    arch: Arch,
    rng: &mut SplitMix64,
) -> usize {
    let mut weights = cfg.app_weights.clone();
    for (i, w) in weights.iter_mut().enumerate() {
        let serial = is_serial_class(catalog, i);
        let frac = catalog[i].profile(arch).mean_tdp_fraction;
        match class {
            UserClass::Heavy => {
                if serial {
                    *w = 0.0;
                }
            }
            UserClass::Medium => {
                if serial {
                    *w *= 0.5;
                }
            }
            UserClass::Small => {
                if want_high_power {
                    // Secondary "big run" template of a small user.
                    *w = if frac > 0.6 && !serial { 1.0 } else { 0.0 };
                } else if serial {
                    // DataPrep-style low-power work dominates; packed
                    // serial farms are common but less so.
                    *w *= if catalog[i].name == "DataPrep" {
                        20.0
                    } else {
                        5.0
                    };
                } else if frac > 0.6 {
                    *w *= 0.15;
                }
            }
        }
    }
    let table = AliasTable::new(&weights).expect("app weights must be valid");
    table.sample(rng)
}

/// Draws a node count whose scale follows the app's power fraction
/// through `size_coupling`.
fn draw_nodes(
    cfg: &PopulationConfig,
    catalog: &[AppClass],
    app: usize,
    arch: Arch,
    class: UserClass,
    rng: &mut SplitMix64,
) -> u32 {
    if is_serial_class(catalog, app) {
        // Packed serial jobs occupy one (rarely two) exclusive nodes.
        return if rng.next_f64() < 0.9 { 1 } else { 2 };
    }
    let frac = catalog[app].profile(arch).mean_tdp_fraction;
    let class_scale = match class {
        UserClass::Heavy => 1.4,
        UserClass::Medium => 1.0,
        UserClass::Small => 0.6,
    };
    let target = cfg.mean_nodes * class_scale * (cfg.size_coupling * (frac - 0.62)).exp();
    let target = target.clamp(1.0, cfg.max_nodes as f64);
    // Geometric-ish weights over the admissible choices.
    let weights: Vec<f64> = NODE_CHOICES
        .iter()
        .map(|&n| {
            if n > cfg.max_nodes {
                0.0
            } else {
                let r = n as f64 / target;
                (-(r.ln().powi(2)) / 0.45).exp()
            }
        })
        .collect();
    let table = AliasTable::new(&weights).expect("node weights valid");
    NODE_CHOICES[table.sample(rng)]
}

/// Generates one template for a user.
fn make_template(
    cfg: &PopulationConfig,
    catalog: &[AppClass],
    arch: Arch,
    class: UserClass,
    want_high_power: bool,
    rng: &mut SplitMix64,
) -> JobTemplate {
    let app = draw_app(cfg, catalog, class, want_high_power, arch, rng);
    let nodes = draw_nodes(cfg, catalog, app, arch, class, rng);
    let frac = catalog[app].profile(arch).mean_tdp_fraction;

    // Runtime median couples to power on Emmy, much less on Meggie.
    let coupling = (cfg.runtime_coupling * (frac - 0.62)).exp();
    let spread = rng.next_lognormal(0.0, 0.80);
    let runtime_median = (cfg.runtime_base_min * coupling * spread).clamp(10.0, 22.0 * 60.0);

    // Users request a rounded-up multiple of the expected runtime.
    let slack = [1.5, 2.0, 3.0, 4.0][rng.next_bounded(4) as usize];
    let walltime_hours = ((runtime_median * slack) / 60.0).ceil().clamp(1.0, 24.0);
    let walltime_req_min = walltime_hours as u64 * 60;

    JobTemplate {
        app,
        nodes,
        walltime_req_min,
        runtime_median_min: runtime_median.min(walltime_req_min as f64 * 0.85),
        runtime_sigma: cfg.runtime_sigma,
        power_modifier: rng.next_lognormal(
            -cfg.user_power_sigma * cfg.user_power_sigma / 2.0,
            cfg.user_power_sigma,
        ),
        weight: 0.3 + rng.next_f64(),
    }
}

/// Generates the full user population for one system.
pub fn generate_population(
    cfg: &PopulationConfig,
    catalog: &[AppClass],
    arch: Arch,
    rng: &mut SplitMix64,
) -> Vec<UserModel> {
    let activity = zipf_weights(cfg.n_users, cfg.zipf_s);
    (0..cfg.n_users)
        .map(|rank| {
            let class = class_for_rank(rank, cfg.n_users);
            let mut user_rng = rng.fork(rank as u64);
            let n_templates = match class {
                UserClass::Heavy => 2 + user_rng.next_bounded(3) as usize, // 2-4
                UserClass::Medium => 2 + user_rng.next_bounded(3) as usize, // 2-4
                UserClass::Small => 1, // one primary configuration (more below)
            };
            let mut templates: Vec<JobTemplate> = (0..n_templates)
                .map(|_| make_template(cfg, catalog, arch, class, false, &mut user_rng))
                .collect();
            if class == UserClass::Small
                && user_rng.next_f64() < (cfg.small_user_bimodality - 0.2).max(0.0)
            {
                // A second serial/prep configuration: same node count
                // (packed single-node work), different code and power.
                // These collide with the primary in the (user, nodes)
                // clustering — the loose slices of Fig. 13 — and widen
                // the user's power range (Fig. 12).
                let mut second = make_template(cfg, catalog, arch, class, false, &mut user_rng);
                second.weight = 0.8;
                templates.push(second);
            }
            if class == UserClass::Small && user_rng.next_f64() < cfg.small_user_bimodality {
                let mut big = make_template(cfg, catalog, arch, class, true, &mut user_rng);
                big.weight = 0.60; // the occasional big run
                templates.push(big);
            }
            let prep_prob = match class {
                UserClass::Heavy => 0.30,
                UserClass::Medium => 0.65,
                UserClass::Small => 0.0, // already serial-dominated
            };
            if user_rng.next_f64() < prep_prob {
                // Pre/post-processing side template: low-power serial
                // work accompanying the production runs. This is what
                // makes a "typical HPC user submit jobs with a wide range
                // of power consumption behaviors" (Fig. 12).
                let mut prep =
                    make_template(cfg, catalog, arch, UserClass::Small, false, &mut user_rng);
                prep.weight = if class == UserClass::Heavy {
                    0.30
                } else {
                    0.60
                };
                templates.push(prep);
            }
            UserModel {
                id: rank as u32,
                class,
                activity_weight: activity[rank],
                templates,
            }
        })
        .collect()
}

/// Population-wide expected node-minutes per submission (activity-
/// weighted), the quantity that converts a target utilization into an
/// arrival rate.
pub fn expected_node_minutes_per_job(users: &[UserModel]) -> f64 {
    let total_w: f64 = users.iter().map(|u| u.activity_weight).sum();
    users
        .iter()
        .map(|u| u.activity_weight / total_w * u.expected_node_minutes())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::standard_catalog;

    fn test_config() -> PopulationConfig {
        PopulationConfig {
            n_users: 100,
            zipf_s: 1.25,
            runtime_base_min: 240.0,
            runtime_sigma: 0.6,
            runtime_coupling: 4.0,
            size_coupling: 1.0,
            mean_nodes: 6.0,
            max_nodes: 64,
            small_user_bimodality: 0.5,
            user_power_sigma: 0.06,
            app_weights: vec![0.20, 0.15, 0.12, 0.10, 0.12, 0.08, 0.08, 0.01, 0.10, 0.04],
        }
    }

    #[test]
    fn population_has_requested_size_and_classes() {
        let cat = standard_catalog();
        let mut rng = SplitMix64::new(1);
        let users = generate_population(&test_config(), &cat, Arch::IvyBridge, &mut rng);
        assert_eq!(users.len(), 100);
        assert_eq!(users[0].class, UserClass::Heavy);
        assert_eq!(users[99].class, UserClass::Small);
        let heavy = users.iter().filter(|u| u.class == UserClass::Heavy).count();
        assert_eq!(heavy, 15);
        for u in &users {
            assert!(!u.templates.is_empty());
            assert!(u.activity_weight > 0.0);
        }
    }

    #[test]
    fn templates_are_physical() {
        let cat = standard_catalog();
        let cfg = test_config();
        let mut rng = SplitMix64::new(2);
        let users = generate_population(&cfg, &cat, Arch::Broadwell, &mut rng);
        for u in &users {
            for t in &u.templates {
                assert!(t.app < cat.len());
                assert!(t.nodes >= 1 && t.nodes <= cfg.max_nodes);
                assert!(t.walltime_req_min >= 60 && t.walltime_req_min <= 24 * 60);
                assert!(t.runtime_median_min > 0.0);
                assert!(
                    t.runtime_median_min <= t.walltime_req_min as f64,
                    "median {} > walltime {}",
                    t.runtime_median_min,
                    t.walltime_req_min
                );
                assert!(t.power_modifier > 0.5 && t.power_modifier < 2.0);
                assert!(t.weight > 0.0);
            }
        }
    }

    #[test]
    fn heavy_users_run_serial_work_only_as_low_weight_prep() {
        let cat = standard_catalog();
        let mut rng = SplitMix64::new(3);
        let users = generate_population(&test_config(), &cat, Arch::IvyBridge, &mut rng);
        for u in users.iter().filter(|u| u.class == UserClass::Heavy) {
            let total_w: f64 = u.templates.iter().map(|t| t.weight).sum();
            let serial_w: f64 = u
                .templates
                .iter()
                .filter(|t| is_serial_class(&cat, t.app))
                .map(|t| t.weight)
                .sum();
            assert!(
                serial_w / total_w < 0.35,
                "heavy user {} spends {:.0}% of submissions on serial work",
                u.id,
                100.0 * serial_w / total_w
            );
        }
    }

    #[test]
    fn activity_weights_are_skewed() {
        let cat = standard_catalog();
        let mut rng = SplitMix64::new(4);
        let users = generate_population(&test_config(), &cat, Arch::IvyBridge, &mut rng);
        let total: f64 = users.iter().map(|u| u.activity_weight).sum();
        let top20: f64 = users.iter().take(20).map(|u| u.activity_weight).sum();
        // Zipf 1.25 over 100 users: top 20% of *submissions* well above half.
        assert!(top20 / total > 0.55, "top-20 share {}", top20 / total);
    }

    #[test]
    fn expected_node_minutes_positive_and_finite() {
        let cat = standard_catalog();
        let mut rng = SplitMix64::new(5);
        let users = generate_population(&test_config(), &cat, Arch::IvyBridge, &mut rng);
        let e = expected_node_minutes_per_job(&users);
        assert!(e.is_finite() && e > 0.0);
        // A job should average between a node-hour and a few hundred.
        assert!(e > 60.0 && e < 50_000.0, "E[node-min] = {e}");
    }

    #[test]
    fn size_coupling_moves_node_counts() {
        let cat = standard_catalog();
        let mut low_cfg = test_config();
        low_cfg.size_coupling = 0.0;
        let mut high_cfg = test_config();
        high_cfg.size_coupling = 5.0;
        let mean_nodes_of = |cfg: &PopulationConfig, seed| {
            let mut rng = SplitMix64::new(seed);
            let users = generate_population(cfg, &cat, Arch::Broadwell, &mut rng);
            // Mean nodes of high-power (FASTEST) templates.
            let mut sum = 0.0f64;
            let mut n = 0.0f64;
            for u in &users {
                for t in &u.templates {
                    if cat[t.app].name == "FASTEST" {
                        sum += t.nodes as f64;
                        n += 1.0;
                    }
                }
            }
            sum / n.max(1.0)
        };
        let low = mean_nodes_of(&low_cfg, 10);
        let high = mean_nodes_of(&high_cfg, 10);
        assert!(
            high > low,
            "high coupling should enlarge high-power jobs: {high} !> {low}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let cat = standard_catalog();
        let cfg = test_config();
        let mut r1 = SplitMix64::new(77);
        let mut r2 = SplitMix64::new(77);
        let a = generate_population(&cfg, &cat, Arch::IvyBridge, &mut r1);
        let b = generate_population(&cfg, &cat, Arch::IvyBridge, &mut r2);
        assert_eq!(a, b);
    }
}
