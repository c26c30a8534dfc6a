//! End-to-end cluster simulation: population → arrivals → scheduling →
//! power telemetry → [`TraceDataset`].

use hpcpower_stats::rng::{mix_words, SplitMix64};
use hpcpower_trace::dataset::TraceDataset;
use hpcpower_trace::{AppId, JobId, JobRecord, UserId};
use rayon::prelude::*;

use crate::apps::{standard_catalog, AppClass};
use crate::config::SimConfig;
use crate::faults::{inject_faults, FaultSummary};
use crate::monitor::{monitor, select_instrumented, MonitorOutput};
use crate::pool::with_threads;
use crate::power::{resolve_job_params, JobPowerParams, PowerModel};
use crate::scheduler::{schedule, ScheduledJob};
use crate::users::{generate_population, UserModel};
use crate::workload::generate_arrivals;

/// A configured cluster simulation.
#[derive(Debug, Clone)]
pub struct ClusterSim {
    cfg: SimConfig,
    catalog: Vec<AppClass>,
}

/// Everything a simulation run produces: the published dataset plus the
/// generator-side ground truth (useful for ablations and debugging, never
/// consumed by the analyses).
#[derive(Debug, Clone)]
pub struct SimOutput {
    /// The trace dataset, as the paper's Zenodo release would contain.
    pub dataset: TraceDataset,
    /// The generated user population (ground truth).
    pub users: Vec<UserModel>,
    /// Per-job resolved power parameters (ground truth), aligned with
    /// `dataset.jobs`.
    pub job_params: Vec<JobPowerParams>,
    /// Requests that could never be placed (larger than the machine).
    pub rejected_jobs: usize,
    /// Counts of injected faults (`None` when fault injection is off).
    pub faults: Option<FaultSummary>,
}

impl ClusterSim {
    /// Creates a simulation with the standard application catalog.
    pub fn new(cfg: SimConfig) -> Self {
        assert_eq!(
            cfg.power.tdp_w, cfg.system.node_tdp_w,
            "power model TDP must match the system spec"
        );
        Self {
            cfg,
            catalog: standard_catalog(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The application catalog in use.
    pub fn catalog(&self) -> &[AppClass] {
        &self.catalog
    }

    /// Runs the full pipeline and returns the dataset plus ground truth.
    ///
    /// Trace materialization (per-job power parameters and the monitor)
    /// fans out over a rayon pool sized by `cfg.threads` (0 = all
    /// cores); the dataset is bit-identical for any thread count.
    pub fn run(&self) -> SimOutput {
        with_threads(self.cfg.threads, || self.run_inner())
    }

    fn run_inner(&self) -> SimOutput {
        let _run_span = hpcpower_obs::span!("simulate");
        let prep = self.prepare();
        let cfg = &self.cfg;
        let out = hpcpower_obs::time("simulate.monitor", || {
            monitor(
                &prep.model,
                &prep.placed,
                &prep.job_params,
                cfg.horizon_min,
                &prep.flags,
            )
        });
        self.finish(prep, out)
    }

    /// Everything up to (but excluding) telemetry materialization:
    /// population → arrivals → schedule → per-job power parameters →
    /// instrumented-subset selection. Pure function of the config, and
    /// cheap relative to [`monitor`] — which is why the checkpoint
    /// layer (`crate::checkpoint`) re-runs it on `--resume` instead of
    /// persisting it, then skips straight to the uncommitted chunks.
    pub(crate) fn prepare(&self) -> PreparedRun {
        let cfg = &self.cfg;
        let mut rng = SplitMix64::new(cfg.seed);
        let mut pop_rng = rng.fork(1);
        let mut arrival_rng = rng.fork(2);
        let job_key_base = rng.fork(3).next_u64();

        let users = hpcpower_obs::time("simulate.population", || {
            generate_population(&cfg.population, &self.catalog, cfg.arch, &mut pop_rng)
        });
        let requests = hpcpower_obs::time("simulate.arrivals", || {
            generate_arrivals(
                &users,
                &cfg.arrivals,
                cfg.system.nodes,
                cfg.horizon_min,
                &mut arrival_rng,
            )
        });
        let outcome = hpcpower_obs::time("simulate.schedule", || {
            schedule(&requests, cfg.system.nodes)
        });

        // Keep jobs that started within the horizon (the trace window);
        // late queue drain belongs to the next accounting period.
        let mut placed: Vec<ScheduledJob> = outcome
            .jobs
            .into_iter()
            .filter(|j| j.start_min < cfg.horizon_min)
            .collect();
        placed.sort_by_key(|j| (j.start_min, j.request_idx));

        // Resolve per-job power parameters in parallel: each job's key
        // mixes only the run seed and its *request* index, so the result
        // depends neither on scheduling order nor on which worker
        // resolves it.
        let params_span = hpcpower_obs::span!("simulate.params");
        let params_start = std::time::Instant::now();
        let job_params: Vec<JobPowerParams> = placed
            .par_iter()
            .map(|j| {
                let user = &users[j.request.user as usize];
                let template = &user.templates[j.request.template as usize];
                let profile = self.catalog[j.request.app as usize].profile(cfg.arch);
                let key = mix_words(&[job_key_base, j.request_idx as u64]);
                resolve_job_params(profile, template, cfg.system.node_tdp_w, key)
            })
            .collect();
        if hpcpower_obs::enabled() {
            let secs = params_start.elapsed().as_secs_f64();
            if secs > 0.0 {
                hpcpower_obs::gauge_set("sim.materialize.jobs_per_s", placed.len() as f64 / secs);
            }
            hpcpower_obs::counter_add("sim.jobs.placed", placed.len() as u64);
            hpcpower_obs::counter_add("sim.jobs.rejected", outcome.rejected.len() as u64);
        }
        drop(params_span);

        let model = PowerModel::new(cfg.power, cfg.seed);
        let eligible: Vec<bool> = self.catalog.iter().map(|a| a.major).collect();
        let flags = select_instrumented(&placed, &eligible, &cfg.instrument);
        PreparedRun {
            users,
            placed,
            job_params,
            flags,
            rejected: outcome.rejected.len(),
            model,
        }
    }

    /// Turns a prepared run plus its monitor output into the final
    /// [`SimOutput`]: builds the dataset and (serially) injects faults.
    /// Shared by the monolithic path and the checkpoint finalizer, so
    /// both produce the dataset through identical code.
    pub(crate) fn finish(&self, prep: PreparedRun, out: MonitorOutput) -> SimOutput {
        let cfg = &self.cfg;
        let PreparedRun {
            users,
            placed,
            job_params,
            rejected,
            ..
        } = prep;
        let jobs: Vec<JobRecord> = placed
            .iter()
            .enumerate()
            .map(|(i, j)| JobRecord {
                id: JobId::from_index(i),
                user: UserId(j.request.user),
                app: AppId(j.request.app),
                submit_min: j.request.submit_min,
                start_min: j.start_min,
                end_min: j.end_min,
                nodes: j.request.nodes,
                walltime_req_min: j.request.walltime_req_min,
            })
            .collect();

        let mut dataset = TraceDataset {
            system: cfg.system.clone(),
            jobs,
            summaries: out.summaries,
            system_series: out.system_series,
            instrumented: out.instrumented,
            app_names: self.catalog.iter().map(|a| a.name.clone()).collect(),
            user_count: cfg.population.n_users as u32,
            index: Default::default(),
        };
        // Fault injection runs serially on the finished dataset, so it
        // preserves the any-thread-count determinism of the pipeline.
        let faults = cfg
            .faults
            .is_active()
            .then(|| inject_faults(&mut dataset, &cfg.faults, cfg.seed));
        SimOutput {
            dataset,
            users,
            job_params,
            rejected_jobs: rejected,
            faults,
        }
    }
}

/// The deterministic front half of a run (see [`ClusterSim::prepare`]):
/// placed jobs in fold order, their resolved power parameters and
/// instrumentation flags, and the power model — everything
/// [`monitor`] (or the checkpoint layer's chunked equivalent) needs.
pub(crate) struct PreparedRun {
    pub(crate) users: Vec<UserModel>,
    pub(crate) placed: Vec<ScheduledJob>,
    pub(crate) job_params: Vec<JobPowerParams>,
    pub(crate) flags: Vec<bool>,
    pub(crate) rejected: usize,
    pub(crate) model: PowerModel,
}

/// Convenience: run a preset and return just the dataset.
pub fn simulate(cfg: SimConfig) -> TraceDataset {
    ClusterSim::new(cfg).run().dataset
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcpower_trace::validate::validate;

    #[test]
    fn small_emmy_produces_valid_dataset() {
        let out = ClusterSim::new(SimConfig::emmy_small(42)).run();
        let d = &out.dataset;
        assert!(
            d.len() > 200,
            "expected a few hundred jobs, got {}",
            d.len()
        );
        validate(d).expect("dataset must satisfy all invariants");
        assert_eq!(out.job_params.len(), d.len());
        assert_eq!(out.rejected_jobs, 0);
        assert!(!d.instrumented.is_empty(), "instrumented subset expected");
    }

    #[test]
    fn small_meggie_produces_valid_dataset() {
        let d = simulate(SimConfig::meggie_small(7));
        assert!(d.len() > 200);
        validate(&d).expect("valid dataset");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = simulate(SimConfig::emmy_small(5));
        let b = simulate(SimConfig::emmy_small(5));
        assert_eq!(a.jobs, b.jobs);
        assert_eq!(a.summaries, b.summaries);
        assert_eq!(a.system_series, b.system_series);
    }

    #[test]
    fn different_seeds_differ() {
        let a = simulate(SimConfig::emmy_small(1));
        let b = simulate(SimConfig::emmy_small(2));
        assert_ne!(a.jobs.len(), 0);
        assert!(a.jobs != b.jobs, "different seeds should differ");
    }

    #[test]
    fn utilization_is_production_grade() {
        let d = simulate(SimConfig::emmy_small(11));
        // Skip the cold-start ramp: measure the second half.
        let half = d.system_series.len() / 2;
        let util: f64 = d.system_series[half..]
            .iter()
            .map(|s| s.active_nodes as f64 / d.system.nodes as f64)
            .sum::<f64>()
            / (d.system_series.len() - half) as f64;
        assert!(util > 0.6, "steady-state utilization {util} too low");
        assert!(util <= 1.0);
    }

    #[test]
    fn power_stays_below_provisioned_envelope() {
        let d = simulate(SimConfig::emmy_small(13));
        let max_power = d.system.max_system_power_w();
        for s in &d.system_series {
            assert!(s.total_power_w <= max_power);
        }
        // Stranded power exists: the system never draws its full budget.
        let peak = d
            .system_series
            .iter()
            .map(|s| s.total_power_w)
            .fold(0.0, f64::max);
        assert!(
            peak < 0.95 * max_power,
            "peak {peak} too close to the TDP envelope {max_power}"
        );
    }
}
