//! The paper's evaluation protocol (Sec. 5).
//!
//! "We divide our dataset into training and validation data. Training
//! data consists of 80% of randomly selected jobs ... we repeat this
//! process ten times ... We train and validate our models using all ten
//! sets and report the average. We ensure that the training data contains
//! jobs from all the users which are present in the validation data."
//!
//! [`evaluate`] runs that protocol for any trainer and pools the
//! per-prediction absolute percentage errors (Fig. 14) and per-user mean
//! errors (Fig. 15) across the ten splits. Splits run in parallel.
//!
//! Users resubmit the same jobs, so a split's validation rows repeat a
//! few hundred distinct `(user, nodes, walltime)` triples. Each split
//! asks its model once per distinct triple and reuses the answer for
//! the rows that repeat it.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use rayon::prelude::*;

use crate::data::Dataset;
use crate::metrics::abs_pct_error;
use crate::{Regressor, Result};

/// Evaluation-protocol parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalConfig {
    /// Number of random splits (the paper uses 10).
    pub n_splits: usize,
    /// Validation fraction (the paper uses 0.2).
    pub validation_fraction: f64,
    /// Base seed; split `i` uses `seed + i`.
    pub seed: u64,
}

impl Default for EvalConfig {
    fn default() -> Self {
        Self {
            n_splits: 10,
            validation_fraction: 0.2,
            seed: 0x5EED_E7A1,
        }
    }
}

/// Pooled evaluation results across all splits.
#[derive(Debug, Clone)]
pub struct EvalReport {
    /// Absolute percentage error of every validation prediction, pooled
    /// over all splits (the Fig. 14 CDF input).
    pub errors: Vec<f64>,
    /// Mean absolute percentage error per user, averaged over splits in
    /// which the user had validation jobs (the Fig. 15 CDF input).
    pub per_user_mean_error: Vec<(u32, f64)>,
}

impl EvalReport {
    /// Mean absolute percentage error over all pooled predictions.
    pub fn mape(&self) -> f64 {
        self.errors.iter().sum::<f64>() / self.errors.len() as f64
    }

    /// Fraction of pooled predictions with error below `threshold`.
    pub fn fraction_below(&self, threshold: f64) -> f64 {
        crate::metrics::fraction_below(&self.errors, threshold)
    }

    /// Fraction of users whose mean error is below `threshold`.
    pub fn user_fraction_below(&self, threshold: f64) -> f64 {
        if self.per_user_mean_error.is_empty() {
            return f64::NAN;
        }
        self.per_user_mean_error
            .iter()
            .filter(|(_, e)| *e < threshold)
            .count() as f64
            / self.per_user_mean_error.len() as f64
    }
}

/// Runs the repeated-random-split protocol with a model trainer.
///
/// `train` receives the training subset and returns a fitted model; it
/// may fail (e.g. degenerate split), in which case that split is skipped
/// — the report notes how many splits succeeded via the error count.
///
/// Within a split the model is asked once per distinct validation
/// triple (see [`Regressor`] for the purity this relies on), so model
/// telemetry such as `ml.knn.queries` and `ml.knn.candidates_scanned`
/// counts distinct triples, not validation rows.
pub fn evaluate<F, M>(data: &Dataset, cfg: &EvalConfig, train: F) -> EvalReport
where
    F: Fn(&Dataset) -> Result<M> + Sync,
    M: Regressor,
{
    evaluate_with(data, cfg, train, score_split)
}

/// One split's pooled errors and per-user (error sum, count).
type SplitScore = (Vec<f64>, HashMap<u32, (f64, u32)>);

/// [`evaluate`] with the scoring of one split's validation rows passed
/// in.
fn evaluate_with<F, M>(
    data: &Dataset,
    cfg: &EvalConfig,
    train: F,
    score: fn(&Dataset, &[usize], &M) -> SplitScore,
) -> EvalReport
where
    F: Fn(&Dataset) -> Result<M> + Sync,
    M: Regressor,
{
    let split_results: Vec<SplitScore> = (0..cfg.n_splits)
        .into_par_iter()
        .filter_map(|s| {
            let (train_idx, val_idx) =
                data.split_user_covered(cfg.validation_fraction, cfg.seed + s as u64);
            let train_set = data.select(&train_idx);
            // One `ml.fit` observation per split, recorded from whatever
            // rayon worker runs it — the span aggregate counts fits
            // across all models and splits.
            let model = hpcpower_obs::time("ml.fit", || train(&train_set)).ok()?;
            Some(score(data, &val_idx, &model))
        })
        .collect();

    let mut errors = Vec::new();
    // Per user: average of split-level mean errors.
    let mut user_acc: HashMap<u32, (f64, u32)> = HashMap::new();
    for (errs, per_user) in split_results {
        errors.extend(errs);
        for (u, (sum, n)) in per_user {
            let mean = sum / n as f64;
            let e = user_acc.entry(u).or_insert((0.0, 0));
            e.0 += mean;
            e.1 += 1;
        }
    }
    let mut per_user_mean_error: Vec<(u32, f64)> = user_acc
        .into_iter()
        .map(|(u, (sum, n))| (u, sum / n as f64))
        .collect();
    per_user_mean_error.sort_by_key(|(u, _)| *u);
    EvalReport {
        errors,
        per_user_mean_error,
    }
}

/// Hashes a memo key, `(user, nodes bits, walltime bits)`, with one
/// multiply per word and a final mix, so that keys differing only in
/// the high bits of a float still spread. Fixed and cheap, not
/// collision-resistant: the keys come from the dataset, and the memo is
/// only looked up, never iterated, so no output depends on its order.
#[derive(Default)]
struct TripleHasher(u64);

impl Hasher for TripleHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(32) ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        // The MurmurHash3 finalizer.
        let mut h = self.0;
        h = (h ^ (h >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
        h = (h ^ (h >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

/// Scores the validation rows `val_idx` of one split in order, skipping
/// zero targets. A prediction depends only on the model and the triple,
/// so a memo keyed by the triple's bits answers every repeat; errors are
/// still pushed and summed row by row, in validation order.
fn score_split<M: Regressor>(data: &Dataset, val_idx: &[usize], model: &M) -> SplitScore {
    let mut memo: HashMap<(u32, u64, u64), f64, BuildHasherDefault<TripleHasher>> =
        HashMap::default();
    let mut errors = Vec::with_capacity(val_idx.len());
    let mut per_user: HashMap<u32, (f64, u32)> = HashMap::new();
    for &i in val_idx {
        let (u, n, w) = data.features.row(i);
        let actual = data.targets[i];
        if actual == 0.0 {
            continue;
        }
        let predicted = *memo
            .entry((u, n.to_bits(), w.to_bits()))
            .or_insert_with(|| model.predict(u, n, w));
        let err = abs_pct_error(actual, predicted);
        errors.push(err);
        let e = per_user.entry(u).or_insert((0.0, 0));
        e.0 += err;
        e.1 += 1;
    }
    (errors, per_user)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flda::{Flda, FldaConfig};
    use crate::knn::{Knn, KnnConfig};
    use crate::tree::{DecisionTree, TreeConfig};
    use hpcpower_stats::rng::SplitMix64;
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    /// The scoring loop before the memo: one prediction per validation
    /// row. The oracle the memoized [`score_split`] must match bit for
    /// bit.
    fn score_split_per_row<M: Regressor>(
        data: &Dataset,
        val_idx: &[usize],
        model: &M,
    ) -> SplitScore {
        let mut errors = Vec::with_capacity(val_idx.len());
        let mut per_user: HashMap<u32, (f64, u32)> = HashMap::new();
        for &i in val_idx {
            let (u, n, w) = data.features.row(i);
            let actual = data.targets[i];
            if actual == 0.0 {
                continue;
            }
            let err = abs_pct_error(actual, model.predict(u, n, w));
            errors.push(err);
            let e = per_user.entry(u).or_insert((0.0, 0));
            e.0 += err;
            e.1 += 1;
        }
        (errors, per_user)
    }

    /// Jobs that resubmit a few templates per user, as the paper's users
    /// do: many rows per distinct triple, walltime-dependent power for
    /// some users, exact-zero targets, and targets that repeat exactly
    /// (a TDP-pinned 210 W shared by several users).
    fn resubmitting_dataset(seed: u64, rows: usize) -> Dataset {
        let mut rng = SplitMix64::new(seed);
        let mut d = Dataset::default();
        for _ in 0..rows {
            let user = rng.next_bounded(9) as u32 * 3;
            let nodes = [1.0, 2.0, 4.0, 16.0][rng.next_bounded(4) as usize];
            let walltime = [30.0, 60.0, 240.0][rng.next_bounded(3) as usize];
            let roll = rng.next_bounded(20);
            let power = if roll == 0 {
                0.0
            } else if roll <= 3 && user.is_multiple_of(2) {
                210.0
            } else if roll == 4 {
                100.0 + user as f64
            } else {
                let by_walltime = if user.is_multiple_of(3) {
                    walltime * 0.2
                } else {
                    0.0
                };
                80.0 + 4.0 * user as f64 + 2.0 * nodes + by_walltime + 3.0 * rng.next_normal()
            };
            d.push(user, nodes, walltime, power);
        }
        d
    }

    fn assert_same_bits(a: &EvalReport, b: &EvalReport, what: &str) {
        let bits = |r: &EvalReport| -> (Vec<u64>, Vec<(u32, u64)>) {
            (
                r.errors.iter().map(|e| e.to_bits()).collect(),
                r.per_user_mean_error
                    .iter()
                    .map(|&(u, e)| (u, e.to_bits()))
                    .collect(),
            )
        };
        assert!(!a.errors.is_empty(), "{what}: no validation errors");
        assert_eq!(bits(a), bits(b), "{what}: memoized report differs");
    }

    #[test]
    fn memoized_scoring_matches_the_per_row_oracle_bit_for_bit() {
        for seed in [1u64, 2, 3] {
            let d = resubmitting_dataset(seed, 700);
            for n_splits in 1..=4 {
                let cfg = EvalConfig {
                    n_splits,
                    validation_fraction: 0.2,
                    seed: 40 + seed,
                };
                let what = format!("seed {seed}, {n_splits} split(s)");
                let tree = |t: &Dataset| DecisionTree::fit(t, TreeConfig::default());
                assert_same_bits(
                    &evaluate(&d, &cfg, tree),
                    &evaluate_with(&d, &cfg, tree, score_split_per_row),
                    &format!("BDT, {what}"),
                );
                for knn_cfg in [KnnConfig::paper(), KnnConfig::default()] {
                    let knn = |t: &Dataset| Knn::fit(t, knn_cfg);
                    assert_same_bits(
                        &evaluate(&d, &cfg, knn),
                        &evaluate_with(&d, &cfg, knn, score_split_per_row),
                        &format!("KNN {knn_cfg:?}, {what}"),
                    );
                }
                let flda = |t: &Dataset| Flda::fit(t, FldaConfig::default());
                assert_same_bits(
                    &evaluate(&d, &cfg, flda),
                    &evaluate_with(&d, &cfg, flda, score_split_per_row),
                    &format!("FLDA, {what}"),
                );
            }
        }
    }

    /// A query's `(user, nodes bits, walltime bits)`.
    type Triple = (u32, u64, u64);

    /// A model that logs every query under the id of its fit.
    struct Logged<'a> {
        tree: DecisionTree,
        fit: usize,
        log: &'a Mutex<Vec<(usize, Triple)>>,
    }

    impl Regressor for Logged<'_> {
        fn predict(&self, user: u32, nodes: f64, walltime: f64) -> f64 {
            let key = (user, nodes.to_bits(), walltime.to_bits());
            self.log.lock().unwrap().push((self.fit, key));
            self.tree.predict(user, nodes, walltime)
        }
    }

    #[test]
    fn each_split_asks_once_per_distinct_scored_triple() {
        let d = resubmitting_dataset(7, 900);
        for n_splits in 1..=4 {
            let cfg = EvalConfig {
                n_splits,
                validation_fraction: 0.2,
                seed: 11,
            };
            let fits = AtomicUsize::new(0);
            let log = Mutex::new(Vec::new());
            evaluate(&d, &cfg, |t| {
                Ok(Logged {
                    tree: DecisionTree::fit(t, TreeConfig::default())?,
                    fit: fits.fetch_add(1, Ordering::Relaxed),
                    log: &log,
                })
            });
            let log = log.into_inner().unwrap();
            let mut asked: Vec<Vec<Triple>> = vec![Vec::new(); n_splits];
            for (fit, key) in log {
                asked[fit].push(key);
            }
            for keys in &mut asked {
                keys.sort_unstable();
            }
            asked.sort();
            // Per split: the distinct triples of the validation rows the
            // protocol scores, i.e. those with a non-zero target.
            let mut scored_rows = 0;
            let mut expected: Vec<Vec<Triple>> = (0..n_splits)
                .map(|s| {
                    let (_, val) =
                        d.split_user_covered(cfg.validation_fraction, cfg.seed + s as u64);
                    let scored: Vec<Triple> = val
                        .iter()
                        .filter(|&&i| d.targets[i] != 0.0)
                        .map(|&i| {
                            let (u, n, w) = d.features.row(i);
                            (u, n.to_bits(), w.to_bits())
                        })
                        .collect();
                    scored_rows += scored.len();
                    let distinct: BTreeSet<_> = scored.into_iter().collect();
                    distinct.into_iter().collect()
                })
                .collect();
            expected.sort();
            assert_eq!(asked, expected, "{n_splits} split(s)");
            let distinct: usize = expected.iter().map(Vec::len).sum();
            assert!(2 * distinct < scored_rows, "the corpus repeats its triples");
        }
    }

    /// Users with template-like repetitive jobs: highly predictable.
    fn predictable_dataset() -> Dataset {
        let mut d = Dataset::default();
        let mut rng = SplitMix64::new(3);
        for user in 0..20u32 {
            let base = 80.0 + (user as f64 * 7.0) % 100.0;
            for rep in 0..40 {
                let nodes = ((user + rep) % 3 + 1) as f64 * 2.0;
                let power = base + nodes * 3.0 + rng.next_normal() * 2.0;
                d.push(user, nodes, 120.0 + 60.0 * (rep % 2) as f64, power);
            }
        }
        d
    }

    #[test]
    fn tree_is_accurate_on_template_workload() {
        let d = predictable_dataset();
        let report = evaluate(&d, &EvalConfig::default(), |train| {
            DecisionTree::fit(train, TreeConfig::default())
        });
        assert!(!report.errors.is_empty());
        assert!(
            report.fraction_below(0.10) > 0.9,
            "only {:.2} of predictions under 10% error",
            report.fraction_below(0.10)
        );
        assert!(report.mape() < 0.06, "MAPE {}", report.mape());
    }

    #[test]
    fn per_user_errors_cover_most_users() {
        let d = predictable_dataset();
        let report = evaluate(&d, &EvalConfig::default(), |train| {
            DecisionTree::fit(train, TreeConfig::default())
        });
        assert!(report.per_user_mean_error.len() >= 18);
        assert!(report.user_fraction_below(0.10) > 0.9);
    }

    #[test]
    fn pooled_error_count_matches_split_sizes() {
        let d = predictable_dataset();
        let cfg = EvalConfig {
            n_splits: 4,
            validation_fraction: 0.25,
            seed: 9,
        };
        let report = evaluate(&d, &cfg, |train| {
            DecisionTree::fit(train, TreeConfig::default())
        });
        let expected_per_split = (d.len() as f64 * 0.25).round() as usize;
        assert!(
            (report.errors.len() as i64 - (expected_per_split * 4) as i64).abs() < (4 * 25) as i64,
            "pooled {} vs expected ~{}",
            report.errors.len(),
            expected_per_split * 4
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let d = predictable_dataset();
        let cfg = EvalConfig {
            n_splits: 3,
            validation_fraction: 0.2,
            seed: 5,
        };
        let a = evaluate(&d, &cfg, |t| DecisionTree::fit(t, TreeConfig::default()));
        let b = evaluate(&d, &cfg, |t| DecisionTree::fit(t, TreeConfig::default()));
        assert_eq!(a.errors, b.errors);
        assert_eq!(a.per_user_mean_error, b.per_user_mean_error);
    }
}
