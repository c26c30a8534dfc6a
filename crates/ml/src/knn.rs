//! K-Nearest-Neighbour regression.
//!
//! The paper's KNN baseline clusters jobs at a "small distance" (similar
//! node count and walltime) even when their power differs — which is why
//! it loses to the tree. The distance used here makes that behaviour
//! explicit:
//!
//! ```text
//! d² = user_mismatch_penalty · [u₁ ≠ u₂]
//!    + ((n₁ - n₂) / σ_nodes)²
//!    + ((w₁ - w₂) / σ_walltime)²
//! ```
//!
//! with numeric features standardized by their training deviations. A
//! per-user index accelerates the common case where a user's own history
//! already supplies `k` neighbours.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::data::Dataset;
use crate::{MlError, Regressor, Result};

/// KNN hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KnnConfig {
    /// Number of neighbours.
    pub k: usize,
    /// Squared-distance penalty for a user mismatch (categorical mode).
    /// Large values make same-user history dominate, mirroring the
    /// paper's feature order.
    pub user_mismatch_penalty: f64,
    /// Inverse-distance weighting of neighbour targets (vs plain mean).
    pub distance_weighted: bool,
    /// Treat the user id as a *numeric* feature (standardized like the
    /// others) instead of a categorical one. This reproduces the paper's
    /// plain-KNN behaviour — and its weakness: jobs at a "small distance"
    /// (similar nodes and walltime) are clustered together "even if they
    /// have very different per-node power consumption".
    pub numeric_user: bool,
}

impl Default for KnnConfig {
    fn default() -> Self {
        Self {
            k: 5,
            user_mismatch_penalty: 25.0,
            distance_weighted: true,
            numeric_user: false,
        }
    }
}

impl KnnConfig {
    /// The paper-faithful configuration: plain KNN over the three raw
    /// features with the user id treated numerically.
    pub fn paper() -> Self {
        Self {
            k: 5,
            user_mismatch_penalty: 0.0,
            distance_weighted: true,
            numeric_user: true,
        }
    }
}

/// A fitted KNN model (stores the training set).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Knn {
    users: Vec<u32>,
    nodes: Vec<f64>,
    walltimes: Vec<f64>,
    targets: Vec<f64>,
    node_scale: f64,
    walltime_scale: f64,
    user_scale: f64,
    /// Per-user buckets sorted by user id; each bucket holds ascending
    /// training indices. Sorted order is what lets the numeric query
    /// expand outward from the query user and stop once the user-distance
    /// term alone exceeds the current k-th best.
    user_index: Vec<(u32, Vec<u32>)>,
    config: KnnConfig,
}

/// Bounded top-k accumulator over `(d², tie)` keys.
///
/// Candidates are buffered unsorted and compacted with
/// `select_nth_unstable` once the buffer reaches `2k` — amortized O(1)
/// per push with no per-insertion sort (the previous implementation
/// re-sorted its whole window on every admission). `tie` encodes the
/// legacy scan position, so equal-distance candidates resolve exactly as
/// the old sequential scan did and the finished output is byte-for-byte
/// the same neighbour list.
struct TopK {
    k: usize,
    /// `(d², tie, index)` candidates, unsorted between compactions.
    buf: Vec<(f64, u64, u32)>,
    /// d² of the current k-th best after the last compaction; stale
    /// (only ever too loose) between compactions, so the quick-reject
    /// `d2 > bound` can never drop a true neighbour.
    bound: f64,
}

impl TopK {
    fn new(k: usize) -> Self {
        Self {
            k,
            buf: Vec::with_capacity(2 * k),
            bound: f64::INFINITY,
        }
    }

    #[inline]
    fn key_cmp(a: &(f64, u64, u32), b: &(f64, u64, u32)) -> std::cmp::Ordering {
        a.0.partial_cmp(&b.0)
            .expect("finite distances")
            .then(a.1.cmp(&b.1))
    }

    #[inline]
    fn push(&mut self, d2: f64, tie: u64, idx: u32) {
        if d2 > self.bound {
            return;
        }
        self.buf.push((d2, tie, idx));
        if self.buf.len() >= 2 * self.k {
            self.compact();
        }
    }

    /// Shrinks the buffer to the exact k smallest by `(d², tie)` and
    /// refreshes the admission bound.
    fn compact(&mut self) {
        if self.buf.len() > self.k {
            self.buf.select_nth_unstable_by(self.k - 1, Self::key_cmp);
            self.buf.truncate(self.k);
        }
        if self.buf.len() >= self.k {
            self.bound = self
                .buf
                .iter()
                .map(|c| c.0)
                .fold(f64::NEG_INFINITY, f64::max);
        }
    }

    /// Whether at least k candidates have been seen.
    #[inline]
    fn has_k(&self) -> bool {
        self.buf.len() >= self.k
    }

    /// The current k-th smallest d² (compacting first). Only meaningful
    /// once [`Self::has_k`] is true.
    fn worst_d2(&mut self) -> f64 {
        self.compact();
        self.bound
    }

    /// The final neighbour list: sorted ascending by `(d², tie)`, which
    /// reproduces the legacy stable-sorted output order exactly.
    fn finish(mut self) -> Vec<(f64, usize)> {
        self.compact();
        self.buf.sort_by(Self::key_cmp);
        self.buf
            .into_iter()
            .map(|(d2, _, i)| (d2, i as usize))
            .collect()
    }
}

/// Tie-key group for the query user's own bucket (scanned first).
const TIE_OWN: u64 = 0;
/// Tie-key group for cross-user candidates (scanned second).
const TIE_GLOBAL: u64 = 1 << 32;

fn std_scale(values: &[f64]) -> f64 {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
    let s = var.sqrt();
    if s > 1e-9 {
        s
    } else {
        1.0
    }
}

impl Knn {
    /// Fits (memorizes) the training set.
    pub fn fit(data: &Dataset, config: KnnConfig) -> Result<Self> {
        if data.len() < config.k.max(1) {
            return Err(MlError::NotEnoughData {
                required: config.k.max(1),
                actual: data.len(),
            });
        }
        if config.k == 0 {
            return Err(MlError::InvalidConfig("k must be positive"));
        }
        let mut buckets: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for (i, &u) in data.features.users.iter().enumerate() {
            buckets.entry(u).or_default().push(i as u32);
        }
        Ok(Self {
            users: data.features.users.clone(),
            nodes: data.features.nodes.clone(),
            walltimes: data.features.walltimes.clone(),
            targets: data.targets.clone(),
            node_scale: std_scale(&data.features.nodes),
            walltime_scale: std_scale(&data.features.walltimes),
            user_scale: std_scale(
                &data
                    .features
                    .users
                    .iter()
                    .map(|&u| u as f64)
                    .collect::<Vec<f64>>(),
            ),
            user_index: buckets.into_iter().collect(),
            config,
        })
    }

    /// The bucket of training indices for one user, if any.
    fn user_bucket(&self, user: u32) -> Option<&[u32]> {
        self.user_index
            .binary_search_by_key(&user, |(uid, _)| *uid)
            .ok()
            .map(|pos| self.user_index[pos].1.as_slice())
    }

    /// The hyper-parameters in use.
    pub fn config(&self) -> KnnConfig {
        self.config
    }

    #[inline]
    fn numeric_dist2(&self, i: usize, nodes: f64, walltime: f64) -> f64 {
        let dn = (self.nodes[i] - nodes) / self.node_scale;
        let dw = (self.walltimes[i] - walltime) / self.walltime_scale;
        dn * dn + dw * dw
    }

    /// Indices and squared distances of the k nearest training points.
    ///
    /// Byte-identical to a brute-force scan in the legacy order (own-user
    /// jobs first, then all others by ascending index): the top-k tie
    /// keys encode that order, and the bucket pruning only skips
    /// candidates whose user-distance term alone already exceeds the
    /// k-th best squared distance.
    fn neighbours(&self, user: u32, nodes: f64, walltime: f64) -> Vec<(f64, usize)> {
        if self.config.numeric_user {
            return self.neighbours_numeric(user, nodes, walltime);
        }
        let mut top = TopK::new(self.config.k);
        let mut scanned = 0u64;
        if let Some(own) = self.user_bucket(user) {
            scanned += own.len() as u64;
            for &i in own {
                top.push(
                    self.numeric_dist2(i as usize, nodes, walltime),
                    TIE_OWN | i as u64,
                    i,
                );
            }
        }
        // If the user's own history already yields k neighbours closer
        // than any possible cross-user point, stop early.
        let need_global = !top.has_k() || top.worst_d2() > self.config.user_mismatch_penalty;
        if need_global {
            for (uid, bucket) in &self.user_index {
                if *uid == user {
                    continue;
                }
                scanned += bucket.len() as u64;
                for &i in bucket {
                    let d2 = self.numeric_dist2(i as usize, nodes, walltime)
                        + self.config.user_mismatch_penalty;
                    top.push(d2, TIE_GLOBAL | i as u64, i);
                }
            }
        }
        record_query_telemetry(scanned);
        top.finish()
    }

    /// Numeric-feature query (the paper's KNN variant), accelerated by
    /// the sorted per-user buckets: expand outward from the query user by
    /// increasing user distance; once k candidates are held, a side whose
    /// next bucket's `du²` term alone exceeds the current k-th best
    /// squared distance can be dropped entirely (`du²` grows
    /// monotonically along each side, and `d² ≥ du²`). The strict `>`
    /// keeps equal-distance candidates scanned so index tie-breaking
    /// still matches the brute-force order.
    fn neighbours_numeric(&self, user: u32, nodes: f64, walltime: f64) -> Vec<(f64, usize)> {
        let mut top = TopK::new(self.config.k);
        let mut scanned = 0u64;
        let mut scan_bucket = |top: &mut TopK, bucket_pos: usize| {
            let (uid, bucket) = &self.user_index[bucket_pos];
            // `du²` alone is a lower bound on every d² in this bucket.
            let du = (*uid as f64 - user as f64) / self.user_scale;
            if top.has_k() && du * du > top.worst_d2() {
                return false;
            }
            scanned += bucket.len() as u64;
            for &i in bucket {
                let d2 = self.numeric_dist2(i as usize, nodes, walltime) + du * du;
                top.push(d2, i as u64, i);
            }
            true
        };
        // Two-pointer expansion from the query user's position, nearest
        // bucket first. Result order is scan-order independent (the tie
        // key is the global training index), so the interleave only
        // affects how quickly the pruning bound tightens.
        let pos = self.user_index.partition_point(|(uid, _)| *uid < user);
        let mut left = pos; // next left bucket is `left - 1`
        let mut right = pos; // next right bucket is `right`
        loop {
            let left_du = (left > 0).then(|| user as f64 - self.user_index[left - 1].0 as f64);
            let right_du = (right < self.user_index.len())
                .then(|| self.user_index[right].0 as f64 - user as f64);
            match (left_du, right_du) {
                (None, None) => break,
                (Some(_), None) => {
                    if !scan_bucket(&mut top, left - 1) {
                        break;
                    }
                    left -= 1;
                }
                (None, Some(_)) => {
                    if !scan_bucket(&mut top, right) {
                        break;
                    }
                    right += 1;
                }
                (Some(l), Some(r)) => {
                    if l <= r {
                        if !scan_bucket(&mut top, left - 1) {
                            // The right side may still hold closer buckets.
                            left = 0;
                            continue;
                        }
                        left -= 1;
                    } else {
                        if !scan_bucket(&mut top, right) {
                            right = self.user_index.len();
                            continue;
                        }
                        right += 1;
                    }
                }
            }
        }
        record_query_telemetry(scanned);
        top.finish()
    }
}

/// Records per-query KNN telemetry; free when the registry is disabled.
#[inline]
fn record_query_telemetry(scanned: u64) {
    if hpcpower_obs::enabled() {
        hpcpower_obs::counter_add("ml.knn.queries", 1);
        hpcpower_obs::counter_add("ml.knn.candidates_scanned", scanned);
    }
}

impl Regressor for Knn {
    fn predict(&self, user: u32, nodes: f64, walltime: f64) -> f64 {
        let neigh = self.neighbours(user, nodes, walltime);
        debug_assert!(!neigh.is_empty());
        if self.config.distance_weighted {
            let mut wsum = 0.0;
            let mut acc = 0.0;
            for &(d2, i) in &neigh {
                let w = 1.0 / (d2 + 1e-6);
                wsum += w;
                acc += w * self.targets[i];
            }
            acc / wsum
        } else {
            neigh.iter().map(|&(_, i)| self.targets[i]).sum::<f64>() / neigh.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset() -> Dataset {
        let mut d = Dataset::default();
        // User 0: power 100 at 2 nodes, 140 at 8 nodes.
        for _ in 0..10 {
            d.push(0, 2.0, 120.0, 100.0);
            d.push(0, 8.0, 120.0, 140.0);
        }
        // User 1: power 60 everywhere.
        for _ in 0..10 {
            d.push(1, 2.0, 120.0, 60.0);
        }
        d
    }

    #[test]
    fn same_user_history_dominates() {
        let knn = Knn::fit(&dataset(), KnnConfig::default()).unwrap();
        let p = knn.predict(0, 2.0, 120.0);
        assert!((p - 100.0).abs() < 1.0, "pred {p}");
        let p8 = knn.predict(0, 8.0, 120.0);
        assert!((p8 - 140.0).abs() < 1.0, "pred {p8}");
    }

    #[test]
    fn interpolates_between_configurations() {
        let knn = Knn::fit(
            &dataset(),
            KnnConfig {
                k: 20,
                ..Default::default()
            },
        )
        .unwrap();
        let p = knn.predict(0, 5.0, 120.0);
        assert!(p > 100.0 && p < 140.0, "pred {p}");
    }

    #[test]
    fn unseen_user_falls_back_to_global() {
        let knn = Knn::fit(&dataset(), KnnConfig::default()).unwrap();
        let p = knn.predict(42, 2.0, 120.0);
        // Nearest global points at 2 nodes: users 0 (100) and 1 (60).
        assert!(p > 55.0 && p < 105.0, "pred {p}");
    }

    #[test]
    fn k_one_memorizes() {
        let mut d = Dataset::default();
        d.push(0, 1.0, 60.0, 111.0);
        d.push(0, 4.0, 60.0, 222.0);
        let knn = Knn::fit(
            &d,
            KnnConfig {
                k: 1,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(knn.predict(0, 1.0, 60.0), 111.0);
        assert_eq!(knn.predict(0, 4.0, 60.0), 222.0);
    }

    #[test]
    fn rejects_bad_config_and_data() {
        let d = dataset();
        assert!(Knn::fit(
            &d,
            KnnConfig {
                k: 0,
                ..Default::default()
            }
        )
        .is_err());
        let empty = Dataset::default();
        assert!(Knn::fit(&empty, KnnConfig::default()).is_err());
    }

    #[test]
    fn prediction_within_target_range() {
        let d = dataset();
        let knn = Knn::fit(&d, KnnConfig::default()).unwrap();
        for user in [0, 1, 7] {
            for nodes in [1.0, 4.0, 32.0] {
                let p = knn.predict(user, nodes, 120.0);
                // Weighted means stay within the convex hull of targets
                // up to floating-point rounding.
                assert!((60.0 - 1e-9..=140.0 + 1e-9).contains(&p), "pred {p}");
            }
        }
    }

    /// The legacy brute-force neighbour search, kept verbatim as the
    /// oracle for the bucketed/top-k implementation: own-user scan, gated
    /// global scan (categorical) or full scan (numeric), maintaining the
    /// k best with a stable re-sort on every admission.
    fn brute_force_neighbours(
        knn: &Knn,
        user: u32,
        nodes: f64,
        walltime: f64,
    ) -> Vec<(f64, usize)> {
        let k = knn.config.k;
        let mut best: Vec<(f64, usize)> = Vec::with_capacity(k + 1);
        let push = |d2: f64, i: usize, best: &mut Vec<(f64, usize)>| {
            if best.len() < k {
                best.push((d2, i));
                best.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite distances"));
            } else if d2 < best[k - 1].0 {
                best[k - 1] = (d2, i);
                best.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite distances"));
            }
        };
        if knn.config.numeric_user {
            for i in 0..knn.targets.len() {
                let du = (knn.users[i] as f64 - user as f64) / knn.user_scale;
                let d2 = knn.numeric_dist2(i, nodes, walltime) + du * du;
                push(d2, i, &mut best);
            }
            return best;
        }
        for i in 0..knn.targets.len() {
            if knn.users[i] == user {
                push(knn.numeric_dist2(i, nodes, walltime), i, &mut best);
            }
        }
        let need_global =
            best.len() < k || best[best.len() - 1].0 > knn.config.user_mismatch_penalty;
        if need_global {
            for i in 0..knn.targets.len() {
                if knn.users[i] == user {
                    continue;
                }
                let d2 = knn.numeric_dist2(i, nodes, walltime) + knn.config.user_mismatch_penalty;
                push(d2, i, &mut best);
            }
        }
        best
    }

    /// Tiny deterministic generator for the property test.
    struct Lcg(u64);
    impl Lcg {
        fn next_u64(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 11
        }
        fn uniform(&mut self) -> f64 {
            (self.next_u64() % (1 << 24)) as f64 / (1 << 24) as f64
        }
    }

    #[test]
    fn bucketed_topk_matches_brute_force_exactly() {
        // Random datasets with heavy duplicate features (to force distance
        // ties), queried in both modes at several k — the bucketed index
        // plus select_nth top-k must reproduce the brute-force neighbour
        // list exactly: same indices, same order, same d² bits.
        for seed in [1u64, 7, 42] {
            let mut rng = Lcg(seed);
            let mut d = Dataset::default();
            let n = 150 + (seed as usize % 50);
            for _ in 0..n {
                let user = (rng.next_u64() % 12) as u32 * 3; // sparse ids
                let nodes = [1.0, 2.0, 4.0, 8.0][rng.next_u64() as usize % 4];
                let walltime = [60.0, 120.0, 240.0][rng.next_u64() as usize % 3];
                let target = 50.0 + 150.0 * rng.uniform();
                d.push(user, nodes, walltime, target);
            }
            for numeric_user in [false, true] {
                for k in [1usize, 3, 5, 17] {
                    let knn = Knn::fit(
                        &d,
                        KnnConfig {
                            k,
                            numeric_user,
                            ..Default::default()
                        },
                    )
                    .unwrap();
                    for q in 0..40 {
                        // Mix of seen, unseen, and boundary user ids.
                        let user = match q % 4 {
                            0 => (rng.next_u64() % 12) as u32 * 3,
                            1 => (rng.next_u64() % 40) as u32,
                            2 => 0,
                            _ => 1000,
                        };
                        let nodes = [1.0, 3.0, 8.0][rng.next_u64() as usize % 3];
                        let walltime = [60.0, 120.0, 500.0][rng.next_u64() as usize % 3];
                        let fast = knn.neighbours(user, nodes, walltime);
                        let brute = brute_force_neighbours(&knn, user, nodes, walltime);
                        assert_eq!(fast.len(), brute.len(), "seed {seed} k {k}");
                        for (a, b) in fast.iter().zip(&brute) {
                            assert_eq!(
                                a.1, b.1,
                                "index: seed {seed} numeric {numeric_user} k {k} user {user}"
                            );
                            assert_eq!(
                                a.0.to_bits(),
                                b.0.to_bits(),
                                "d2 bits: seed {seed} numeric {numeric_user} k {k} user {user}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn plain_mean_mode() {
        let mut d = Dataset::default();
        d.push(0, 1.0, 60.0, 100.0);
        d.push(0, 1.0, 60.0, 200.0);
        let knn = Knn::fit(
            &d,
            KnnConfig {
                k: 2,
                distance_weighted: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(knn.predict(0, 1.0, 60.0), 150.0);
    }
}
