//! CART regression tree — the paper's "Binary Decision Tree" (BDT).
//!
//! The paper attributes BDT's win to "explicit hierarchical prediction
//! for the three features: first, based on user, then number of nodes and
//! last, wall time". CART recovers exactly that hierarchy on its own:
//! the user feature explains the most variance, so it is split first.
//!
//! The user feature is categorical; the optimal binary partition under an
//! L2 criterion orders categories by their mean target and scans split
//! points along that ordering (Breiman et al., 1984), which is what
//! [`DecisionTree::fit`] does. Numeric features use standard
//! sorted-threshold scans. Unseen users at prediction time follow the
//! majority branch.
//!
//! A fit ranks each feature's distinct values once, and each node sorts
//! its rows by rank with the library's stable sort. Equal values share
//! a rank and a stable sort's output is unique, so the scans see the
//! rows, and add up their targets, in the order a stable sort by value
//! gives. Users are tallied in dense per-user tables.

use std::collections::HashSet;

use serde::{Deserialize, Serialize};

use crate::data::Dataset;
use crate::{MlError, Regressor, Result};

/// Tree hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TreeConfig {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum samples a leaf may hold.
    pub min_samples_leaf: usize,
    /// Minimum samples a node needs to be considered for splitting.
    pub min_samples_split: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        Self {
            max_depth: 14,
            min_samples_leaf: 2,
            min_samples_split: 4,
        }
    }
}

/// Numeric features a node can split on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum NumFeature {
    Nodes,
    Walltime,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
enum Node {
    Leaf {
        value: f64,
    },
    NumericSplit {
        feature: NumFeature,
        threshold: f64,
        left: u32,
        right: u32,
    },
    UserSplit {
        /// Users routed left.
        left_users: HashSet<u32>,
        /// Users routed right (needed to detect unseen users).
        right_users: HashSet<u32>,
        /// Branch for users not seen at this node during training
        /// (the majority branch).
        default_left: bool,
        left: u32,
        right: u32,
    },
}

/// A trained regression tree.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    config: TreeConfig,
}

struct Builder<'a> {
    data: &'a Dataset,
    config: TreeConfig,
    nodes: Vec<Node>,
    /// Dense rank of each row's node count among the distinct counts.
    node_rank: Vec<u32>,
    /// Dense rank of each row's walltime among the distinct walltimes.
    walltime_rank: Vec<u32>,
    /// Dense rank of each row's user; `user_ids[r]` is rank `r`'s id.
    user_rank: Vec<u32>,
    user_ids: Vec<u32>,
    /// Per user rank: (target sum, sum of squares, rows) of the node
    /// being scanned; all zero between scans.
    user_sums: Vec<(f64, f64, usize)>,
}

/// Sum of squared errors around the mean, from aggregate sums.
#[inline]
fn sse(sum: f64, sum2: f64, n: f64) -> f64 {
    (sum2 - sum * sum / n).max(0.0)
}

struct BestSplit {
    gain: f64,
    kind: SplitKind,
}

enum SplitKind {
    Numeric {
        feature: NumFeature,
        threshold: f64,
    },
    /// The node's user ranks in scan order; the first `cut` go left.
    User {
        users: Vec<u32>,
        cut: usize,
    },
}

/// Dense ascending rank of each value, and the distinct values in rank
/// order. Values equal under `==` share a rank, so a stable sort by rank
/// is the stable sort by value.
fn dense_ranks<T: PartialOrd + Copy>(values: &[T]) -> (Vec<u32>, Vec<T>) {
    let mut distinct = values.to_vec();
    distinct.sort_unstable_by(|a, b| a.partial_cmp(b).expect("features are finite"));
    distinct.dedup_by(|a, b| a == b);
    let ranks = values
        .iter()
        .map(|v| distinct.partition_point(|d| d < v) as u32)
        .collect();
    (ranks, distinct)
}

impl<'a> Builder<'a> {
    fn new(data: &'a Dataset, config: TreeConfig) -> Self {
        let (user_rank, user_ids) = dense_ranks(&data.features.users);
        Self {
            data,
            config,
            nodes: Vec::new(),
            node_rank: dense_ranks(&data.features.nodes).0,
            walltime_rank: dense_ranks(&data.features.walltimes).0,
            user_rank,
            user_sums: vec![(0.0, 0.0, 0); user_ids.len()],
            user_ids,
        }
    }

    fn target(&self, i: usize) -> f64 {
        self.data.targets[i]
    }

    fn numeric(&self, feature: NumFeature, i: usize) -> f64 {
        match feature {
            NumFeature::Nodes => self.data.features.nodes[i],
            NumFeature::Walltime => self.data.features.walltimes[i],
        }
    }

    /// Best numeric split of `indices` on `feature`, if any. Leaves
    /// `indices` stably sorted by the feature.
    fn best_numeric(&self, indices: &mut [usize], feature: NumFeature) -> Option<BestSplit> {
        let n = indices.len();
        let rank = match feature {
            NumFeature::Nodes => &self.node_rank,
            NumFeature::Walltime => &self.walltime_rank,
        };
        indices.sort_by_key(|&i| rank[i]);
        let total_sum: f64 = indices.iter().map(|&i| self.target(i)).sum();
        let total_sum2: f64 = indices.iter().map(|&i| self.target(i).powi(2)).sum();
        let parent_sse = sse(total_sum, total_sum2, n as f64);

        let mut best: Option<BestSplit> = None;
        let mut left_sum = 0.0;
        let mut left_sum2 = 0.0;
        for k in 0..n - 1 {
            let t = self.target(indices[k]);
            left_sum += t;
            left_sum2 += t * t;
            let v = self.numeric(feature, indices[k]);
            let v_next = self.numeric(feature, indices[k + 1]);
            if v == v_next {
                continue; // cannot split between equal values
            }
            let left_n = (k + 1) as f64;
            let right_n = (n - k - 1) as f64;
            if (left_n as usize) < self.config.min_samples_leaf
                || (right_n as usize) < self.config.min_samples_leaf
            {
                continue;
            }
            let gain = parent_sse
                - sse(left_sum, left_sum2, left_n)
                - sse(total_sum - left_sum, total_sum2 - left_sum2, right_n);
            if best.as_ref().is_none_or(|b| gain > b.gain) {
                best = Some(BestSplit {
                    gain,
                    kind: SplitKind::Numeric {
                        feature,
                        threshold: (v + v_next) / 2.0,
                    },
                });
            }
        }
        best
    }

    /// Best categorical split on the user feature: order users by mean
    /// target, equal means by user id, and scan prefix partitions.
    fn best_user(&mut self, indices: &[usize]) -> Option<BestSplit> {
        let mut present = Vec::new();
        for &i in indices {
            let t = self.target(i);
            let r = self.user_rank[i];
            let e = &mut self.user_sums[r as usize];
            if e.2 == 0 {
                present.push(r);
            }
            e.0 += t;
            e.1 += t * t;
            e.2 += 1;
        }
        present.sort_unstable();
        // Taking each tally leaves the table zeroed for the next node.
        let mut ordered: Vec<(u32, f64, f64, usize)> = present
            .iter()
            .map(|&r| {
                let (s, s2, c) = std::mem::take(&mut self.user_sums[r as usize]);
                (r, s, s2, c)
            })
            .collect();
        if ordered.len() < 2 {
            return None;
        }
        ordered.sort_by(|a, b| {
            (a.1 / a.3 as f64)
                .partial_cmp(&(b.1 / b.3 as f64))
                .expect("finite targets")
        });

        let n = indices.len() as f64;
        let total_sum: f64 = ordered.iter().map(|g| g.1).sum();
        let total_sum2: f64 = ordered.iter().map(|g| g.2).sum();
        let parent_sse = sse(total_sum, total_sum2, n);

        let mut best_gain = f64::NEG_INFINITY;
        let mut best_cut = 0usize;
        let mut left_sum = 0.0;
        let mut left_sum2 = 0.0;
        let mut left_n = 0usize;
        for (k, g) in ordered.iter().enumerate().take(ordered.len() - 1) {
            left_sum += g.1;
            left_sum2 += g.2;
            left_n += g.3;
            let right_n = indices.len() - left_n;
            if left_n < self.config.min_samples_leaf || right_n < self.config.min_samples_leaf {
                continue;
            }
            let gain = parent_sse
                - sse(left_sum, left_sum2, left_n as f64)
                - sse(total_sum - left_sum, total_sum2 - left_sum2, right_n as f64);
            if gain > best_gain {
                best_gain = gain;
                best_cut = k + 1;
            }
        }
        if best_gain.is_finite() && best_gain > 0.0 {
            Some(BestSplit {
                gain: best_gain,
                kind: SplitKind::User {
                    users: ordered.iter().map(|g| g.0).collect(),
                    cut: best_cut,
                },
            })
        } else {
            None
        }
    }

    fn build(&mut self, indices: &mut [usize], depth: usize) -> u32 {
        let n = indices.len();
        let mean = indices.iter().map(|&i| self.target(i)).sum::<f64>() / n as f64;
        let make_leaf = |nodes: &mut Vec<Node>| {
            nodes.push(Node::Leaf { value: mean });
            (nodes.len() - 1) as u32
        };
        if depth >= self.config.max_depth || n < self.config.min_samples_split {
            return make_leaf(&mut self.nodes);
        }
        // Candidate splits: user, nodes, walltime.
        let mut candidates: Vec<BestSplit> = Vec::with_capacity(3);
        if let Some(s) = self.best_user(indices) {
            candidates.push(s);
        }
        if let Some(s) = self.best_numeric(indices, NumFeature::Nodes) {
            candidates.push(s);
        }
        if let Some(s) = self.best_numeric(indices, NumFeature::Walltime) {
            candidates.push(s);
        }
        let Some(best) = candidates
            .into_iter()
            .filter(|c| c.gain > 1e-12)
            .max_by(|a, b| a.gain.partial_cmp(&b.gain).expect("finite gains"))
        else {
            return make_leaf(&mut self.nodes);
        };

        let (mut left_idx, mut right_idx): (Vec<usize>, Vec<usize>) = match &best.kind {
            SplitKind::Numeric { feature, threshold } => indices
                .iter()
                .partition(|&&i| self.numeric(*feature, i) <= *threshold),
            SplitKind::User { users, cut } => {
                let left_users: HashSet<u32> = users[..*cut].iter().copied().collect();
                indices
                    .iter()
                    .partition(|&&i| left_users.contains(&self.user_rank[i]))
            }
        };
        if left_idx.is_empty() || right_idx.is_empty() {
            return make_leaf(&mut self.nodes);
        }
        // Reserve this node's slot, then build children.
        self.nodes.push(Node::Leaf { value: mean });
        let slot = (self.nodes.len() - 1) as u32;
        let left = self.build(&mut left_idx, depth + 1);
        let right = self.build(&mut right_idx, depth + 1);
        self.nodes[slot as usize] = match best.kind {
            SplitKind::Numeric { feature, threshold } => Node::NumericSplit {
                feature,
                threshold,
                left,
                right,
            },
            SplitKind::User { users, cut } => {
                let ids = |ranks: &[u32]| -> HashSet<u32> {
                    ranks.iter().map(|&r| self.user_ids[r as usize]).collect()
                };
                Node::UserSplit {
                    default_left: left_idx.len() >= right_idx.len(),
                    left_users: ids(&users[..cut]),
                    right_users: ids(&users[cut..]),
                    left,
                    right,
                }
            }
        };
        slot
    }
}

impl DecisionTree {
    /// Fits a tree on the dataset.
    pub fn fit(data: &Dataset, config: TreeConfig) -> Result<Self> {
        if data.len() < 2 {
            return Err(MlError::NotEnoughData {
                required: 2,
                actual: data.len(),
            });
        }
        if config.min_samples_leaf == 0 || config.max_depth == 0 {
            return Err(MlError::InvalidConfig(
                "min_samples_leaf and max_depth must be positive",
            ));
        }
        let mut builder = Builder::new(data, config);
        let mut indices: Vec<usize> = (0..data.len()).collect();
        let root = builder.build(&mut indices, 0);
        debug_assert_eq!(root, 0);
        Ok(Self {
            nodes: builder.nodes,
            config,
        })
    }

    /// Number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Maximum depth actually reached.
    pub fn depth(&self) -> usize {
        fn walk(nodes: &[Node], i: u32) -> usize {
            match &nodes[i as usize] {
                Node::Leaf { .. } => 1,
                Node::NumericSplit { left, right, .. } | Node::UserSplit { left, right, .. } => {
                    1 + walk(nodes, *left).max(walk(nodes, *right))
                }
            }
        }
        walk(&self.nodes, 0)
    }

    /// The hyper-parameters used to train.
    pub fn config(&self) -> TreeConfig {
        self.config
    }
}

impl Regressor for DecisionTree {
    fn predict(&self, user: u32, nodes: f64, walltime: f64) -> f64 {
        let mut i = 0u32;
        loop {
            match &self.nodes[i as usize] {
                Node::Leaf { value } => return *value,
                Node::NumericSplit {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    let v = match feature {
                        NumFeature::Nodes => nodes,
                        NumFeature::Walltime => walltime,
                    };
                    i = if v <= *threshold { *left } else { *right };
                }
                Node::UserSplit {
                    left_users,
                    right_users,
                    default_left,
                    left,
                    right,
                } => {
                    let go_left = if left_users.contains(&user) {
                        true
                    } else if right_users.contains(&user) {
                        false
                    } else {
                        *default_left
                    };
                    i = if go_left { *left } else { *right };
                }
            }
        }
    }
}

/// The builder as it was before rank-based sorting: the oracle the
/// current one must match node for node. One line differs: user groups
/// are tallied in a `BTreeMap`, not a `HashMap`, so equal-mean groups
/// keep user-id order instead of a hash order that changes from run to
/// run.
#[cfg(test)]
mod oracle {
    use std::collections::{BTreeMap, HashSet};

    use super::{DecisionTree, Node, NumFeature, TreeConfig};
    use crate::data::Dataset;

    pub(super) fn fit(data: &Dataset, config: TreeConfig) -> DecisionTree {
        let mut builder = Builder {
            data,
            config,
            nodes: Vec::new(),
        };
        let mut indices: Vec<usize> = (0..data.len()).collect();
        builder.build(&mut indices, 0);
        DecisionTree {
            nodes: builder.nodes,
            config,
        }
    }

    struct Builder<'a> {
        data: &'a Dataset,
        config: TreeConfig,
        nodes: Vec<Node>,
    }

    /// Sum of squared errors around the mean, from aggregate sums.
    #[inline]
    fn sse(sum: f64, sum2: f64, n: f64) -> f64 {
        (sum2 - sum * sum / n).max(0.0)
    }

    struct BestSplit {
        gain: f64,
        kind: SplitKind,
    }

    enum SplitKind {
        Numeric { feature: NumFeature, threshold: f64 },
        User { left_users: HashSet<u32> },
    }

    impl<'a> Builder<'a> {
        fn target(&self, i: usize) -> f64 {
            self.data.targets[i]
        }

        fn numeric(&self, feature: NumFeature, i: usize) -> f64 {
            match feature {
                NumFeature::Nodes => self.data.features.nodes[i],
                NumFeature::Walltime => self.data.features.walltimes[i],
            }
        }

        /// Best numeric split of `indices` on `feature`, if any.
        fn best_numeric(&self, indices: &mut [usize], feature: NumFeature) -> Option<BestSplit> {
            let n = indices.len();
            indices.sort_by(|&a, &b| {
                self.numeric(feature, a)
                    .partial_cmp(&self.numeric(feature, b))
                    .expect("features are finite")
            });
            let total_sum: f64 = indices.iter().map(|&i| self.target(i)).sum();
            let total_sum2: f64 = indices.iter().map(|&i| self.target(i).powi(2)).sum();
            let parent_sse = sse(total_sum, total_sum2, n as f64);

            let mut best: Option<BestSplit> = None;
            let mut left_sum = 0.0;
            let mut left_sum2 = 0.0;
            for k in 0..n - 1 {
                let t = self.target(indices[k]);
                left_sum += t;
                left_sum2 += t * t;
                let v = self.numeric(feature, indices[k]);
                let v_next = self.numeric(feature, indices[k + 1]);
                if v == v_next {
                    continue; // cannot split between equal values
                }
                let left_n = (k + 1) as f64;
                let right_n = (n - k - 1) as f64;
                if (left_n as usize) < self.config.min_samples_leaf
                    || (right_n as usize) < self.config.min_samples_leaf
                {
                    continue;
                }
                let gain = parent_sse
                    - sse(left_sum, left_sum2, left_n)
                    - sse(total_sum - left_sum, total_sum2 - left_sum2, right_n);
                if best.as_ref().is_none_or(|b| gain > b.gain) {
                    best = Some(BestSplit {
                        gain,
                        kind: SplitKind::Numeric {
                            feature,
                            threshold: (v + v_next) / 2.0,
                        },
                    });
                }
            }
            best
        }

        /// Best categorical split on the user feature: order users by mean
        /// target and scan prefix partitions.
        fn best_user(&self, indices: &[usize]) -> Option<BestSplit> {
            let mut groups: BTreeMap<u32, (f64, f64, usize)> = BTreeMap::new();
            for &i in indices {
                let t = self.target(i);
                let e = groups
                    .entry(self.data.features.users[i])
                    .or_insert((0.0, 0.0, 0));
                e.0 += t;
                e.1 += t * t;
                e.2 += 1;
            }
            if groups.len() < 2 {
                return None;
            }
            let mut ordered: Vec<(u32, f64, f64, usize)> = groups
                .into_iter()
                .map(|(u, (s, s2, c))| (u, s, s2, c))
                .collect();
            ordered.sort_by(|a, b| {
                (a.1 / a.3 as f64)
                    .partial_cmp(&(b.1 / b.3 as f64))
                    .expect("finite targets")
            });

            let n = indices.len() as f64;
            let total_sum: f64 = ordered.iter().map(|g| g.1).sum();
            let total_sum2: f64 = ordered.iter().map(|g| g.2).sum();
            let parent_sse = sse(total_sum, total_sum2, n);

            let mut best_gain = f64::NEG_INFINITY;
            let mut best_cut = 0usize;
            let mut left_sum = 0.0;
            let mut left_sum2 = 0.0;
            let mut left_n = 0usize;
            for (k, g) in ordered.iter().enumerate().take(ordered.len() - 1) {
                left_sum += g.1;
                left_sum2 += g.2;
                left_n += g.3;
                let right_n = indices.len() - left_n;
                if left_n < self.config.min_samples_leaf || right_n < self.config.min_samples_leaf {
                    continue;
                }
                let gain = parent_sse
                    - sse(left_sum, left_sum2, left_n as f64)
                    - sse(total_sum - left_sum, total_sum2 - left_sum2, right_n as f64);
                if gain > best_gain {
                    best_gain = gain;
                    best_cut = k + 1;
                }
            }
            if best_gain.is_finite() && best_gain > 0.0 {
                let left_users: HashSet<u32> = ordered[..best_cut].iter().map(|g| g.0).collect();
                Some(BestSplit {
                    gain: best_gain,
                    kind: SplitKind::User { left_users },
                })
            } else {
                None
            }
        }

        fn build(&mut self, indices: &mut [usize], depth: usize) -> u32 {
            let n = indices.len();
            let mean = indices.iter().map(|&i| self.target(i)).sum::<f64>() / n as f64;
            let make_leaf = |nodes: &mut Vec<Node>| {
                nodes.push(Node::Leaf { value: mean });
                (nodes.len() - 1) as u32
            };
            if depth >= self.config.max_depth || n < self.config.min_samples_split {
                return make_leaf(&mut self.nodes);
            }
            // Candidate splits: user, nodes, walltime.
            let mut candidates: Vec<BestSplit> = Vec::with_capacity(3);
            if let Some(s) = self.best_user(indices) {
                candidates.push(s);
            }
            if let Some(s) = self.best_numeric(indices, NumFeature::Nodes) {
                candidates.push(s);
            }
            if let Some(s) = self.best_numeric(indices, NumFeature::Walltime) {
                candidates.push(s);
            }
            let Some(best) = candidates
                .into_iter()
                .filter(|c| c.gain > 1e-12)
                .max_by(|a, b| a.gain.partial_cmp(&b.gain).expect("finite gains"))
            else {
                return make_leaf(&mut self.nodes);
            };

            let (mut left_idx, mut right_idx): (Vec<usize>, Vec<usize>) = match &best.kind {
                SplitKind::Numeric { feature, threshold } => indices
                    .iter()
                    .partition(|&&i| self.numeric(*feature, i) <= *threshold),
                SplitKind::User { left_users } => indices
                    .iter()
                    .partition(|&&i| left_users.contains(&self.data.features.users[i])),
            };
            if left_idx.is_empty() || right_idx.is_empty() {
                return make_leaf(&mut self.nodes);
            }
            // Reserve this node's slot, then build children.
            self.nodes.push(Node::Leaf { value: mean });
            let slot = (self.nodes.len() - 1) as u32;
            let left = self.build(&mut left_idx, depth + 1);
            let right = self.build(&mut right_idx, depth + 1);
            self.nodes[slot as usize] = match best.kind {
                SplitKind::Numeric { feature, threshold } => Node::NumericSplit {
                    feature,
                    threshold,
                    left,
                    right,
                },
                SplitKind::User { left_users } => {
                    let right_users: HashSet<u32> = right_idx
                        .iter()
                        .map(|&i| self.data.features.users[i])
                        .collect();
                    Node::UserSplit {
                        default_left: left_idx.len() >= right_idx.len(),
                        left_users,
                        right_users,
                        left,
                        right,
                    }
                }
            };
            slot
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcpower_stats::rng::SplitMix64;

    /// Jobs as the paper's users submit them: each user resubmits a few
    /// (nodes, walltime) templates with noisy power, some users' jobs
    /// pin at the 210 W TDP (two of them always do, so their means tie),
    /// and user ids are sparse. `jitter` above 1 adds up to that many
    /// minutes to each walltime, so walltimes are nearly all distinct.
    fn resubmitting_corpus(seed: u64, rows: usize, jitter: u64) -> Dataset {
        let mut rng = SplitMix64::new(seed);
        let mut d = Dataset::default();
        for _ in 0..rows {
            let user = rng.next_bounded(12) as u32;
            let template = rng.next_bounded(3);
            let nodes = [1.0, 2.0, 4.0, 8.0, 32.0][((user as u64 + template) % 5) as usize];
            let walltime = (15 * (1 + (user as u64 * 7 + template * 13) % 6)
                + rng.next_bounded(jitter)) as f64;
            let power =
                if user == 2 || user == 9 || (user.is_multiple_of(4) && rng.next_bounded(3) == 0) {
                    210.0
                } else {
                    90.0 + 9.0 * (user % 5) as f64
                        + 3.0 * nodes
                        + walltime / 60.0
                        + 4.0 * rng.next_normal()
                };
            d.push(user * 37 + 5, nodes, walltime, power);
        }
        d
    }

    /// The same tree: node for node, leaf values and thresholds by bits.
    fn assert_same_tree(a: &DecisionTree, b: &DecisionTree, what: &str) {
        assert_eq!(a.node_count(), b.node_count(), "{what}: node count");
        assert_eq!(a.depth(), b.depth(), "{what}: depth");
        for (k, (x, y)) in a.nodes.iter().zip(&b.nodes).enumerate() {
            let same = match (x, y) {
                (Node::Leaf { value: v }, Node::Leaf { value: w }) => v.to_bits() == w.to_bits(),
                (
                    Node::NumericSplit {
                        feature: f,
                        threshold: t,
                        left: l,
                        right: r,
                    },
                    Node::NumericSplit {
                        feature: g,
                        threshold: u,
                        left: m,
                        right: q,
                    },
                ) => f == g && t.to_bits() == u.to_bits() && (l, r) == (m, q),
                (
                    Node::UserSplit {
                        left_users: lu,
                        right_users: ru,
                        default_left: d,
                        left: l,
                        right: r,
                    },
                    Node::UserSplit {
                        left_users: mu,
                        right_users: qu,
                        default_left: e,
                        left: m,
                        right: q,
                    },
                ) => (lu, ru, d, l, r) == (mu, qu, e, m, q),
                _ => false,
            };
            assert!(same, "{what}: node {k} differs: {x:?} vs {y:?}");
        }
    }

    #[test]
    fn rank_builder_matches_the_oracle_bit_for_bit() {
        let configs = [
            TreeConfig::default(),
            TreeConfig {
                max_depth: 4,
                ..Default::default()
            },
            TreeConfig {
                max_depth: 30,
                min_samples_leaf: 1,
                min_samples_split: 2,
            },
            TreeConfig {
                max_depth: 14,
                min_samples_leaf: 5,
                min_samples_split: 12,
            },
        ];
        for seed in 1..=6u64 {
            for (rows, jitter) in [(40, 1), (900, 1), (1500, 1), (600, 100_000)] {
                let d = resubmitting_corpus(seed, rows, jitter);
                let mut queries: Vec<(u32, f64, f64)> =
                    (0..d.len()).map(|i| d.features.row(i)).collect();
                for user in [0, 5, 42, 9_999] {
                    for nodes in [0.5, 1.0, 3.0, 32.0, 1e6] {
                        for walltime in [1.0, 15.0, 100.0, 1e7] {
                            queries.push((user, nodes, walltime));
                        }
                    }
                }
                for cfg in configs {
                    let what = format!("seed {seed}, {rows} rows, jitter {jitter}, {cfg:?}");
                    let tree = DecisionTree::fit(&d, cfg).unwrap();
                    let expected = oracle::fit(&d, cfg);
                    assert_same_tree(&tree, &expected, &what);
                    for &(u, n, w) in &queries {
                        assert_eq!(
                            tree.predict(u, n, w).to_bits(),
                            expected.predict(u, n, w).to_bits(),
                            "{what}: predict({u}, {n}, {w})"
                        );
                    }
                }
            }
        }
    }

    /// A node where `min_samples_leaf` rules out an edge of a block of
    /// equal-mean users, so the order inside the block picks the split.
    /// User 50 has one row at 100 W; users `a` (5 rows) and `b` (3 rows)
    /// both pin at 210 W. With leaves of at least 2 rows the only user
    /// cut sends user 50 and the first of `a`, `b` left, and the fit
    /// takes them in user-id order whatever order their rows come in.
    #[test]
    fn equal_mean_users_are_scanned_in_user_id_order() {
        for (a, b) in [
            (3, 5),
            (5, 3),
            (1, 40),
            (40, 1),
            (7, 8),
            (8, 7),
            (100, 6),
            (6, 100),
        ] {
            for rows_of_b_first in [false, true] {
                let mut blocks = [(a, 210.0, 5), (b, 210.0, 3), (50, 100.0, 1)];
                if rows_of_b_first {
                    blocks.swap(0, 1);
                }
                let mut d = Dataset::default();
                for (user, power, rows) in blocks {
                    for _ in 0..rows {
                        d.push(user, 4.0, 60.0, power);
                    }
                }
                let tree = DecisionTree::fit(&d, TreeConfig::default()).unwrap();
                let (first, second) = (a.min(b), a.max(b));
                let first_rows = if first == a { 5.0 } else { 3.0 };
                let left_mean = (100.0 + 210.0 * first_rows) / (1.0 + first_rows);
                let what = format!("a = {a}, b = {b}, rows of b first: {rows_of_b_first}");
                assert_eq!(tree.node_count(), 3, "{what}");
                assert_eq!(tree.predict(50, 4.0, 60.0), left_mean, "{what}");
                assert_eq!(tree.predict(first, 4.0, 60.0), left_mean, "{what}");
                assert_eq!(tree.predict(second, 4.0, 60.0), 210.0, "{what}");
            }
        }
    }

    fn user_dataset() -> Dataset {
        // Users 0..4, each with a distinct deterministic power level plus
        // small variation by nodes.
        let mut d = Dataset::default();
        for rep in 0..30 {
            for user in 0..4u32 {
                let nodes = ((rep % 4) + 1) as f64;
                let power = 80.0 + user as f64 * 30.0 + nodes;
                d.push(user, nodes, 120.0, power);
            }
        }
        d
    }

    #[test]
    fn learns_user_levels() {
        let d = user_dataset();
        let tree = DecisionTree::fit(&d, TreeConfig::default()).unwrap();
        for user in 0..4u32 {
            let pred = tree.predict(user, 2.0, 120.0);
            let expected = 80.0 + user as f64 * 30.0 + 2.0;
            assert!(
                (pred - expected).abs() < 4.0,
                "user {user}: pred {pred} vs {expected}"
            );
        }
    }

    #[test]
    fn perfectly_separable_numeric() {
        let mut d = Dataset::default();
        for i in 0..100 {
            let nodes = (i % 10 + 1) as f64;
            d.push(0, nodes, 60.0, if nodes <= 5.0 { 100.0 } else { 180.0 });
        }
        let tree = DecisionTree::fit(&d, TreeConfig::default()).unwrap();
        assert!((tree.predict(0, 3.0, 60.0) - 100.0).abs() < 1e-9);
        assert!((tree.predict(0, 8.0, 60.0) - 180.0).abs() < 1e-9);
    }

    #[test]
    fn prediction_within_target_range() {
        let d = user_dataset();
        let tree = DecisionTree::fit(&d, TreeConfig::default()).unwrap();
        let lo = d.targets.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = d.targets.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for user in 0..6u32 {
            for nodes in [1.0, 4.0, 64.0] {
                for wt in [30.0, 600.0] {
                    let p = tree.predict(user, nodes, wt);
                    assert!(p >= lo - 1e-9 && p <= hi + 1e-9);
                }
            }
        }
    }

    #[test]
    fn unseen_user_gets_reasonable_value() {
        let d = user_dataset();
        let tree = DecisionTree::fit(&d, TreeConfig::default()).unwrap();
        let p = tree.predict(999, 2.0, 120.0);
        assert!(p > 80.0 && p < 180.0);
    }

    #[test]
    fn depth_limit_is_respected() {
        let d = user_dataset();
        let cfg = TreeConfig {
            max_depth: 2,
            ..Default::default()
        };
        let tree = DecisionTree::fit(&d, cfg).unwrap();
        assert!(tree.depth() <= 3); // root + 2 levels
    }

    #[test]
    fn min_leaf_respected_on_tiny_data() {
        let mut d = Dataset::default();
        d.push(0, 1.0, 60.0, 100.0);
        d.push(1, 2.0, 60.0, 150.0);
        let cfg = TreeConfig {
            min_samples_leaf: 2,
            min_samples_split: 4,
            max_depth: 5,
        };
        let tree = DecisionTree::fit(&d, cfg).unwrap();
        // Cannot split (would leave 1-sample leaves): single leaf at mean.
        assert_eq!(tree.node_count(), 1);
        assert!((tree.predict(0, 1.0, 60.0) - 125.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_degenerate_input() {
        let d = Dataset::default();
        assert!(DecisionTree::fit(&d, TreeConfig::default()).is_err());
        let mut one = Dataset::default();
        one.push(0, 1.0, 60.0, 100.0);
        assert!(DecisionTree::fit(&one, TreeConfig::default()).is_err());
        let two = user_dataset();
        let bad = TreeConfig {
            max_depth: 0,
            ..Default::default()
        };
        assert!(DecisionTree::fit(&two, bad).is_err());
    }

    #[test]
    fn constant_target_yields_single_leaf() {
        let mut d = Dataset::default();
        for i in 0..50 {
            d.push(i % 5, (i % 8 + 1) as f64, 60.0, 42.0);
        }
        let tree = DecisionTree::fit(&d, TreeConfig::default()).unwrap();
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.predict(2, 4.0, 60.0), 42.0);
    }

    #[test]
    fn walltime_feature_is_used_when_informative() {
        let mut d = Dataset::default();
        for i in 0..200 {
            let wt = if i % 2 == 0 { 60.0 } else { 600.0 };
            d.push(0, 4.0, wt, if wt < 300.0 { 90.0 } else { 160.0 });
        }
        let tree = DecisionTree::fit(&d, TreeConfig::default()).unwrap();
        assert!((tree.predict(0, 4.0, 60.0) - 90.0).abs() < 1e-9);
        assert!((tree.predict(0, 4.0, 600.0) - 160.0).abs() < 1e-9);
    }
}
