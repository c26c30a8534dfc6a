//! Per-node power time series for instrumented jobs.
//!
//! The paper logged time-resolved per-node counters for selected key
//! applications over one month; [`JobSeries`] is that artifact: a dense
//! `nodes × minutes` matrix of watt samples for one job.

use serde::{Deserialize, Serialize};

use crate::ids::JobId;

/// Dense per-node, per-minute power samples for one job.
///
/// Stored row-major by node: `samples[node * minutes + t]`. Decoding
/// checks the shape the same way [`JobSeries::new`] does, so a
/// misshapen series in a dataset file is an error naming its job.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct JobSeries {
    /// Job this series belongs to.
    pub id: JobId,
    /// Number of nodes (rows).
    nodes: u32,
    /// Number of one-minute samples per node (columns).
    minutes: u32,
    /// Row-major samples in watts.
    samples: Vec<f64>,
}

/// The wire form of a [`JobSeries`], before its shape is checked.
#[derive(Deserialize)]
struct RawJobSeries {
    id: JobId,
    nodes: u32,
    minutes: u32,
    samples: Vec<f64>,
}

impl Deserialize for JobSeries {
    fn deserialize_json(r: &mut serde::json::Reader<'_>) -> Result<Self, serde::json::Error> {
        let RawJobSeries {
            id,
            nodes,
            minutes,
            samples,
        } = RawJobSeries::deserialize_json(r)?;
        let len = samples.len();
        JobSeries::new(id, nodes, minutes, samples).ok_or_else(|| {
            serde::json::Error::msg(format!(
                "series of {id} is misshapen: {nodes} nodes x {minutes} minutes with {len} samples"
            ))
        })
    }
}

impl JobSeries {
    /// Creates a series from a row-major sample buffer.
    ///
    /// Returns `None` if the buffer length does not equal
    /// `nodes * minutes` or either dimension is zero.
    pub fn new(id: JobId, nodes: u32, minutes: u32, samples: Vec<f64>) -> Option<Self> {
        if nodes == 0 || minutes == 0 {
            return None;
        }
        if samples.len() != nodes as usize * minutes as usize {
            return None;
        }
        Some(Self {
            id,
            nodes,
            minutes,
            samples,
        })
    }

    /// Creates a series by copying a row-major sample slice — the
    /// zero-surprise way to materialize a series out of a reusable
    /// scratch arena without giving up the arena's allocation.
    ///
    /// Same validation as [`Self::new`].
    pub fn from_slice(id: JobId, nodes: u32, minutes: u32, samples: &[f64]) -> Option<Self> {
        if nodes == 0 || minutes == 0 {
            return None;
        }
        if samples.len() != nodes as usize * minutes as usize {
            return None;
        }
        Some(Self {
            id,
            nodes,
            minutes,
            samples: samples.to_vec(),
        })
    }

    /// Builds a series by evaluating `f(node, minute)`.
    pub fn from_fn(
        id: JobId,
        nodes: u32,
        minutes: u32,
        mut f: impl FnMut(u32, u32) -> f64,
    ) -> Option<Self> {
        if nodes == 0 || minutes == 0 {
            return None;
        }
        let mut samples = Vec::with_capacity(nodes as usize * minutes as usize);
        for n in 0..nodes {
            for t in 0..minutes {
                samples.push(f(n, t));
            }
        }
        Self::new(id, nodes, minutes, samples)
    }

    /// Number of nodes.
    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    /// Number of samples per node.
    pub fn minutes(&self) -> u32 {
        self.minutes
    }

    /// Power sample for `(node, minute)` in watts.
    #[inline]
    pub fn power(&self, node: u32, minute: u32) -> f64 {
        debug_assert!(node < self.nodes && minute < self.minutes);
        self.samples[node as usize * self.minutes as usize + minute as usize]
    }

    /// All samples of one node.
    pub fn node_row(&self, node: u32) -> &[f64] {
        let m = self.minutes as usize;
        let start = node as usize * m;
        &self.samples[start..start + m]
    }

    /// Mutable access to all samples of one node — the entry point for
    /// fault injection and repair imputation.
    pub fn node_row_mut(&mut self, node: u32) -> &mut [f64] {
        let m = self.minutes as usize;
        let start = node as usize * m;
        &mut self.samples[start..start + m]
    }

    /// Overwrites the sample for `(node, minute)`.
    #[inline]
    pub fn set_power(&mut self, node: u32, minute: u32, watts: f64) {
        debug_assert!(node < self.nodes && minute < self.minutes);
        self.samples[node as usize * self.minutes as usize + minute as usize] = watts;
    }

    /// Whether any sample is NaN or infinite (e.g. a dropout marker).
    pub fn has_non_finite(&self) -> bool {
        self.samples.iter().any(|v| !v.is_finite())
    }

    /// A copy truncated to the first `minutes` samples per node — models
    /// a job killed early by a node crash. Returns `None` if `minutes`
    /// is zero or exceeds the series length.
    pub fn truncated(&self, minutes: u32) -> Option<JobSeries> {
        if minutes == 0 || minutes > self.minutes {
            return None;
        }
        let m = minutes as usize;
        let mut samples = Vec::with_capacity(self.nodes as usize * m);
        for n in 0..self.nodes {
            samples.extend_from_slice(&self.node_row(n)[..m]);
        }
        JobSeries::new(self.id, self.nodes, minutes, samples)
    }

    /// Node-averaged job power at one minute.
    pub fn job_power_at(&self, minute: u32) -> f64 {
        let mut sum = 0.0;
        for n in 0..self.nodes {
            sum += self.power(n, minute);
        }
        sum / self.nodes as f64
    }

    /// Spatial spread (max node - min node) at one minute.
    pub fn spread_at(&self, minute: u32) -> f64 {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for n in 0..self.nodes {
            let p = self.power(n, minute);
            min = min.min(p);
            max = max.max(p);
        }
        max - min
    }

    /// Per-node total energies in watt-minutes.
    pub fn node_energies(&self) -> Vec<f64> {
        (0..self.nodes)
            .map(|n| self.node_row(n).iter().sum())
            .collect()
    }

    /// Per-node power of the whole job: mean over all nodes and minutes.
    pub fn per_node_power(&self) -> f64 {
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// A subsampled copy keeping every `stride`-th minute — models a
    /// monitoring system with a coarser sampling interval. The paper
    /// chose one-minute sampling as the accuracy/overhead sweet spot;
    /// comparing analyses across strides quantifies that choice.
    ///
    /// Returns `None` if the stride is zero or exceeds the series length.
    pub fn subsampled(&self, stride: u32) -> Option<JobSeries> {
        if stride == 0 || stride > self.minutes {
            return None;
        }
        let kept: Vec<u32> = (0..self.minutes).step_by(stride as usize).collect();
        let mut samples = Vec::with_capacity(self.nodes as usize * kept.len());
        for n in 0..self.nodes {
            for &t in &kept {
                samples.push(self.power(n, t));
            }
        }
        JobSeries::new(self.id, self.nodes, kept.len() as u32, samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series() -> JobSeries {
        // 2 nodes, 3 minutes:
        // node0: 100, 110, 120
        // node1: 90,  95, 100
        JobSeries::new(JobId(1), 2, 3, vec![100.0, 110.0, 120.0, 90.0, 95.0, 100.0]).unwrap()
    }

    #[test]
    fn construction_validates_shape() {
        assert!(JobSeries::new(JobId(0), 2, 2, vec![1.0; 3]).is_none());
        assert!(JobSeries::new(JobId(0), 0, 2, vec![]).is_none());
        assert!(JobSeries::new(JobId(0), 2, 0, vec![]).is_none());
    }

    #[test]
    fn indexing() {
        let s = series();
        assert_eq!(s.power(0, 0), 100.0);
        assert_eq!(s.power(0, 2), 120.0);
        assert_eq!(s.power(1, 1), 95.0);
        assert_eq!(s.node_row(1), &[90.0, 95.0, 100.0]);
    }

    #[test]
    fn job_power_and_spread() {
        let s = series();
        assert!((s.job_power_at(0) - 95.0).abs() < 1e-12);
        assert!((s.spread_at(2) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn energies_and_per_node_power() {
        let s = series();
        let e = s.node_energies();
        assert_eq!(e, vec![330.0, 285.0]);
        assert!((s.per_node_power() - 615.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn from_slice_copies_and_validates() {
        let buf = [100.0, 110.0, 120.0, 90.0, 95.0, 100.0];
        let s = JobSeries::from_slice(JobId(1), 2, 3, &buf).unwrap();
        assert_eq!(s, series());
        assert!(JobSeries::from_slice(JobId(0), 2, 2, &buf[..3]).is_none());
        assert!(JobSeries::from_slice(JobId(0), 0, 3, &[]).is_none());
        assert!(JobSeries::from_slice(JobId(0), 2, 0, &[]).is_none());
    }

    #[test]
    fn from_fn_matches_manual() {
        let s = JobSeries::from_fn(JobId(2), 2, 3, |n, t| (n * 10 + t) as f64).unwrap();
        assert_eq!(s.power(1, 2), 12.0);
        assert_eq!(s.power(0, 0), 0.0);
    }

    #[test]
    fn subsampling_keeps_every_stride() {
        let s = JobSeries::from_fn(JobId(3), 2, 10, |n, t| (n * 100 + t) as f64).unwrap();
        let sub = s.subsampled(3).unwrap();
        assert_eq!(sub.minutes(), 4); // minutes 0, 3, 6, 9
        assert_eq!(sub.nodes(), 2);
        assert_eq!(sub.node_row(0), &[0.0, 3.0, 6.0, 9.0]);
        assert_eq!(sub.node_row(1), &[100.0, 103.0, 106.0, 109.0]);
    }

    #[test]
    fn subsampling_stride_one_is_identity() {
        let s = series();
        assert_eq!(s.subsampled(1).unwrap(), s);
    }

    #[test]
    fn subsampling_rejects_bad_strides() {
        let s = series();
        assert!(s.subsampled(0).is_none());
        assert!(s.subsampled(99).is_none());
    }

    #[test]
    fn mutation_helpers() {
        let mut s = series();
        s.set_power(0, 1, f64::NAN);
        assert!(s.has_non_finite());
        s.node_row_mut(0).copy_from_slice(&[1.0, 2.0, 3.0]);
        assert!(!s.has_non_finite());
        assert_eq!(s.node_row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(s.node_row(1), &[90.0, 95.0, 100.0], "other row untouched");
    }

    #[test]
    fn truncation() {
        let s = series();
        let t = s.truncated(2).unwrap();
        assert_eq!(t.minutes(), 2);
        assert_eq!(t.node_row(0), &[100.0, 110.0]);
        assert_eq!(t.node_row(1), &[90.0, 95.0]);
        assert!(s.truncated(0).is_none());
        assert!(s.truncated(4).is_none());
        assert_eq!(s.truncated(3).unwrap(), s);
    }

    #[test]
    fn subsampled_mean_close_to_full_for_flat_series() {
        let s =
            JobSeries::from_fn(JobId(4), 3, 120, |_, t| 100.0 + ((t * 37) % 11) as f64).unwrap();
        let sub = s.subsampled(5).unwrap();
        assert!((sub.per_node_power() - s.per_node_power()).abs() < 2.0);
    }
}
