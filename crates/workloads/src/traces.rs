//! Synthetic cluster traces reproducing the shapes of Fig. 1 and Fig. 2.
//!
//! The paper motivates Mudi with trace analysis from Alibaba inference
//! clusters (Fig. 1) and from the PAI / Seren / Kalos training clusters
//! (Fig. 2). The raw traces are proprietary; these generators reproduce
//! the published distributional anchors so the motivation figures can be
//! regenerated:
//!
//! * Fig. 1(a): QPS fluctuating between 30k and 60k with no periodicity
//!   but occasional inflection points.
//! * Fig. 1(b): per-service GPU utilization far below the requested
//!   allocation — max < 52 %, mean < 37 %.
//! * Fig. 2(a): training GPU-utilization CDFs — ~30 % of time near zero
//!   utilization; in PAI, below 50 % utilization for ~85 % of time.
//! * Fig. 2(b): queueing-delay CDFs with tails beyond 1,000 minutes.

use simcore::{Cdf, SimRng};

use crate::arrivals::FluctuatingQps;

/// A week-long QPS trace sample for Fig. 1(a).
pub fn fig1a_qps_trace(seed: u64, points: usize) -> Vec<(f64, f64)> {
    let mut gen = FluctuatingQps::alibaba_like(SimRng::seed(seed));
    let mut out = Vec::with_capacity(points);
    let mut t = 0.0;
    while out.len() < points {
        let (dwell, qps) = gen.next_segment();
        out.push((t, qps));
        t += dwell.as_secs();
    }
    out
}

/// Per-service GPU utilization summary for Fig. 1(b).
#[derive(Clone, Debug)]
pub struct ServiceUtilization {
    /// Service label.
    pub name: String,
    /// Requested GPU allocation (fraction of a device ×100).
    pub requested: f64,
    /// Observed minimum utilization (%).
    pub min: f64,
    /// Observed mean utilization (%).
    pub mean: f64,
    /// Observed maximum utilization (%).
    pub max: f64,
}

/// Generates the Fig. 1(b) utilization summaries: services request
/// whole GPUs (100 %) but utilize far less — max < 52 %, mean < 37 %.
pub fn fig1b_service_utilization(seed: u64, services: usize) -> Vec<ServiceUtilization> {
    let mut rng = SimRng::seed(seed).fork("fig1b");
    (0..services)
        .map(|i| {
            let mean = rng.uniform(12.0, 37.0);
            let spread = rng.uniform(5.0, 15.0);
            ServiceUtilization {
                name: format!("svc-{i}"),
                requested: 100.0,
                min: (mean - spread).max(1.0),
                mean,
                max: (mean + spread).min(51.9),
            }
        })
        .collect()
}

/// Named cluster whose training-trace shape we reproduce (Fig. 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceCluster {
    /// Alibaba PAI (general DL training).
    Pai,
    /// Shanghai AI Lab Seren (LLM).
    Seren,
    /// Shanghai AI Lab Kalos (LLM).
    Kalos,
}

impl TraceCluster {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            TraceCluster::Pai => "PAI",
            TraceCluster::Seren => "Seren",
            TraceCluster::Kalos => "Kalos",
        }
    }
}

/// GPU-utilization samples (fractions in `[0, 1]`) whose CDF matches
/// the Fig. 2(a) anchors for the given cluster.
pub fn fig2a_training_utilization(cluster: TraceCluster, seed: u64, n: usize) -> Cdf {
    let mut rng = SimRng::seed(seed).fork(cluster.name());
    // Mixture: a near-zero idle mode (~30 % mass), a low-utilization
    // body, and a busy tail. PAI skews lowest (85 % of time < 50 %).
    let (idle_mass, body_hi, tail_lo) = match cluster {
        TraceCluster::Pai => (0.30, 0.50, 0.50),
        TraceCluster::Seren => (0.28, 0.65, 0.55),
        TraceCluster::Kalos => (0.25, 0.75, 0.60),
    };
    let samples: Vec<f64> = (0..n)
        .map(|_| {
            let u = rng.f64();
            if u < idle_mass {
                rng.uniform(0.0, 0.05)
            } else if u < 0.85 {
                rng.uniform(0.05, body_hi)
            } else {
                rng.uniform(tail_lo, 1.0)
            }
        })
        .collect();
    Cdf::from_samples(samples)
}

/// Queueing-delay samples whose CDF matches the Fig. 2(b) anchors:
/// heavy-tailed, with maxima beyond 1,000 minutes.
pub fn fig2b_queueing_delay(cluster: TraceCluster, seed: u64, n: usize) -> Cdf {
    let mut rng = SimRng::seed(seed).fork(cluster.name()).fork("delay");
    let median_mins = match cluster {
        TraceCluster::Pai => 6.0,
        TraceCluster::Seren => 10.0,
        TraceCluster::Kalos => 18.0,
    };
    // Log-normal with a heavy sigma; clip the extreme tail at ~3000 min.
    let sigma: f64 = 1.9;
    let samples: Vec<f64> = (0..n)
        .map(|_| {
            let z = simcore::dist::standard_normal(&mut rng);
            (median_mins * (sigma * z).exp()).min(3000.0)
        })
        .collect();
    Cdf::from_samples(samples)
}

/// Summary row used by the Fig. 2 regeneration binary.
#[derive(Clone, Debug)]
pub struct TrainingTraceSummary {
    /// Which cluster.
    pub cluster: TraceCluster,
    /// Fraction of time at (near-)zero GPU utilization.
    pub frac_near_zero_util: f64,
    /// Fraction of time below 50 % utilization.
    pub frac_below_half_util: f64,
    /// Median queueing delay, minutes.
    pub median_delay_mins: f64,
    /// Maximum queueing delay, minutes.
    pub max_delay_mins: f64,
}

/// Computes the Fig. 2 summary for one cluster.
pub fn fig2_summary(cluster: TraceCluster, seed: u64) -> TrainingTraceSummary {
    let util = fig2a_training_utilization(cluster, seed, 20_000);
    let delay = fig2b_queueing_delay(cluster, seed, 20_000);
    TrainingTraceSummary {
        cluster,
        frac_near_zero_util: util.fraction_at_or_below(0.05),
        frac_below_half_util: util.fraction_at_or_below(0.50),
        median_delay_mins: delay.quantile(0.5).unwrap_or(0.0),
        max_delay_mins: delay.quantile(1.0).unwrap_or(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1a_trace_spans_paper_range() {
        let trace = fig1a_qps_trace(1, 2000);
        assert_eq!(trace.len(), 2000);
        let min = trace.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
        let max = trace.iter().map(|p| p.1).fold(f64::NEG_INFINITY, f64::max);
        assert!(min >= 30_000.0 && max <= 60_000.0);
        assert!(max - min > 20_000.0, "trace too flat: {min}..{max}");
    }

    #[test]
    fn fig1b_utilization_below_52_percent() {
        for s in fig1b_service_utilization(2, 40) {
            assert!(s.max < 52.0, "{} max {}", s.name, s.max);
            assert!(s.mean < 37.0, "{} mean {}", s.name, s.mean);
            assert!(s.min <= s.mean && s.mean <= s.max);
            assert_eq!(s.requested, 100.0);
        }
    }

    #[test]
    fn fig2a_pai_anchors() {
        let s = fig2_summary(TraceCluster::Pai, 3);
        // ~30 % of time near zero utilization.
        assert!(
            (s.frac_near_zero_util - 0.30).abs() < 0.03,
            "{}",
            s.frac_near_zero_util
        );
        // Below 50 % utilization ~85 % of the time in PAI.
        assert!(
            (s.frac_below_half_util - 0.85).abs() < 0.04,
            "{}",
            s.frac_below_half_util
        );
    }

    #[test]
    fn fig2a_other_clusters_are_less_idle_than_pai() {
        let pai = fig2_summary(TraceCluster::Pai, 4);
        let kalos = fig2_summary(TraceCluster::Kalos, 4);
        assert!(kalos.frac_below_half_util < pai.frac_below_half_util);
    }

    #[test]
    fn fig2b_delays_have_1000_minute_tails() {
        for c in [TraceCluster::Pai, TraceCluster::Seren, TraceCluster::Kalos] {
            let s = fig2_summary(c, 5);
            assert!(
                s.max_delay_mins > 1000.0,
                "{:?} max {}",
                c,
                s.max_delay_mins
            );
            assert!(s.median_delay_mins < 60.0);
        }
    }
}
