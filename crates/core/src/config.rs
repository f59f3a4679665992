//! Mudi's tunable constants, with the paper's defaults.

/// System-wide configuration.
#[derive(Clone, Debug)]
pub struct MudiConfig {
    /// Candidate batching sizes explored by the Tuner. The paper
    /// profiles {16, …, 512} (§4.1.1) and notes batching can go as low
    /// as 2 (§2.2.2 C3); small sizes are required to meet tight SLOs at
    /// low QPS, so the candidate set spans 2..=512.
    pub batch_candidates: Vec<u32>,
    /// Batching sizes used by the Offline Profiler (§4.1.1).
    pub profile_batches: Vec<u32>,
    /// GPU% grid profiled offline: 10 %–90 % in 10 % steps (§4.1.1).
    pub profile_fractions: Vec<f64>,
    /// Number of profiling samples used per piece-wise fit — the paper
    /// picks 6 to balance overhead and accuracy (Tab. 2).
    pub samples_per_fit: usize,
    /// Latency observations averaged per profiled point.
    pub observations_per_point: usize,
    /// Minimum GPU fraction an inference service may shrink to.
    pub min_inference_fraction: f64,
    /// Maximum GPU fraction an inference service may take (leaving at
    /// least this headroom for co-located training, §7.4 reserves 10 %).
    pub max_inference_fraction: f64,
    /// GP-LCB evaluation budget (§5.3.1 converges within 25).
    pub bo_max_iters: usize,
    /// Maximum training tasks multiplexed per GPU (1 for Mudi, up to 3
    /// for Mudi-more, §5.5).
    pub max_trainings_per_gpu: usize,
    /// Weight of the per-device reliability prior in the §5.2 score: a
    /// device observed to fault `f` times/day (or still in post-repair
    /// burn-in) has its score inflated by `1 + weight·f` (plus `weight`
    /// while degraded). Zero ignores reliability entirely.
    pub reliability_weight: f64,
    /// Weight of the fault-domain anti-affinity term: a candidate whose
    /// rack already hosts training on fraction `l` of its devices has
    /// its score inflated by `1 + weight·l`, spreading load (and blast
    /// exposure) across racks. Zero reproduces the flat-pool selector.
    pub anti_affinity_weight: f64,
}

impl Default for MudiConfig {
    fn default() -> Self {
        MudiConfig {
            batch_candidates: vec![2, 4, 8, 16, 32, 64, 128, 256, 512],
            profile_batches: vec![16, 32, 64, 128, 256, 512],
            profile_fractions: (1..=9).map(|i| i as f64 * 0.1).collect(),
            samples_per_fit: 6,
            observations_per_point: 200,
            min_inference_fraction: 0.05,
            max_inference_fraction: 0.90,
            bo_max_iters: 25,
            max_trainings_per_gpu: 1,
            reliability_weight: 0.25,
            anti_affinity_weight: 0.15,
        }
    }
}

impl MudiConfig {
    /// The Mudi-more variant: up to three co-located training tasks.
    pub fn more() -> Self {
        MudiConfig {
            max_trainings_per_gpu: 3,
            ..Self::default()
        }
    }

    /// The flat-pool ablation: reliability prior and fault-domain
    /// anti-affinity both disabled, reproducing the topology-blind
    /// §5.2 selector exactly.
    pub fn flat() -> Self {
        MudiConfig {
            reliability_weight: 0.0,
            anti_affinity_weight: 0.0,
            ..Self::default()
        }
    }

    /// Batch candidates as `f64` for the BO search space.
    pub fn batch_candidates_f64(&self) -> Vec<f64> {
        self.batch_candidates.iter().map(|&b| b as f64).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = MudiConfig::default();
        assert_eq!(c.profile_batches, vec![16, 32, 64, 128, 256, 512]);
        assert_eq!(c.profile_fractions.len(), 9);
        assert!((c.profile_fractions[0] - 0.1).abs() < 1e-12);
        assert!((c.profile_fractions[8] - 0.9).abs() < 1e-12);
        assert_eq!(c.samples_per_fit, 6);
        assert_eq!(c.bo_max_iters, 25);
        assert_eq!(c.max_trainings_per_gpu, 1);
    }

    #[test]
    fn more_variant_allows_three() {
        assert_eq!(MudiConfig::more().max_trainings_per_gpu, 3);
    }

    #[test]
    fn flat_variant_disables_topology_terms() {
        let c = MudiConfig::flat();
        assert_eq!(c.reliability_weight, 0.0);
        assert_eq!(c.anti_affinity_weight, 0.0);
        assert!(MudiConfig::default().reliability_weight > 0.0);
        assert!(MudiConfig::default().anti_affinity_weight > 0.0);
    }
}
