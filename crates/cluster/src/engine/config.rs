//! Run configuration: scale presets and the config builder.
//!
//! The three historical constructors (`physical`, `simulated`, `tiny`)
//! are thin wrappers over one [`ClusterConfigBuilder`] seeded by a
//! [`ScalePreset`], so the shared defaults exist in exactly one place
//! and the presets cannot drift apart.

use mudi::policy::QueuePolicy;
use resilience::FaultProfile;
use simcore::TopologyShape;
use workloads::BurstSchedule;

use crate::systems::SystemKind;

/// The scale preset a config builder starts from. Each preset fixes
/// the fields that differ between the paper's two clusters (and the
/// reduced test scale); everything else shares one set of defaults.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScalePreset {
    /// 12 GPUs, 300 tasks (§7.1 physical cluster).
    Physical,
    /// 1000 GPUs, 5000 tasks, arrivals ×80 (§7.1 simulated cluster).
    Simulated,
    /// 6 GPUs, 24 tasks — reduced scale for tests and smoke benches.
    Tiny,
}

/// Full run configuration.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// System under test.
    pub system: SystemKind,
    /// Number of GPU devices.
    pub devices: usize,
    /// Number of training jobs to submit.
    pub jobs: usize,
    /// Experiment seed.
    pub seed: u64,
    /// Global QPS multiplier (Fig. 15 uses 1×–4×).
    pub load_multiplier: f64,
    /// Optional burst schedule applied on top of the fluctuating QPS.
    pub burst: Option<BurstSchedule>,
    /// Queue policy for pending training tasks.
    pub policy: QueuePolicy,
    /// Mean dwell time of a QPS segment, seconds.
    pub qps_dwell_secs: f64,
    /// Base training-task arrival rate, tasks/second.
    pub arrival_rate: f64,
    /// Arrival scaling factor (×80 in the simulated cluster).
    pub arrival_scale: f64,
    /// Interval between cluster-utilization samples, seconds.
    pub util_sample_secs: f64,
    /// Safety cap on simulated time, seconds.
    pub max_sim_secs: f64,
    /// Optional fault injection + recovery profile. `None` reproduces
    /// the paper's fault-free runs exactly.
    pub faults: Option<FaultProfile>,
    /// The rack/node hierarchy devices are laid out over. Defaults to
    /// [`TopologyShape::from_env`] (`MUDI_TOPOLOGY=RxN`, else 4×2).
    /// Only consulted when faults are injected: correlated outages
    /// expand over it, and reliability-aware systems stripe same-
    /// service replicas across racks. Fault-free runs keep the paper's
    /// flat layout regardless, so topology never perturbs the
    /// fault-free reproduction.
    pub topology: TopologyShape,
    /// Requested engine shard count (rack-aligned event-queue
    /// partitions). `0` means auto: one shard for small clusters, up to
    /// `min(racks, workers)` once the cluster is large enough that
    /// sharding pays for itself. Any request is clamped to the rack
    /// count; the `MUDI_SHARDS` environment variable overrides this
    /// field. Results are bit-identical at every shard count.
    pub shards: usize,
    /// Length of one stepping epoch window, simulated seconds: windows
    /// end at multiples of this, and each runs the lane phase, the
    /// barrier merge and the global phase. The window grid is the same
    /// at every shard count. Within a window a lane may advance a
    /// device past a later global event, which then clamps to the
    /// device's accrual watermark; shorter epochs bound that lag,
    /// longer epochs amortize the per-epoch barrier cost.
    pub shard_epoch_secs: f64,
    /// Parallel lane workers for the sharded stepping kernel. `0`
    /// means auto: resolve from the environment (`MUDI_THREADS`, else
    /// the core count) at engine construction. The worker count never
    /// affects simulated numbers — lanes commit through a
    /// merge-key-sorted barrier — only wall-clock time, so tests can
    /// pin it per-config without touching process-global state.
    pub workers: usize,
    /// Serve from the LLM-extended catalogue ([`workloads::Zoo::with_llms`]):
    /// the six classifier services plus generative LLM entries with
    /// per-token SLOs, continuous batching, and KV-cache pressure.
    /// Defaults to `false` — classifier-only configs never construct a
    /// generative service, never enter the decode accrual path, and
    /// stay byte-identical to the pre-LLM engine.
    pub llm_services: bool,
}

/// Builds a [`ClusterConfig`] from a scale preset plus overrides.
#[derive(Clone, Debug)]
pub struct ClusterConfigBuilder {
    config: ClusterConfig,
}

impl ClusterConfigBuilder {
    /// Starts from the given preset's scale parameters and the shared
    /// defaults (1× load, no burst, FCFS queue, no faults, topology
    /// from the environment).
    pub fn new(preset: ScalePreset, system: SystemKind, seed: u64) -> Self {
        let (devices, jobs, qps_dwell_secs, arrival_rate, arrival_scale, util_sample_secs, days) =
            match preset {
                ScalePreset::Physical => (12, 300, 45.0, 0.02, 1.0, 300.0, 40.0),
                ScalePreset::Simulated => (1000, 5000, 120.0, 0.02, 80.0, 900.0, 40.0),
                ScalePreset::Tiny => (6, 24, 45.0, 0.05, 1.0, 600.0, 20.0),
            };
        ClusterConfigBuilder {
            config: ClusterConfig {
                system,
                devices,
                jobs,
                seed,
                load_multiplier: 1.0,
                burst: None,
                policy: QueuePolicy::Fcfs,
                qps_dwell_secs,
                arrival_rate,
                arrival_scale,
                util_sample_secs,
                max_sim_secs: days * 24.0 * 3600.0,
                faults: None,
                topology: TopologyShape::from_env(),
                shards: 0,
                shard_epoch_secs: 60.0,
                workers: 0,
                llm_services: false,
            },
        }
    }

    /// Overrides the device count.
    pub fn devices(mut self, devices: usize) -> Self {
        self.config.devices = devices;
        self
    }

    /// Overrides the job count.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.config.jobs = jobs;
        self
    }

    /// Overrides the global QPS multiplier.
    pub fn load_multiplier(mut self, mult: f64) -> Self {
        self.config.load_multiplier = mult;
        self
    }

    /// Applies a burst schedule on top of the fluctuating QPS.
    pub fn burst(mut self, burst: BurstSchedule) -> Self {
        self.config.burst = Some(burst);
        self
    }

    /// Overrides the pending-queue policy.
    pub fn policy(mut self, policy: QueuePolicy) -> Self {
        self.config.policy = policy;
        self
    }

    /// Overrides the base training-task arrival rate (tasks/second).
    pub fn arrival_rate(mut self, rate: f64) -> Self {
        self.config.arrival_rate = rate;
        self
    }

    /// Overrides the arrival scaling factor.
    pub fn arrival_scale(mut self, scale: f64) -> Self {
        self.config.arrival_scale = scale;
        self
    }

    /// Enables fault injection with the given profile.
    pub fn faults(mut self, profile: FaultProfile) -> Self {
        self.config.faults = Some(profile);
        self
    }

    /// Overrides the rack/node topology shape.
    pub fn topology(mut self, shape: TopologyShape) -> Self {
        self.config.topology = shape;
        self
    }

    /// Overrides the simulated-time safety cap.
    pub fn max_sim_secs(mut self, secs: f64) -> Self {
        self.config.max_sim_secs = secs;
        self
    }

    /// Requests an explicit engine shard count (`0` = auto). The
    /// engine clamps to the rack count; `MUDI_SHARDS` overrides.
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shards = shards;
        self
    }

    /// Overrides the sharded stepping epoch length (simulated seconds).
    pub fn shard_epoch_secs(mut self, secs: f64) -> Self {
        self.config.shard_epoch_secs = secs.max(1.0);
        self
    }

    /// Requests an explicit lane worker count (`0` = auto from
    /// `MUDI_THREADS` / core count). Affects wall-clock only; simulated
    /// numbers are worker-count-invariant.
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Serves from the LLM-extended catalogue (classifier + generative
    /// mixed fleet).
    pub fn llm_services(mut self, on: bool) -> Self {
        self.config.llm_services = on;
        self
    }

    /// Finishes the build.
    pub fn build(self) -> ClusterConfig {
        self.config
    }
}

impl ClusterConfig {
    /// A builder starting from `preset`'s scale parameters.
    pub fn builder(preset: ScalePreset, system: SystemKind, seed: u64) -> ClusterConfigBuilder {
        ClusterConfigBuilder::new(preset, system, seed)
    }

    /// The physical-cluster preset (12 GPUs, 300 tasks).
    pub fn physical(system: SystemKind, seed: u64) -> Self {
        Self::builder(ScalePreset::Physical, system, seed).build()
    }

    /// The simulated-cluster preset (1000 GPUs, 5000 tasks, ×80).
    pub fn simulated(system: SystemKind, seed: u64) -> Self {
        Self::builder(ScalePreset::Simulated, system, seed).build()
    }

    /// A reduced-scale preset for tests and smoke benches.
    pub fn tiny(system: SystemKind, seed: u64) -> Self {
        Self::builder(ScalePreset::Tiny, system, seed).build()
    }

    /// Enables fault injection with the given profile.
    pub fn with_faults(mut self, profile: FaultProfile) -> Self {
        self.faults = Some(profile);
        self
    }

    /// The multiplier the burst schedule applies at `now`.
    pub(super) fn burst_multiplier(&self, now: simcore::SimTime) -> f64 {
        self.burst.as_ref().map_or(1.0, |b| b.multiplier_at(now))
    }
}
