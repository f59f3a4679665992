//! Discrete-event simulation engine and metric primitives.
//!
//! This crate is the foundation of the Mudi reproduction: it provides a
//! deterministic discrete-event scheduler ([`EventQueue`]), simulated time
//! ([`SimTime`], [`SimDuration`]), seeded random-number utilities and
//! probability distributions ([`rng`], [`dist`]), and streaming metric
//! sinks used by every experiment (Welford statistics, time-weighted
//! utilization integrators, CDF builders, order-fixed folds), and a
//! scoped worker pool ([`pool`]) that fans independent experiment
//! cells out across cores without changing their output.
//!
//! Everything is deterministic given a seed: experiments in the paper
//! reproduction can be re-run bit-for-bit.

#![forbid(unsafe_code)]

pub mod dist;
pub mod env;
pub mod event;
pub mod hash;
pub mod metrics;
pub mod pool;
pub mod rng;
pub mod shard;
pub mod time;
pub mod topology;
pub mod trace;

pub use dist::{
    lognormal_exceedance, lognormal_tail_is_zero, normal_cdf, normal_quantile, Exponential,
    LogNormal, Normal, Poisson,
};
pub use event::{EventQueue, ScheduledEvent};
pub use hash::{MulBuildHasher, MulHasher};
pub use metrics::{
    fold_ordered, tree_fold, Cdf, StreamingStats, TreeFolder, UtilizationIntegrator,
};
pub use pool::{fan_out, max_workers, scoped_map, scoped_map_workers};
pub use rng::{MergeKey, SimRng};
pub use shard::ShardMap;
pub use time::{SimDuration, SimTime};
pub use topology::{Topology, TopologyShape};
pub use trace::{
    FaultClass, SimEvent, SimEventKind, TraceBus, TraceConfig, TraceSummary, TracedEvent,
};
