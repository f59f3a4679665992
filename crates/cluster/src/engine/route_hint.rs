//! The request path's routing table: one [`RouteHint`] per device,
//! kept dense in [`SimState::route_hints`] beside `devices` and sliced
//! per lane like it, so the replica scan
//! (`ClusterSession::scan`) can rule out a replica that cannot win by
//! reading 16 bytes instead of its device record.
//!
//! The table is filled lazily: the scan refreshes an entry from the mean
//! it reads off a device, and every write that can change what an entry
//! stands for marks it stale. Those writes are
//! - a retune that moves the batch, the GPU share or a training share
//!   (`control::reconfigure`, through [`LaneCtx::invalidate_route`]);
//! - training placement, completion and eviction, and every training
//!   re-split outside a retune;
//! - slowdown start and end and the post-repair burn-in;
//! - failure, repair and redeploy;
//! - standby seed, promote and demote, the barrier's `StandbyQps`
//!   refresh included;
//! - the session's `deploy_replica` and [`SimState::repin`].
//!
//! All but the retune and the slowdown end go through
//! [`SimState::device_mut`]. QPS is not part of the key: a QPS change
//! writes nothing.

use gpu_sim::GpuDevice;
use workloads::{GroundTruth, ServiceId};

use super::state::{LaneCtx, SimState};

/// One device's entry in the request path's routing table: the service
/// its up primary serves and that primary's latency-profile mean at the
/// device's current key, or stale. A fresh entry stands for "up, primary
/// of this service, and this is its mean", so the replica scan can skip a
/// replica that cannot win without reading its [`GpuDevice`].
///
/// Invariant: a fresh entry equals the profile mean at the device's
/// current key (service, batch, effective share, co-location view).
/// Only the scan writes a fresh entry; the module docs list the writes
/// that mark one stale.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(super) struct RouteHint {
    mean: f64,
    /// The primary's service id; `usize::MAX`, which no zoo service
    /// has, when stale.
    service: usize,
}

const _: () = assert!(std::mem::size_of::<RouteHint>() <= 16);

impl RouteHint {
    /// An entry that answers nothing.
    pub const STALE: RouteHint = RouteHint {
        mean: f64::NAN,
        service: usize::MAX,
    };

    /// A fresh entry: the device's up primary serves `service` with
    /// profile mean `mean`.
    pub fn fresh(service: ServiceId, mean: f64) -> Self {
        RouteHint {
            mean,
            service: service.0,
        }
    }

    /// The mean when the entry is fresh for `service`.
    pub fn mean_for(self, service: ServiceId) -> Option<f64> {
        (self.service == service.0).then_some(self.mean)
    }
}

impl SimState {
    /// Device `d` (with the ground truth its writes take) for a write
    /// that may change its primary's profile key, its liveness or its
    /// primary, with its [`RouteHint`] marked stale. QPS writes go to
    /// `devices` directly: QPS is not part of the key.
    pub fn device_mut(&mut self, d: usize) -> (&mut GpuDevice, &GroundTruth) {
        self.route_hints[d] = RouteHint::STALE;
        (&mut self.devices[d], &self.shared.gt)
    }
}

impl LaneCtx<'_> {
    /// Marks device `d`'s [`RouteHint`] stale, after a write that
    /// changed its primary's profile key.
    pub fn invalidate_route(&mut self, d: usize) {
        self.route_hints[d - self.base] = RouteHint::STALE;
    }
}
