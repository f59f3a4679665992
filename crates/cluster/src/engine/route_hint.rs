//! The request path's routing table: one [`RouteHint`] per device,
//! kept dense in [`SimState::route_hints`] beside `devices` and sliced
//! per lane like it, so the replica scan
//! (`ClusterSession::scan`) can rule out a replica that cannot win by
//! reading 16 bytes instead of its device record.
//!
//! The retune keeps the table current, and the scan only reads it. A
//! retune that moves its primary's profile key, or that finds the
//! device's entry stale, writes a fresh entry
//! ([`LaneCtx::refresh_route`]). Every other write that can change what
//! an entry stands for marks it stale until the device's next retune.
//! Those writes are
//! - training placement, completion and eviction, and every training
//!   re-split outside a retune;
//! - slowdown start and end and the post-repair burn-in;
//! - failure, repair and redeploy;
//! - standby seed, promote and demote, the barrier's `StandbyQps`
//!   refresh included;
//! - the session's `deploy_replica` and [`SimState::repin`].
//!
//! All but the slowdown end go through [`SimState::device_mut`]; the
//! slowdown end, a lane handler, calls [`LaneCtx::invalidate_route`].
//! QPS is not part of the key: a QPS change writes nothing. A stale
//! entry costs the scan one device read, never a wrong choice.

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
/// current key (service, batch, effective share, co-location view). A
/// retune leaves its up primary's entry fresh; a serial write marks it
/// stale until the next retune (the module docs list those writes).
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

    /// The mean when the entry is fresh for `service`.
    pub fn mean_for(self, service: ServiceId) -> Option<f64> {
        (self.service == service.0).then_some(self.mean)
    }

    /// The service and mean of a fresh entry.
    #[cfg(test)]
    pub fn entry(self) -> Option<(ServiceId, f64)> {
        (!self.is_stale()).then_some((ServiceId(self.service), self.mean))
    }

    /// Whether the entry answers nothing.
    pub fn is_stale(self) -> bool {
        self.service == RouteHint::STALE.service
    }

    /// `dev`'s entry at its current key: its up primary's profile mean
    /// through the device memo, at the configured batch, the effective
    /// share `(gpu_fraction × perf_factor).max(0.01)` and the inference
    /// co-location view; stale when the device is down or has no
    /// primary.
    fn of(dev: &GpuDevice, gt: &GroundTruth) -> RouteHint {
        let Some(inf) = dev.inference().filter(|_| dev.is_up()) else {
            return RouteHint::STALE;
        };
        let frac = (inf.gpu_fraction * dev.perf_factor()).max(0.01);
        let mean = dev.with_inference_colo(|colo| {
            dev.latency_profile(gt, inf.service, inf.batch, frac, colo)
                .0
        });
        RouteHint {
            mean,
            service: inf.service.0,
        }
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

    /// Writes device `d`'s [`RouteHint`] fresh from its current key.
    pub fn refresh_route(&mut self, d: usize) {
        let li = d - self.base;
        self.route_hints[li] = RouteHint::of(&self.devices[li], self.gt);
    }
}
