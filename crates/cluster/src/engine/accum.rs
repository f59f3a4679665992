//! Per-device mergeable accumulator partials and their fixed-shape
//! fold.
//!
//! Every float a lane accrues concurrently lands in its device's
//! [`DevAccum`] instead of in a global table. The partials are reduced
//! by a fixed device-ascending tree fold ([`ServiceFold`] /
//! [`SimState::folded_fmetrics`](super::state::SimState::folded_fmetrics))
//! whose shape depends only on the replica count — never on the shard
//! or worker partition — so the folded sums are bit-identical across
//! the whole (shards, workers) grid.

use simcore::TreeFolder;
use workloads::ServiceId;

use crate::metrics::{ServiceMetrics, ServiceTable};

/// One device's accumulator partials.
pub(super) struct DevAccum {
    /// Per-service metric partials this device accrued.
    pub svc: SvcPartials,
    /// Partial of [`FaultMetrics::dropped_requests`](crate::metrics::FaultMetrics::dropped_requests).
    pub dropped_requests: f64,
    /// Partial of [`FaultMetrics::rerouted_requests`](crate::metrics::FaultMetrics::rerouted_requests).
    pub rerouted_requests: f64,
    /// Partial of [`FaultMetrics::standby_reserved_gpu_secs`](crate::metrics::FaultMetrics::standby_reserved_gpu_secs).
    pub standby_reserved_gpu_secs: f64,
    /// Partial of [`FaultMetrics::standby_served_requests`](crate::metrics::FaultMetrics::standby_served_requests).
    pub standby_served_requests: f64,
}

impl DevAccum {
    pub fn new() -> Self {
        DevAccum {
            svc: SvcPartials::default(),
            dropped_requests: 0.0,
            rerouted_requests: 0.0,
            standby_reserved_gpu_secs: 0.0,
            standby_served_requests: 0.0,
        }
    }

    /// The metric partial for `id` on this device (created on first
    /// touch).
    pub fn svc_entry(&mut self, id: ServiceId) -> &mut ServiceMetrics {
        let svc = &mut self.svc;
        match svc.first {
            None => &mut svc.first.insert((id, ServiceMetrics::default())).1,
            Some((s, _)) if s == id => &mut svc.first.as_mut().expect("matched").1,
            Some(_) => {
                let i = match svc.rest.iter().position(|(s, _)| *s == id) {
                    Some(i) => i,
                    None => {
                        svc.rest.push((id, ServiceMetrics::default()));
                        svc.rest.len() - 1
                    }
                };
                &mut svc.rest[i].1
            }
        }
    }
}

/// A device's per-service metric partials, in first-touch order
/// ([`DevAccum::svc_entry`] finds or inserts).
///
/// Nearly every device only ever accrues its primary service, so the
/// first partial lives inline in the device's dense state. A device
/// that touches a second service (a hosted standby, a session
/// redeploy) spills the later ones to a vec that stays unallocated
/// until then; a device touches at most a few services, so a linear
/// scan finds them.
#[derive(Default)]
pub(super) struct SvcPartials {
    first: Option<(ServiceId, ServiceMetrics)>,
    rest: Vec<(ServiceId, ServiceMetrics)>,
}

impl SvcPartials {
    /// Every partial, in first-touch order.
    pub fn iter(&self) -> impl Iterator<Item = (ServiceId, &ServiceMetrics)> {
        self.first.iter().chain(&self.rest).map(|(id, m)| (*id, m))
    }
}

/// The device-ascending tree fold of the per-device service partials:
/// one [`TreeFolder`] per service, fed one device at a time, so a
/// caller can fold each device right after accruing it. Every service
/// sees its partials in device order and folds them in the fixed
/// [`simcore::tree_fold`] shape, so the result does not depend on the
/// shard or worker partition.
pub(super) struct ServiceFold(Vec<TreeFolder<ServiceMetrics>>);

impl ServiceFold {
    /// A fold over services `0..n` (service ids are dense).
    pub fn new(n: usize) -> Self {
        ServiceFold((0..n).map(|_| TreeFolder::new()).collect())
    }

    /// Folds in the next device's partials (call in ascending device
    /// order).
    pub fn push(&mut self, acc: &DevAccum) {
        for (id, m) in acc.svc.iter() {
            self.0[id.0].push(m.clone(), merge_metrics);
        }
    }

    /// The folded table: an entry exists for every service some device
    /// holds a partial of.
    pub fn finish(self) -> ServiceTable {
        let mut table = ServiceTable::new(self.0.len());
        for (i, folder) in self.0.into_iter().enumerate() {
            if let Some(m) = folder.finish(merge_metrics) {
                *table.entry(ServiceId(i)) = m;
            }
        }
        table
    }
}

fn merge_metrics(mut a: ServiceMetrics, b: ServiceMetrics) -> ServiceMetrics {
    a.merge(&b);
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::assert_tables_bit_equal;

    /// Accrues a distinct, non-trivial amount into `id`'s partial.
    fn touch(acc: &mut DevAccum, id: usize, x: f64) {
        let m = acc.svc_entry(ServiceId(id));
        m.requests += x;
        m.violations += x / 7.0;
        m.p99_stats.record(x * 0.013);
    }

    #[test]
    fn partials_are_found_again_and_iterate_in_first_touch_order() {
        let mut acc = DevAccum::new();
        for (id, x) in [(2, 1.5), (0, 2.25), (3, 0.1), (0, 4.0), (2, 8.0), (3, 0.3)] {
            touch(&mut acc, id, x);
        }
        // A repeat touch returns the same partial: each service keeps
        // one entry holding the sum of its touches.
        let got: Vec<(usize, f64, u64)> = acc
            .svc
            .iter()
            .map(|(id, m)| (id.0, m.requests, m.p99_stats.count()))
            .collect();
        assert_eq!(got, [(2, 9.5, 2), (0, 6.25, 2), (3, 0.4, 2)]);
        let first = acc.svc_entry(ServiceId(2)) as *const ServiceMetrics;
        assert_eq!(first, acc.svc_entry(ServiceId(2)) as *const ServiceMetrics);
        let later = acc.svc_entry(ServiceId(3)) as *const ServiceMetrics;
        assert_eq!(later, acc.svc_entry(ServiceId(3)) as *const ServiceMetrics);
        // Only the services after the first spilled.
        assert_eq!(acc.svc.rest.len(), 2);
    }

    #[test]
    fn a_device_with_one_service_never_allocates_its_spill() {
        let mut acc = DevAccum::new();
        for x in [1.0, 2.0, 3.0] {
            touch(&mut acc, 4, x);
        }
        assert_eq!(acc.svc.rest.capacity(), 0);
        assert_eq!(acc.svc.iter().count(), 1);
    }

    #[test]
    fn service_fold_matches_folding_plain_partial_vecs() {
        // Device 0 touches three services in a fixed order, device 1
        // two of them in another; the old layout kept each device's
        // partials in a plain vec in the same order.
        let touches: [&[(usize, f64)]; 2] = [
            &[(2, 1.5), (0, 2.25), (1, 0.1), (0, 4.0)],
            &[(1, 3.5), (2, 0.7), (1, 1e-3)],
        ];
        let n = 3;
        let mut fold = ServiceFold::new(n);
        let mut plain: Vec<Vec<(ServiceId, ServiceMetrics)>> = Vec::new();
        for dev in touches {
            let mut acc = DevAccum::new();
            let mut vec: Vec<(ServiceId, ServiceMetrics)> = Vec::new();
            for &(id, x) in dev {
                touch(&mut acc, id, x);
                let i = vec.iter().position(|(s, _)| s.0 == id).unwrap_or_else(|| {
                    vec.push((ServiceId(id), ServiceMetrics::default()));
                    vec.len() - 1
                });
                let m = &mut vec[i].1;
                m.requests += x;
                m.violations += x / 7.0;
                m.p99_stats.record(x * 0.013);
            }
            fold.push(&acc);
            plain.push(vec);
        }
        let mut want = ServiceTable::new(n);
        for i in 0..n {
            let parts = plain
                .iter()
                .flatten()
                .filter(|(s, _)| s.0 == i)
                .map(|(_, m)| m.clone());
            if let Some(m) = simcore::tree_fold(parts, merge_metrics) {
                *want.entry(ServiceId(i)) = m;
            }
        }
        assert_tables_bit_equal(&fold.finish(), &want, n);
    }
}
