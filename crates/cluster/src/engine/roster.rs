//! The service roster: which devices serve each service, and the one
//! total-outage rule.
//!
//! Per service, the roster keeps the ascending devices pinned to it
//! ([`DeviceState::service`]) or holding a standby slot for it
//! ([`DeviceState::standby_slot`]). It records assignment only:
//! liveness (device up, standby active, promote pending) is filtered
//! when the roster is read, so fail, repair, promote and demote never
//! touch it. A query visits the devices a fleet scan would match, in
//! the same order, so its results are bit-identical to the scan's.

use gpu_sim::StandbyInstance;
use resilience::FaultDomain;
use simcore::SimTime;
use workloads::ServiceId;

use super::route_hint::RouteHint;
use super::state::{DeviceState, SimState};

/// Per service, the ascending devices assigned to it (each at most
/// once).
pub(super) struct Roster(Vec<Vec<usize>>);

impl Roster {
    pub fn new(n_services: usize, dstate: &[DeviceState]) -> Self {
        let mut lists = vec![Vec::new(); n_services];
        for (d, ds) in dstate.iter().enumerate() {
            lists[ds.service.0].push(d);
            if let Some(s) = ds.standby_slot.filter(|&s| s != ds.service) {
                lists[s.0].push(d);
            }
        }
        Roster(lists)
    }

    pub fn of(&self, s: ServiceId) -> &[usize] {
        &self.0[s.0]
    }
}

impl SimState {
    /// Re-pins device `d` to serve `to`: after construction the only
    /// writer of [`DeviceState::service`]. The device stays on the old
    /// service's list when its standby slot covers that service. Marks
    /// the device's [`RouteHint`] stale.
    pub fn repin(&mut self, d: usize, to: ServiceId) {
        self.route_hints[d] = RouteHint::STALE;
        let from = std::mem::replace(&mut self.dstate[d].service, to);
        if self.dstate[d].standby_slot != Some(from) {
            let list = &mut self.roster.0[from.0];
            let at = list.binary_search(&d).expect("on its roster");
            list.remove(at);
        }
        let list = &mut self.roster.0[to.0];
        if let Err(i) = list.binary_search(&d) {
            list.insert(i, d);
        }
    }

    /// The devices pinned to `s`, up or down, ascending.
    pub fn primaries(&self, s: ServiceId) -> impl DoubleEndedIterator<Item = usize> + '_ {
        let roster = self.roster.of(s).iter().copied();
        roster.filter(move |&d| self.dstate[d].service == s)
    }

    /// The up devices pinned to `s`, ascending.
    pub fn up_primaries(&self, s: ServiceId) -> impl DoubleEndedIterator<Item = usize> + '_ {
        self.primaries(s).filter(|&d| self.devices[d].is_up())
    }

    /// Host `h`'s standby when it covers `s`. A standby always covers
    /// its host's slot service (construction and re-seed both take it
    /// from the slot), so every standby of `s` is on `s`'s list.
    pub fn standby_for(&self, h: usize, s: ServiceId) -> Option<&StandbyInstance> {
        let sb = self.devices[h].standby()?;
        debug_assert_eq!(Some(sb.service), self.dstate[h].standby_slot, "device {h}");
        (sb.service == s).then_some(sb)
    }

    /// Whether `s` is in total outage: it has devices assigned, none of
    /// them is up, and no up host carries an active standby of it.
    pub fn service_down(&self, s: ServiceId) -> bool {
        self.primaries(s).next().is_some()
            && self.up_primaries(s).next().is_none()
            && !self.roster.of(s).iter().any(|&h| {
                self.devices[h].is_up() && self.standby_for(h, s).is_some_and(|sb| sb.is_active())
            })
    }

    /// Counts a total outage of `s` caused by a fault in `domain` and
    /// opens its window at `now` (an open window keeps its start).
    pub fn open_outage(&mut self, s: ServiceId, now: SimTime, domain: FaultDomain) {
        self.fmetrics.service_outages += 1;
        if domain.is_correlated() {
            self.fmetrics.correlated_outages += 1;
        }
        self.outage_start[s.0].get_or_insert(now);
    }

    /// Closes `s`'s open total-outage window, if any, at `now`.
    pub fn close_outage(&mut self, s: ServiceId, now: SimTime) {
        if let Some(start) = self.outage_start[s.0].take() {
            self.fmetrics.service_outage_secs += now.since(start).as_secs();
        }
    }
}
