//! Experiment-level metrics: everything §7 reports.

use std::collections::HashMap;

use simcore::StreamingStats;
use workloads::ServiceId;

/// Pairwise sum combiner for `(numerator, denominator)` partials.
fn sum2(a: (f64, f64), b: (f64, f64)) -> (f64, f64) {
    (a.0 + b.0, a.1 + b.1)
}

/// `num / den`, or zero when nothing accrued.
fn ratio_or_zero(folded: Option<(f64, f64)>) -> f64 {
    match folded {
        Some((v, r)) if r > 0.0 => v / r,
        _ => 0.0,
    }
}

/// Per-service SLO accounting.
#[derive(Clone, Debug, Default)]
pub struct ServiceMetrics {
    /// Requests served (analytic accrual).
    pub requests: f64,
    /// Requests whose end-to-end latency exceeded the SLO. For
    /// generative services this is the request-level (TTFT) count, so
    /// the request-weighted aggregates stay comparable across fleets.
    pub violations: f64,
    /// Time-weighted mean of the P99 batch latency, seconds. For
    /// generative services the recorded latency is the p99 inter-token
    /// latency of the running decode batch.
    pub p99_stats: StreamingStats,
    /// Tokens generated (decode steps, analytic accrual). Identically
    /// zero for classifier services, which keeps their canonical text
    /// byte-identical to the pre-LLM renderer.
    pub tokens: f64,
    /// Tokens whose inter-token latency exceeded the per-token SLO.
    pub itl_violations: f64,
    /// Requests whose time-to-first-token exceeded the TTFT SLO.
    pub ttft_violations: f64,
}

impl ServiceMetrics {
    /// SLO violation rate in `[0, 1]`.
    pub fn violation_rate(&self) -> f64 {
        if self.requests <= 0.0 {
            0.0
        } else {
            (self.violations / self.requests).clamp(0.0, 1.0)
        }
    }

    /// Folds another partial accumulator into this one: float fields
    /// sum, the P99 stream merges via parallel Welford. The commit
    /// barrier reduces per-device partials with this in device-ascending
    /// order, so the merged value is independent of which worker
    /// produced which partial.
    pub fn merge(&mut self, other: &ServiceMetrics) {
        self.requests += other.requests;
        self.violations += other.violations;
        self.p99_stats.merge(&other.p99_stats);
        self.tokens += other.tokens;
        self.itl_violations += other.itl_violations;
        self.ttft_violations += other.ttft_violations;
    }

    /// Time-to-first-token SLO violation rate in `[0, 1]` (per
    /// request). Zero for classifier services.
    pub fn ttft_violation_rate(&self) -> f64 {
        if self.requests <= 0.0 {
            0.0
        } else {
            (self.ttft_violations / self.requests).clamp(0.0, 1.0)
        }
    }
}

/// Dense per-service metrics keyed by [`ServiceId`] index — the
/// kernel-side replacement for `HashMap<ServiceId, ServiceMetrics>` on
/// the hot accrual path. Service ids are assigned densely at zoo
/// construction, so a flat `Vec` plus a touched mask reproduces the
/// map's exact observable behavior (an entry exists iff some accrual
/// touched it) without hashing or allocating per lookup.
#[derive(Clone, Debug, Default)]
pub struct ServiceTable {
    metrics: Vec<ServiceMetrics>,
    touched: Vec<bool>,
}

impl ServiceTable {
    /// A table pre-sized for services `0..n` (no entries exist yet).
    pub fn new(n: usize) -> Self {
        ServiceTable {
            metrics: vec![ServiceMetrics::default(); n],
            touched: vec![false; n],
        }
    }

    /// The metrics slot for `id`, created default on first touch —
    /// exactly `HashMap::entry(id).or_default()`. Ids beyond the
    /// pre-sized range grow the table (allocation then, never after).
    pub fn entry(&mut self, id: ServiceId) -> &mut ServiceMetrics {
        let i = id.0;
        if i >= self.metrics.len() {
            self.metrics.resize_with(i + 1, ServiceMetrics::default);
            self.touched.resize(i + 1, false);
        }
        self.touched[i] = true;
        &mut self.metrics[i]
    }

    /// The metrics for `id`, `None` unless some accrual touched it —
    /// exactly `HashMap::get(&id)`.
    pub fn get(&self, id: ServiceId) -> Option<&ServiceMetrics> {
        if self.touched.get(id.0).copied().unwrap_or(false) {
            Some(&self.metrics[id.0])
        } else {
            None
        }
    }

    /// Number of touched entries.
    pub fn len(&self) -> usize {
        self.touched.iter().filter(|&&t| t).count()
    }

    /// `true` when no entry was ever touched.
    pub fn is_empty(&self) -> bool {
        !self.touched.iter().any(|&t| t)
    }

    /// Drains the touched entries into the `HashMap` form the result
    /// carries, leaving the table empty (capacity retained). The key
    /// set is exactly the set of ids ever passed to
    /// [`ServiceTable::entry`], matching the map it replaced.
    pub fn take_map(&mut self) -> HashMap<ServiceId, ServiceMetrics> {
        let mut out = HashMap::new();
        for (i, touched) in self.touched.iter_mut().enumerate() {
            if std::mem::take(touched) {
                out.insert(ServiceId(i), std::mem::take(&mut self.metrics[i]));
            }
        }
        out
    }
}

/// Tuning/multiplexing overhead statistics (Fig. 18).
#[derive(Clone, Debug, Default)]
pub struct OverheadMetrics {
    /// GP-LCB iterations per tuning pass.
    pub bo_iterations: Vec<usize>,
    /// Wall-clock placement-decision latency, seconds.
    pub placement_secs: Vec<f64>,
}

impl OverheadMetrics {
    /// Mean BO iterations.
    pub fn mean_bo_iterations(&self) -> f64 {
        if self.bo_iterations.is_empty() {
            0.0
        } else {
            self.bo_iterations.iter().sum::<usize>() as f64 / self.bo_iterations.len() as f64
        }
    }

    /// Maximum BO iterations.
    pub fn max_bo_iterations(&self) -> usize {
        self.bo_iterations.iter().copied().max().unwrap_or(0)
    }

    /// Mean placement latency in milliseconds.
    pub fn mean_placement_ms(&self) -> f64 {
        if self.placement_secs.is_empty() {
            0.0
        } else {
            self.placement_secs.iter().sum::<f64>() / self.placement_secs.len() as f64 * 1e3
        }
    }

    /// Maximum placement latency in milliseconds.
    pub fn max_placement_ms(&self) -> f64 {
        self.placement_secs.iter().cloned().fold(0.0, f64::max) * 1e3
    }
}

/// Fault-injection and recovery accounting for one run.
#[derive(Clone, Debug, Default)]
pub struct FaultMetrics {
    /// Hard device failures injected.
    pub device_failures: usize,
    /// Transient slowdown episodes injected.
    pub slowdowns: usize,
    /// Training-process crashes injected.
    pub process_crashes: usize,
    /// MPS-daemon failures injected (cold restart of every resident).
    pub mps_failures: usize,
    /// Training jobs evicted by device failures.
    pub training_evictions: usize,
    /// Inference replicas whose traffic was re-routed to survivors.
    pub inference_failovers: usize,
    /// Iterations redone because faults rolled jobs back to their last
    /// checkpoint.
    pub lost_iterations: f64,
    /// Requests served by surviving replicas on behalf of failed ones.
    pub rerouted_requests: f64,
    /// Requests with no surviving replica to serve them — all counted
    /// as SLO violations, never silently dropped.
    pub dropped_requests: f64,
    /// Cumulative device downtime, seconds (summed over devices).
    pub device_down_secs: f64,
    /// Cumulative training outage from process/MPS restarts, seconds
    /// (summed over affected processes).
    pub restart_downtime_secs: f64,
    /// Times a fault left a service down: no live replica and no
    /// active standby (total outage). Either the blast swallowed every
    /// replica with no standby to promote, or the host of the last
    /// covering standby died.
    pub service_outages: usize,
    /// The subset of `service_outages` triggered by a correlated
    /// (node- or rack-scoped) fault rather than an independent device
    /// failure.
    pub correlated_outages: usize,
    /// Cumulative time services spent with zero live replicas, seconds
    /// (summed over services; all traffic in these windows is counted
    /// as dropped + violated).
    pub service_outage_secs: f64,
    /// Training checkpoints written (period boundaries crossed).
    pub checkpoint_writes: u64,
    /// Cumulative running time spent writing checkpoints, seconds.
    pub checkpoint_write_secs: f64,
    /// Warm-standby shadow instances seeded into the pool at start.
    pub standby_slots: usize,
    /// Standby promotions that completed (standby took over traffic).
    pub standby_promotions: usize,
    /// Standbys drained back to idle / re-seeded after a repair.
    pub standby_reseeds: usize,
    /// Standing cost of the pool: reserved GPU%-seconds, idle or
    /// active, summed over devices.
    pub standby_reserved_gpu_secs: f64,
    /// Requests served by promoted standbys.
    pub standby_served_requests: f64,
    /// Per-failure time-to-restored-service samples, seconds: the
    /// bounded promote latency when a standby covered, `0` when
    /// survivors absorbed the load instantly, the full repair time when
    /// the traffic dropped.
    pub failover_latency_secs: Vec<f64>,
}

impl FaultMetrics {
    /// Total injected faults of every class.
    pub fn total_faults(&self) -> usize {
        self.device_failures + self.slowdowns + self.process_crashes + self.mps_failures
    }

    /// p99 of the failover-latency samples (nearest-rank over the
    /// sorted list), `0.0` when no replica failure carried traffic.
    pub fn failover_latency_p99(&self) -> f64 {
        if self.failover_latency_secs.is_empty() {
            return 0.0;
        }
        let mut sorted = self.failover_latency_secs.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((sorted.len() as f64) * 0.99).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }
}

/// The full outcome of one end-to-end run.
#[derive(Clone, Debug, Default)]
pub struct ExperimentResult {
    /// System label.
    pub system: String,
    /// Per-service SLO metrics.
    pub services: HashMap<ServiceId, ServiceMetrics>,
    /// Completion-time statistics over finished jobs, seconds.
    pub ct: StreamingStats,
    /// Waiting-time statistics, seconds.
    pub waiting: StreamingStats,
    /// Makespan: first submission to last completion, seconds.
    pub makespan_secs: f64,
    /// Cluster-mean SM utilization (time-weighted).
    pub mean_sm_util: f64,
    /// Cluster-mean memory utilization (time-weighted).
    pub mean_mem_util: f64,
    /// `(time, cluster SM util, cluster mem util)` samples (Fig. 10).
    pub util_series: Vec<(f64, f64, f64)>,
    /// Fraction of time each device spent with memory swapped, averaged
    /// over devices hosting each service (Tab. 4).
    pub swap_time_fraction: HashMap<ServiceId, f64>,
    /// Mean swap transfer time, seconds (Fig. 16 commentary).
    pub mean_swap_transfer_secs: f64,
    /// Tuning / placement overheads (Fig. 18).
    pub overhead: OverheadMetrics,
    /// Fault-injection and recovery accounting (zero in fault-free runs).
    pub faults: FaultMetrics,
    /// Useful training iterations retained at the end of the run (work
    /// lost to rollbacks already excluded).
    pub useful_iterations: f64,
    /// Jobs completed.
    pub jobs_completed: usize,
    /// Jobs submitted.
    pub jobs_submitted: usize,
    /// Wall-clock runtime of the simulation itself, seconds.
    pub wall_clock_secs: f64,
}

impl ExperimentResult {
    /// Training goodput: useful iterations retained per hour of
    /// makespan. Falls with fault rate as rollbacks redo work and
    /// downtime stalls progress.
    pub fn goodput_iters_per_hour(&self) -> f64 {
        if self.makespan_secs <= 0.0 {
            0.0
        } else {
            self.useful_iterations / (self.makespan_secs / 3600.0)
        }
    }

    /// Overall SLO violation rate across services (request-weighted).
    /// Summed in service-id order: `HashMap` iteration order is
    /// unspecified and float addition is order-sensitive, which would
    /// break bit-identical replay.
    pub fn overall_violation_rate(&self) -> f64 {
        let items: Vec<(ServiceId, (f64, f64))> = self
            .services
            .iter()
            .map(|(&s, m)| (s, (m.violations, m.requests)))
            .collect();
        ratio_or_zero(simcore::fold_ordered(items, sum2))
    }

    /// Overall per-token (inter-token latency) SLO violation rate
    /// across services, token-weighted. Summed in service-id order for
    /// the same bit-replay reason as [`Self::overall_violation_rate`].
    /// Zero when no service accrued tokens (classifier-only runs).
    pub fn overall_token_violation_rate(&self) -> f64 {
        let items: Vec<(ServiceId, (f64, f64))> = self
            .services
            .iter()
            .map(|(&s, m)| (s, (m.itl_violations, m.tokens)))
            .collect();
        ratio_or_zero(simcore::fold_ordered(items, sum2))
    }

    /// Overall time-to-first-token SLO violation rate across generative
    /// services (request-weighted over services that accrued tokens).
    pub fn overall_ttft_violation_rate(&self) -> f64 {
        let items: Vec<(ServiceId, (f64, f64))> = self
            .services
            .iter()
            .filter(|(_, m)| m.tokens > 0.0)
            .map(|(&s, m)| (s, (m.ttft_violations, m.requests)))
            .collect();
        ratio_or_zero(simcore::fold_ordered(items, sum2))
    }

    /// Violation rate for one service.
    pub fn violation_rate(&self, service: ServiceId) -> f64 {
        self.services
            .get(&service)
            .map_or(0.0, ServiceMetrics::violation_rate)
    }

    /// Makespan in hours.
    pub fn makespan_hours(&self) -> f64 {
        self.makespan_secs / 3600.0
    }

    /// Canonical text rendering of every *simulation-determined* field,
    /// for bit-for-bit comparisons and golden snapshots.
    ///
    /// Two results produce identical text iff every field is identical
    /// at the bit level: floats are rendered with `{:?}` (Rust's
    /// shortest round-trip formatting) so equality of text implies
    /// equality of bits, map-backed fields are emitted in sorted key
    /// order, and `wall_clock_secs` — host timing, not simulation
    /// output — is deliberately excluded.
    pub fn canonical_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "system={}", self.system);
        let mut services: Vec<_> = self.services.iter().collect();
        services.sort_by_key(|(id, _)| id.0);
        for (id, m) in services {
            let _ = writeln!(
                s,
                "service[{}]: requests={:?} violations={:?} p99={}",
                id.0,
                m.requests,
                m.violations,
                stats_repr(&m.p99_stats)
            );
            // Token accounting appears only when decode traffic accrued:
            // a classifier-only run stays byte-identical to the pre-LLM
            // renderer (same gating idea as the standby block below).
            if m.tokens > 0.0 {
                let _ = writeln!(
                    s,
                    "service[{}].tokens: tokens={:?} itl_violations={:?} ttft_violations={:?}",
                    id.0, m.tokens, m.itl_violations, m.ttft_violations
                );
            }
        }
        let _ = writeln!(s, "ct: {}", stats_repr(&self.ct));
        let _ = writeln!(s, "waiting: {}", stats_repr(&self.waiting));
        let _ = writeln!(s, "makespan_secs={:?}", self.makespan_secs);
        let _ = writeln!(s, "mean_sm_util={:?}", self.mean_sm_util);
        let _ = writeln!(s, "mean_mem_util={:?}", self.mean_mem_util);
        let _ = writeln!(
            s,
            "util_series: len={} digest={:016x}",
            self.util_series.len(),
            fnv64(
                self.util_series
                    .iter()
                    .flat_map(|&(t, sm, mem)| { [t.to_bits(), sm.to_bits(), mem.to_bits()] })
            )
        );
        let mut swaps: Vec<_> = self.swap_time_fraction.iter().collect();
        swaps.sort_by_key(|(id, _)| id.0);
        for (id, frac) in swaps {
            let _ = writeln!(s, "swap_time_fraction[{}]={:?}", id.0, frac);
        }
        let _ = writeln!(
            s,
            "mean_swap_transfer_secs={:?}",
            self.mean_swap_transfer_secs
        );
        // `placement_secs` holds *measured host latencies* (Fig. 18),
        // which — like `wall_clock_secs` — are timing, not simulation
        // output; only the decision count is part of the identity.
        let _ = writeln!(
            s,
            "overhead: bo_len={} bo_digest={:016x} placement_len={}",
            self.overhead.bo_iterations.len(),
            fnv64(self.overhead.bo_iterations.iter().map(|&n| n as u64)),
            self.overhead.placement_secs.len(),
        );
        let f = &self.faults;
        let _ = writeln!(
            s,
            "faults: dev={} slow={} crash={} mps={} evict={} failover={} \
             lost_iters={:?} rerouted={:?} dropped={:?} down_secs={:?} restart_secs={:?}",
            f.device_failures,
            f.slowdowns,
            f.process_crashes,
            f.mps_failures,
            f.training_evictions,
            f.inference_failovers,
            f.lost_iterations,
            f.rerouted_requests,
            f.dropped_requests,
            f.device_down_secs,
            f.restart_downtime_secs
        );
        let _ = writeln!(
            s,
            "outages: total={} correlated={} secs={:?} ckpt_writes={} ckpt_secs={:?}",
            f.service_outages,
            f.correlated_outages,
            f.service_outage_secs,
            f.checkpoint_writes,
            f.checkpoint_write_secs
        );
        // Standby accounting appears only when a pool was provisioned:
        // a pool-size-0 run stays byte-identical to a pre-standby run.
        if f.standby_slots > 0 {
            let _ = writeln!(
                s,
                "standby: slots={} promotions={} reseeds={} reserved={:?} served={:?} \
                 failover_p99={:?} failover_n={}",
                f.standby_slots,
                f.standby_promotions,
                f.standby_reseeds,
                f.standby_reserved_gpu_secs,
                f.standby_served_requests,
                f.failover_latency_p99(),
                f.failover_latency_secs.len()
            );
        }
        let _ = writeln!(s, "useful_iterations={:?}", self.useful_iterations);
        let _ = writeln!(s, "jobs={}/{}", self.jobs_completed, self.jobs_submitted);
        s
    }

    /// 64-bit digest of [`ExperimentResult::canonical_text`], for cheap
    /// equality assertions over whole result series.
    pub fn fingerprint(&self) -> u64 {
        fnv64(self.canonical_text().bytes().map(u64::from))
    }
}

/// Canonical rendering of a [`StreamingStats`]: the full accumulator
/// state observable through its API, floats in round-trip form.
fn stats_repr(s: &StreamingStats) -> String {
    format!(
        "count={} mean={:?} var={:?} min={:?} max={:?}",
        s.count(),
        s.mean(),
        s.variance(),
        s.min(),
        s.max()
    )
}

/// FNV-1a over a stream of 64-bit words (little-endian bytes).
fn fnv64(words: impl Iterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violation_rates_aggregate() {
        let mut r = ExperimentResult::default();
        r.services.insert(
            ServiceId(0),
            ServiceMetrics {
                requests: 1000.0,
                violations: 10.0,
                ..Default::default()
            },
        );
        r.services.insert(
            ServiceId(1),
            ServiceMetrics {
                requests: 3000.0,
                violations: 0.0,
                ..Default::default()
            },
        );
        assert!((r.violation_rate(ServiceId(0)) - 0.01).abs() < 1e-12);
        assert!((r.overall_violation_rate() - 10.0 / 4000.0).abs() < 1e-12);
        assert_eq!(r.violation_rate(ServiceId(9)), 0.0);
    }

    #[test]
    fn empty_metrics_are_zero() {
        let m = ServiceMetrics::default();
        assert_eq!(m.violation_rate(), 0.0);
        let o = OverheadMetrics::default();
        assert_eq!(o.mean_bo_iterations(), 0.0);
        assert_eq!(o.mean_placement_ms(), 0.0);
    }

    #[test]
    fn fault_totals_and_goodput() {
        let mut r = ExperimentResult {
            makespan_secs: 7200.0,
            useful_iterations: 9000.0,
            ..Default::default()
        };
        r.faults.device_failures = 2;
        r.faults.process_crashes = 3;
        assert_eq!(r.faults.total_faults(), 5);
        assert!((r.goodput_iters_per_hour() - 4500.0).abs() < 1e-9);
        r.makespan_secs = 0.0;
        assert_eq!(r.goodput_iters_per_hour(), 0.0);
    }

    #[test]
    fn fingerprint_ignores_wall_clock_but_not_results() {
        let mut a = ExperimentResult {
            makespan_secs: 100.0,
            wall_clock_secs: 1.0,
            ..Default::default()
        };
        a.services.insert(
            ServiceId(2),
            ServiceMetrics {
                requests: 10.0,
                violations: 1.0,
                ..Default::default()
            },
        );
        let mut b = a.clone();
        b.wall_clock_secs = 999.0; // Host timing must not affect identity.
        assert_eq!(a.canonical_text(), b.canonical_text());
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.makespan_secs = 100.0000001; // Any simulated field must.
        assert_ne!(a.canonical_text(), b.canonical_text());
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn canonical_text_orders_services_by_id() {
        let mut r = ExperimentResult::default();
        for id in [3usize, 0, 7] {
            r.services.insert(ServiceId(id), ServiceMetrics::default());
        }
        let text = r.canonical_text();
        let pos = |needle: &str| text.find(needle).expect(needle);
        assert!(pos("service[0]") < pos("service[3]"));
        assert!(pos("service[3]") < pos("service[7]"));
    }

    /// Every aggregate that folds over a map must be invariant to the
    /// map's (unspecified) iteration order. The two such folds are
    /// `overall_violation_rate` and `canonical_text` (and through it
    /// `fingerprint`); both sort by service id before touching floats,
    /// and this test pins that by rebuilding the same logical result
    /// under several insertion orders and demanding bit-equality.
    #[test]
    fn aggregates_invariant_under_insertion_order() {
        // Values chosen so float addition is genuinely order-sensitive:
        // summing these in a different order changes the low bits.
        let entries = [
            (0usize, 1e15, 7.0, 0.125),
            (3, 3.0, 1e-3, 0.25),
            (1, 1e-8, 1e9, 0.5),
            (7, 2.5e7, 0.1, 0.0625),
            (2, 9.0, 1e-7, 0.75),
        ];
        let orders: [[usize; 5]; 4] = [
            [0, 1, 2, 3, 4],
            [4, 3, 2, 1, 0],
            [2, 0, 4, 1, 3],
            [3, 4, 0, 2, 1],
        ];
        let build = |order: &[usize]| {
            let mut r = ExperimentResult::default();
            for &i in order {
                let (id, req, viol, swap) = entries[i];
                r.services.insert(
                    ServiceId(id),
                    ServiceMetrics {
                        requests: req,
                        violations: viol,
                        ..Default::default()
                    },
                );
                r.swap_time_fraction.insert(ServiceId(id), swap);
            }
            r
        };
        let reference = build(&orders[0]);
        for order in &orders[1..] {
            let r = build(order);
            assert_eq!(
                r.overall_violation_rate().to_bits(),
                reference.overall_violation_rate().to_bits(),
                "overall_violation_rate must not depend on insertion order"
            );
            assert_eq!(
                r.canonical_text(),
                reference.canonical_text(),
                "canonical_text must not depend on insertion order"
            );
            assert_eq!(r.fingerprint(), reference.fingerprint());
        }
    }

    #[test]
    fn service_table_mirrors_hashmap_entry_semantics() {
        let mut table = ServiceTable::new(4);
        let mut model: HashMap<ServiceId, ServiceMetrics> = HashMap::new();
        assert!(table.is_empty());
        assert!(table.get(ServiceId(0)).is_none(), "untouched is absent");
        for &(id, req, viol) in &[(2usize, 10.0, 1.0), (0, 5.0, 0.0), (2, 3.0, 2.0)] {
            let m = table.entry(ServiceId(id));
            m.requests += req;
            m.violations += viol;
            let m = model.entry(ServiceId(id)).or_default();
            m.requests += req;
            m.violations += viol;
        }
        assert_eq!(table.len(), model.len());
        for id in 0..4 {
            let id = ServiceId(id);
            assert_eq!(
                table.get(id).map(|m| (m.requests, m.violations)),
                model.get(&id).map(|m| (m.requests, m.violations)),
                "{id:?}"
            );
        }
    }

    #[test]
    fn service_table_take_map_round_trips_key_set() {
        let mut table = ServiceTable::new(2);
        table.entry(ServiceId(1)).requests = 7.0;
        // An id beyond the pre-sized range grows the table.
        table.entry(ServiceId(5)).violations = 3.0;
        let map = table.take_map();
        let mut keys: Vec<usize> = map.keys().map(|s| s.0).collect();
        keys.sort_unstable();
        assert_eq!(keys, vec![1, 5], "exactly the touched ids");
        assert_eq!(map[&ServiceId(1)].requests, 7.0);
        assert_eq!(map[&ServiceId(5)].violations, 3.0);
        // Draining resets the table for the next run.
        assert!(table.is_empty());
        assert!(table.get(ServiceId(1)).is_none());
        assert!(table.take_map().is_empty());
    }

    #[test]
    fn overhead_summaries() {
        let o = OverheadMetrics {
            bo_iterations: vec![10, 20, 24],
            placement_secs: vec![0.010, 0.020],
        };
        assert_eq!(o.mean_bo_iterations(), 18.0);
        assert_eq!(o.max_bo_iterations(), 24);
        assert!((o.mean_placement_ms() - 15.0).abs() < 1e-9);
        assert!((o.max_placement_ms() - 20.0).abs() < 1e-9);
    }
}
