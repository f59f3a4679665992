//! The traced pass's per-layer numbers, gathered from public reports
//! (`phase_profile`, `trace_summary`, `ExperimentResult`) and from the
//! benchmark's own spans and boot probes.

use cluster::engine::ClusterSession;
use cluster::ExperimentResult;
use simcore::{SimEventKind, TraceSummary};

use crate::cpu::Cost;
use crate::drive::{Boots, Stepping};
use crate::report::Outcome;
use crate::spans::Spans;
use crate::stats::{median, percentile};

/// Per-layer totals over every session of a traced pass.
#[derive(Default)]
pub struct Layers {
    lane_s: f64,
    serial_s: f64,
    barrier_s: f64,
    lanes: usize,
    trace: TraceSummary,
    placement_secs: Vec<f64>,
    bo_iterations: Vec<usize>,
    failovers: usize,
    standby_promotions: usize,
}

impl Layers {
    /// Reads a session's stepping profile and trace counters; call once
    /// per session, before `finish`.
    pub fn absorb_session(&mut self, s: &ClusterSession) {
        let p = s.phase_profile();
        self.lane_s += p.lane_secs;
        self.serial_s += p.serial_secs;
        self.barrier_s += p.barrier_secs;
        self.lanes = self.lanes.max(p.lanes);
        self.trace.merge(&s.trace_summary());
    }

    pub fn absorb_result(&mut self, r: &ExperimentResult) {
        self.placement_secs
            .extend_from_slice(&r.overhead.placement_secs);
        self.bo_iterations
            .extend_from_slice(&r.overhead.bo_iterations);
        self.failovers += r.faults.inference_failovers;
        self.standby_promotions += r.faults.standby_promotions;
    }

    /// Emits the machine-read per-layer set. `overhead_s` is the traced
    /// pass's wall time (set-up probes excluded) minus the untraced one.
    pub fn emit(
        &self,
        out: &mut Outcome,
        boots: &Boots,
        st: &Stepping,
        spans: &Spans,
        overhead_s: f64,
    ) {
        let med = |v: &[f64]| median(v).unwrap_or(0.0);
        let session_new_s: Vec<f64> = boots.session_new.iter().map(|c| c.wall_s).collect();
        out.metric("workloads.ground_truth_s", med(&boots.ground_truth_s));
        out.metric("mudi.profile_s", med(&boots.profile_s));
        out.metric("mudi.profile_records", med(&boots.profile_records));
        out.metric("modeling.predictor_fit_s", med(&boots.predictor_fit_s));
        out.metric("cluster.session_new_s", med(&session_new_s));
        out.metric("cluster.engine.lanes", self.lanes as f64);
        out.metric("cluster.engine.events", st.events as f64);
        out.metric("cluster.stepper.lane_s", self.lane_s);
        out.metric("cluster.stepper.serial_s", self.serial_s);
        out.metric("cluster.stepper.barrier_s", self.barrier_s);
        let total = self.lane_s + self.serial_s;
        out.metric(
            "cluster.stepper.lane_fraction",
            if total > 0.0 {
                self.lane_s / total
            } else {
                0.0
            },
        );
        let count = |k| self.trace.count(k) as f64;
        out.metric(
            "cluster.admission.placements",
            count(SimEventKind::Placement),
        );
        out.metric(
            "cluster.admission.deferred",
            count(SimEventKind::PlacementDeferred),
        );
        let mean = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        out.metric(
            "cluster.admission.placement_ms_mean",
            mean(&self.placement_secs) * 1e3,
        );
        let applied = count(SimEventKind::RetuneApplied);
        let rejected = count(SimEventKind::RetuneRejected);
        out.metric("cluster.control.retunes_applied", applied);
        out.metric("cluster.control.retunes_rejected", rejected);
        out.metric(
            "cluster.control.retune_accept_ratio",
            if applied + rejected > 0.0 {
                applied / (applied + rejected)
            } else {
                0.0
            },
        );
        let bo: Vec<f64> = self.bo_iterations.iter().map(|&b| b as f64).collect();
        out.metric("mudi.tuner.bo_iterations_mean", mean(&bo));
        out.metric(
            "resilience.faults_applied",
            count(SimEventKind::FaultApplied),
        );
        out.metric("resilience.failovers", self.failovers as f64);
        out.metric(
            "resilience.standby_promotions",
            self.standby_promotions as f64,
        );
        let p50 = |v: &[f64]| percentile(v, 50.0).unwrap_or(0.0);
        let wall_ms = |v: &[Cost]| v.iter().map(|c| c.wall_s * 1e3).collect::<Vec<f64>>();
        out.metric("cluster.session.step_ms_p50", p50(&wall_ms(&st.windows)));
        out.metric("cluster.session.report_ms_p50", p50(&wall_ms(&st.reports)));
        out.metric("cluster.session.infer_us_p50", p50(&st.infer_us));
        if !st.tokens_us.is_empty() {
            out.line(format!(
                "layer cluster.session.infer_tokens_us_p50={} samples={}",
                p50(&st.tokens_us),
                st.tokens_us.len()
            ));
        }
        out.metric("simcore.trace.events_emitted", self.trace.emitted() as f64);
        emit_self_times(out, spans, overhead_s);
        out.line(format!(
            "layer boots={} predictor_fits_per_boot~{:.2} (session_new minus ground truth, over profile plus fit)",
            boots.session_new.len(),
            (med(&session_new_s) - med(&boots.ground_truth_s))
                / (med(&boots.profile_s) + med(&boots.predictor_fit_s)).max(1e-9)
        ));
    }
}

/// Emits `self_s.<layer>` for the fixed layer set and the overhead.
fn emit_self_times(out: &mut Outcome, spans: &Spans, overhead_s: f64) {
    let by_layer = spans.self_time_by_layer();
    for layer in ["bench", "workloads", "mudi", "modeling", "cluster", "serve"] {
        let name = format!("self_s.{layer}");
        out.metric(&name, by_layer.get(layer).copied().unwrap_or(0.0));
    }
    out.metric("trace.overhead_s", overhead_s);
}

/// Wall seconds the traced pass spent in set-up probes (extra calls the
/// untraced pass does not make, so not tracing overhead).
pub fn probe_secs(spans: &Spans) -> f64 {
    spans
        .spans()
        .iter()
        .filter(|s| s.name == "bench.setup_probe")
        .map(|s| s.end - s.start)
        .sum()
}
