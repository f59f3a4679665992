//! What one run reports, and the JSON line the benchmark ends with.

use std::fmt::Write as _;

use crate::cpu::Cost;
use crate::openloop::{self, OpenLoop};
use crate::stats;

/// Every end-to-end metric, with its unit. Each workload reports all of
/// them; README.md says what each one times on each workload. Timings
/// are on the process CPU clock (see [`crate::cpu`]); `max_rps` is the
/// one wall-clock verdict.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("sim_s_per_cpu_s", "s/s"),
    ("window_cpu_ms_p50", "ms"),
    ("window_cpu_ms_p90", "ms"),
    ("report_cpu_ms_p50", "ms"),
    ("infer_cpu_ms_p50", "ms"),
    ("infer_cpu_ms_p90", "ms"),
    ("max_rps", "1/s"),
];

/// The per-layer metrics every workload's traced pass reports (the
/// machine-read set). Workload-specific layer numbers are printed as
/// `layer` lines above the result instead.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("workloads.ground_truth_s", "s"),
    ("mudi.profile_s", "s"),
    ("mudi.profile_records", "count"),
    ("modeling.predictor_fit_s", "s"),
    ("cluster.session_new_s", "s"),
    ("cluster.engine.lanes", "count"),
    ("cluster.engine.events", "count"),
    ("cluster.stepper.lane_s", "s"),
    ("cluster.stepper.serial_s", "s"),
    ("cluster.stepper.barrier_s", "s"),
    ("cluster.stepper.lane_fraction", "ratio"),
    ("cluster.admission.placements", "count"),
    ("cluster.admission.deferred", "count"),
    ("cluster.admission.placement_ms_mean", "ms"),
    ("cluster.control.retunes_applied", "count"),
    ("cluster.control.retunes_rejected", "count"),
    ("cluster.control.retune_accept_ratio", "ratio"),
    ("mudi.tuner.bo_iterations_mean", "count"),
    ("resilience.faults_applied", "count"),
    ("resilience.failovers", "count"),
    ("resilience.standby_promotions", "count"),
    ("cluster.session.step_ms_p50", "ms"),
    ("cluster.session.report_ms_p50", "ms"),
    ("cluster.session.infer_us_p50", "us"),
    ("simcore.trace.events_emitted", "count"),
    ("self_s.bench", "s"),
    ("self_s.workloads", "s"),
    ("self_s.mudi", "s"),
    ("self_s.modeling", "s"),
    ("self_s.cluster", "s"),
    ("self_s.serve", "s"),
    ("trace.overhead_s", "s"),
];

/// Everything one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness failures; any entry makes the run fail.
    pub errors: Vec<String>,
    /// Machine-read metrics: name → value.
    pub metrics: Vec<(String, f64)>,
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.retain(|(n, _)| n != name);
        self.metrics.push((name.to_string(), value));
    }

    /// A workload-specific number, printed but not machine-read.
    pub fn line(&mut self, text: String) {
        self.lines.push(text);
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Adds an error when a required percentile could not be taken.
    pub fn require(&mut self, name: &str, value: Result<f64, String>) -> f64 {
        value.unwrap_or_else(|e| {
            self.errors.push(format!("{name}: {e}"));
            f64::NAN
        })
    }
}

/// The inputs every workload's end-to-end metrics are computed from.
pub struct EndToEnd<'a> {
    /// Each boot (config to ready-to-step).
    pub boots: &'a [Cost],
    /// Simulated seconds per CPU second of stepping.
    pub sim_s_per_cpu_s: f64,
    /// Each stepping window and each SLO report, in order.
    pub windows: &'a [Cost],
    pub reports: &'a [Cost],
    /// CPU milliseconds of each base-rate user request.
    pub infer_cpu_ms: &'a [f64],
    /// The open-loop rate ladder `max_rps` is read from.
    pub users: &'a OpenLoop,
    /// The p99 limit `max_rps` is judged against.
    pub limit_ms: f64,
}

impl EndToEnd<'_> {
    pub fn emit(&self, out: &mut Outcome) {
        let cpu_ms = |v: &[Cost]| v.iter().map(|c| c.cpu_s * 1e3).collect::<Vec<f64>>();
        let wall_ms = |v: &[Cost]| v.iter().map(|c| c.wall_s * 1e3).collect::<Vec<f64>>();
        let boots_cpu: Vec<f64> = self.boots.iter().map(|c| c.cpu_s).collect();
        out.metric("setup_s", stats::median(&boots_cpu).unwrap_or(f64::NAN));
        out.metric("sim_s_per_cpu_s", self.sim_s_per_cpu_s);
        let (windows, reports) = (cpu_ms(self.windows), cpu_ms(self.reports));
        for (name, samples, q) in [
            ("window_cpu_ms_p50", windows.as_slice(), 50.0),
            ("window_cpu_ms_p90", windows.as_slice(), 90.0),
            ("report_cpu_ms_p50", reports.as_slice(), 50.0),
            ("infer_cpu_ms_p50", self.infer_cpu_ms, 50.0),
            ("infer_cpu_ms_p90", self.infer_cpu_ms, 90.0),
        ] {
            let v = out.require(name, stats::percentile(samples, q));
            out.metric(name, v);
        }
        out.metric(
            "max_rps",
            openloop::max_rps(&self.users.phases, self.limit_ms),
        );
        out.line(format!(
            "samples boots={} (cpu_s {:?}) windows={} reports={} infer={} (whole-run nearest-rank percentiles; infer_cpu_ms_p99={})",
            self.boots.len(),
            boots_cpu,
            self.windows.len(),
            reports.len(),
            self.infer_cpu_ms.len(),
            stats::percentile(self.infer_cpu_ms, 99.0).map_or(f64::NAN, |x| x),
        ));
        // The same calls on the wall clock: what a caller waited, host
        // scheduling and steal included. Printed, not machine-read.
        let p = |v: &[f64], q| stats::percentile(v, q).map_or(f64::NAN, |x| x);
        let boots_wall: Vec<f64> = self.boots.iter().map(|c| c.wall_s).collect();
        let (windows, reports) = (wall_ms(self.windows), wall_ms(self.reports));
        out.line(format!(
            "wall setup_s={} window_ms_p50={} window_ms_p90={} report_ms_p50={}",
            stats::median(&boots_wall).unwrap_or(f64::NAN),
            p(&windows, 50.0),
            p(&windows, 90.0),
            p(&reports, 50.0),
        ));
    }
}

/// Renders the final line. `expected` is the metric set the mode must
/// report; a missing or non-finite one is a correctness failure.
pub fn result_line(out: &Outcome, expected: &[(&str, &str)]) -> (String, bool) {
    let mut correct = out.errors.is_empty();
    let mut metrics = String::new();
    for (name, unit) in expected {
        let value = out
            .metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .filter(|v| v.is_finite());
        let Some(value) = value else {
            correct = false;
            continue;
        };
        if !metrics.is_empty() {
            metrics.push_str(", ");
        }
        // `{}` on f64 prints the shortest string that reads back to the
        // same value: every digit the measurement has.
        let _ = write!(
            metrics,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(value)
        );
    }
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.attempted.max(1),
        out.failed
    );
    (line, correct)
}

fn json_num(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serve::json::Json;

    #[test]
    fn result_line_has_exactly_the_schema_keys() {
        let mut out = Outcome {
            attempted: 12,
            failed: 1,
            ..Outcome::default()
        };
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            out.metric(name, 1.0 + i as f64 / 3.0);
        }
        let (line, correct) = result_line(&out, &END_TO_END);
        assert!(correct);
        let Json::Obj(top) = Json::parse(&line).expect("valid JSON") else {
            panic!("not an object");
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(parsed.get("attempted").and_then(Json::as_u64), Some(12));
        assert_eq!(parsed.get("failed").and_then(Json::as_u64), Some(1));
        let Some(Json::Obj(metrics)) = parsed.get("metrics") else {
            panic!("metrics is not an object");
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        for ((name, unit), (key, m)) in END_TO_END.iter().zip(metrics) {
            assert_eq!(name, key);
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit));
            let Json::Obj(fields) = m else { panic!() };
            assert_eq!(fields.len(), 2);
        }
        // Full precision survives the round trip.
        let v = metrics[1].1.get("value").and_then(Json::as_f64).unwrap();
        assert_eq!(v, 1.0 + 1.0 / 3.0);
    }

    #[test]
    fn missing_metric_or_error_marks_the_run_incorrect() {
        let mut out = Outcome::default();
        out.metric("setup_s", 1.5);
        let (_, correct) = result_line(&out, &END_TO_END);
        assert!(!correct);
        let mut out = Outcome::default();
        for (name, _) in END_TO_END {
            out.metric(name, 2.0);
        }
        out.check(false, || "fingerprint drifted".into());
        let (line, correct) = result_line(&out, &END_TO_END);
        assert!(!correct);
        assert!(line.starts_with("{\"correct\": false"));
        // Whole numbers still print as JSON numbers with a fraction.
        assert!(line.contains("\"value\": 2.0"));
    }
}
