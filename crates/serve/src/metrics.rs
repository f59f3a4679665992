//! Prometheus-style text exposition for `GET /metrics`.
//!
//! Counters come straight from the session's trace-bus summary (one
//! `mudi_trace_events_total{kind=...}` series per [`SimEventKind`]) and
//! the engine's [`FaultMetrics`] ledger; gauges cover the live cluster
//! shape. Values are rendered with Rust's shortest-round-trip float
//! formatting, so the page is byte-identical for identical session
//! states — the integration tests diff it directly against the
//! trace-bus counters.
//!
//! [`FaultMetrics`]: cluster::metrics::FaultMetrics

use std::fmt::Write as _;

use cluster::metrics::FaultMetrics;
use simcore::{SimEventKind, TraceSummary};

/// Live-shape gauges sampled from the session at scrape time.
#[derive(Clone, Copy, Debug, Default)]
pub struct Gauges {
    /// Current simulated time, seconds.
    pub sim_time_secs: f64,
    /// Devices in the cluster.
    pub devices: usize,
    /// Devices currently up.
    pub devices_up: usize,
    /// Training jobs completed.
    pub jobs_completed: usize,
    /// Training jobs submitted.
    pub jobs_submitted: usize,
    /// Kernel events fired so far.
    pub events_fired: u64,
}

/// One `# HELP` / `# TYPE` / sample triple; the value prints through
/// `Display` (shortest round trip).
fn series(out: &mut String, kind: &str, name: &str, help: &str, value: f64) {
    out.extend(["# HELP ", name, " ", help, "\n# TYPE ", name]);
    out.extend([" ", kind, "\n", name, " "]);
    let _ = write!(out, "{value}");
    out.push('\n');
}

fn counter(out: &mut String, name: &str, help: &str, value: f64) {
    series(out, "counter", name, help, value);
}

fn gauge(out: &mut String, name: &str, help: &str, value: f64) {
    series(out, "gauge", name, help, value);
}

/// Renders the full exposition page into one buffer sized for it.
pub fn render(summary: &TraceSummary, faults: &FaultMetrics, gauges: &Gauges) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str(
        "# HELP mudi_trace_events_total Structured events emitted on the trace bus, by kind.\n\
         # TYPE mudi_trace_events_total counter\n",
    );
    for kind in SimEventKind::ALL {
        out.push_str("mudi_trace_events_total{kind=\"");
        out.push_str(kind.name());
        out.push_str("\"} ");
        let _ = write!(out, "{}", summary.count(kind));
        out.push('\n');
    }
    counter(
        &mut out,
        "mudi_trace_events_emitted_total",
        "Total events emitted on the trace bus (all kinds).",
        summary.emitted() as f64,
    );

    counter(
        &mut out,
        "mudi_fault_device_failures_total",
        "Hard device failures injected.",
        faults.device_failures as f64,
    );
    counter(
        &mut out,
        "mudi_fault_slowdowns_total",
        "Transient slowdown episodes injected.",
        faults.slowdowns as f64,
    );
    counter(
        &mut out,
        "mudi_fault_process_crashes_total",
        "Training-process crashes injected.",
        faults.process_crashes as f64,
    );
    counter(
        &mut out,
        "mudi_fault_mps_failures_total",
        "MPS-daemon failures injected.",
        faults.mps_failures as f64,
    );
    counter(
        &mut out,
        "mudi_fault_inference_failovers_total",
        "Inference replicas whose traffic was re-routed to survivors.",
        faults.inference_failovers as f64,
    );
    counter(
        &mut out,
        "mudi_fault_rerouted_requests_total",
        "Requests served by survivors on behalf of failed replicas.",
        faults.rerouted_requests,
    );
    counter(
        &mut out,
        "mudi_fault_dropped_requests_total",
        "Requests with no surviving replica (counted as violations).",
        faults.dropped_requests,
    );
    counter(
        &mut out,
        "mudi_fault_device_down_seconds_total",
        "Cumulative device downtime, seconds.",
        faults.device_down_secs,
    );
    counter(
        &mut out,
        "mudi_fault_service_outages_total",
        "Times a fault left a service with no live replica or active standby.",
        faults.service_outages as f64,
    );
    counter(
        &mut out,
        "mudi_fault_service_outage_seconds_total",
        "Cumulative time services spent with zero live replicas.",
        faults.service_outage_secs,
    );

    gauge(
        &mut out,
        "mudi_sim_time_seconds",
        "Current simulated time.",
        gauges.sim_time_secs,
    );
    gauge(
        &mut out,
        "mudi_devices",
        "Devices in the cluster.",
        gauges.devices as f64,
    );
    gauge(
        &mut out,
        "mudi_devices_up",
        "Devices currently up.",
        gauges.devices_up as f64,
    );
    gauge(
        &mut out,
        "mudi_jobs_completed",
        "Training jobs completed.",
        gauges.jobs_completed as f64,
    );
    gauge(
        &mut out,
        "mudi_jobs_submitted",
        "Training jobs submitted.",
        gauges.jobs_submitted as f64,
    );
    counter(
        &mut out,
        "mudi_engine_events_fired_total",
        "Kernel events fired by the session.",
        gauges.events_fired as f64,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_covers_every_trace_kind() {
        let page = render(
            &TraceSummary::default(),
            &FaultMetrics::default(),
            &Gauges::default(),
        );
        for kind in SimEventKind::ALL {
            assert!(
                page.contains(&format!("kind=\"{}\"", kind.name())),
                "missing series for {}",
                kind.name()
            );
        }
        // Prometheus text format basics: every non-comment line is
        // `name{labels} value` or `name value`.
        for line in page.lines().filter(|l| !l.starts_with('#')) {
            let (name, value) = line.rsplit_once(' ').expect("space-separated");
            assert!(!name.is_empty());
            assert!(value.parse::<f64>().is_ok(), "bad value in {line:?}");
        }
    }
}
