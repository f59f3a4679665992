//! Fig. 1 — Alibaba inference-trace analysis.
//!
//! (a) QPS of face-recognition services fluctuates between 30k and 60k
//! with no periodicity but occasional inflection points; (b) per-service
//! GPU utilization stays far below the requested allocation (max < 52 %,
//! mean SM utilization < 37 %).

use cluster::report::Table;
use workloads::traces::{fig1a_qps_trace, fig1b_service_utilization};

use crate::{banner, Claim, Report, Scale};

pub fn run(scale: Scale, seed: u64) -> Report {
    let mut out = banner("Fig. 1 — inference-trace analysis (Alibaba-like)", scale);

    // (a) QPS trace summary.
    let trace = fig1a_qps_trace(seed, 5000);
    let values: Vec<f64> = trace.iter().map(|p| p.1).collect();
    let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let mut big_jumps = 0usize;
    for w in values.windows(2) {
        if (w[1] - w[0]).abs() > 6000.0 {
            big_jumps += 1;
        }
    }
    out += &format!("\n(a) QPS over one week ({} segments):\n", trace.len());
    out += &format!("  min {min:.0}, mean {mean:.0}, max {max:.0} QPS\n");
    out += &format!("  inflection points (jump > 6k QPS): {big_jumps}\n");
    out.push_str("  sample series (first 10 segments):\n");
    for (t, q) in trace.iter().take(10) {
        out += &format!("    t={t:>8.0}s  qps={q:>8.0}\n");
    }

    // (b) Per-service utilization summaries.
    let services = fig1b_service_utilization(seed, 20);
    let mut table = Table::new(&["service", "requested", "min util", "mean util", "max util"]);
    for s in &services {
        table.row(vec![
            s.name.clone(),
            format!("{:.0}%", s.requested),
            format!("{:.1}%", s.min),
            format!("{:.1}%", s.mean),
            format!("{:.1}%", s.max),
        ]);
    }
    out.push_str("\n(b) GPU utilization vs requested, per service:\n");
    out.push_str(&table.render());
    let worst_max = services.iter().map(|s| s.max).fold(0.0, f64::max);
    let mean_mean = services.iter().map(|s| s.mean).sum::<f64>() / services.len() as f64;
    let claims = vec![
        Claim::within("min QPS", min, 30_000.0, ""),
        Claim::within("max QPS", max, 60_000.0, ""),
        Claim::at_most("max utilization across services", worst_max, 52.0, "%"),
        Claim::at_most("mean SM utilization", mean_mean, 37.0, "%"),
    ];
    Report { text: out, claims }
}
