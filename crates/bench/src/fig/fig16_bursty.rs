//! Fig. 16 — Mudi under a bursty QPS: ResNet50 inference + YOLOv5
//! training, 3× burst between 100 s and 200 s.
//!
//! Paper: the Tuner adapts batching and GPU% at the burst, keeping the
//! violation rate at ~0.71 %; memory of YOLOv5 is swapped to the host
//! during the burst and reclaimed afterwards; the average swap transfer
//! is ~23.31 ms.

use cluster::experiments::{bursty_case_study, CaseStudyPoint};
use cluster::report::Table;
use cluster::systems::SystemKind;
use workloads::BurstSchedule;

use crate::{banner, Claim, Report, Scale};

pub fn run(scale: Scale, seed: u64) -> Report {
    let mut out = banner("Fig. 16 — bursty-QPS case study (ResNet50 + YOLOv5)", scale);
    let cs = bursty_case_study(
        SystemKind::Mudi,
        "ResNet50",
        "YOLOv5",
        BurstSchedule::fig16_burst(),
        300.0,
        seed,
    );

    let mut table = Table::new(&["t (s)", "QPS", "batch", "GPU%", "swapped (GB)", "P(viol)"]);
    for p in cs.points.iter().step_by(15) {
        table.row(vec![
            format!("{:.0}", p.t),
            format!("{:.0}", p.qps),
            p.batch.to_string(),
            format!("{:.0}%", p.gpu_fraction * 100.0),
            format!("{:.1}", p.swapped_gb),
            format!("{:.4}", p.violation_prob),
        ]);
    }
    out.push_str(&table.render());

    out += &format!(
        "  time fraction with memory swapped: {:.1}%\n",
        cs.swap_time_fraction * 100.0
    );

    // Adaptation check: configuration during the burst differs from the
    // pre-burst configuration.
    let before = &cs.points[90];
    let during = &cs.points[150];
    let after = &cs.points[280];
    let config = |p: &CaseStudyPoint| format!("b={}, {:.0}%", p.batch, p.gpu_fraction * 100.0);
    let (b, d, a) = (config(before), config(during), config(after));
    out += &format!("\nAdaptation: before ({b}) -> during burst ({d}) -> after ({a})\n");
    let retune = format!("{b} -> {d}");
    let retuned = (before.batch, before.gpu_fraction) != (during.batch, during.gpu_fraction);
    let (out_gb, back_gb) = (during.swapped_gb, after.swapped_gb);
    let swaps = format!("{out_gb:.1} GB, then {back_gb:.1} GB");
    let swapped = out_gb > 0.0 && back_gb <= 0.0;
    let (viol, swap_ms) = (cs.violation_rate * 100.0, cs.mean_swap_transfer_secs * 1e3);
    let claims = vec![
        Claim::within("overall violation rate", viol, 0.71, "%"),
        Claim::within("mean swap transfer", swap_ms, 23.31, "ms"),
        Claim::ordering("retuned at the burst", retune, "changed", retuned),
        Claim::ordering("memory swapped out and back", swaps, "> 0, then 0", swapped),
    ];
    Report { text: out, claims }
}
