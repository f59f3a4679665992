//! Fig. 16 — Mudi under a bursty QPS: ResNet50 inference + YOLOv5
//! training, 3× burst between 100 s and 200 s.
//!
//! Paper: the Tuner adapts batching and GPU% at the burst, keeping the
//! violation rate at ~0.71 %; memory of YOLOv5 is swapped to the host
//! during the burst and reclaimed afterwards; the average swap transfer
//! is ~23.31 ms.

use cluster::experiments::bursty_case_study;
use cluster::report::Table;
use cluster::systems::SystemKind;
use workloads::BurstSchedule;

use crate::{banner, compare, Scale};

pub fn run(scale: Scale, seed: u64) -> String {
    let mut out = banner(
        "Fig. 16 — bursty-QPS case study (ResNet50 + YOLOv5)",
        "3x burst at 100s: batch/GPU% adapt, violations ~0.71%, memory swaps out and back",
        scale,
    );
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

    let (viol, swap) = (cs.violation_rate, cs.mean_swap_transfer_secs);
    out += &compare("overall violation rate", viol * 100.0, 0.71, "%");
    out += &compare("mean swap transfer", swap * 1e3, 23.31, "ms");
    out += &format!(
        "  time fraction with memory swapped: {:.1}%\n",
        cs.swap_time_fraction * 100.0
    );

    // Adaptation check: configuration during the burst differs from the
    // pre-burst configuration.
    let before = &cs.points[90];
    let during = &cs.points[150];
    let after = &cs.points[280];
    out += &format!(
        "\nAdaptation: before (b={}, {:.0}%) -> during burst (b={}, {:.0}%) -> after (b={}, {:.0}%)\n",
        before.batch,
        before.gpu_fraction * 100.0,
        during.batch,
        during.gpu_fraction * 100.0,
        after.batch,
        after.gpu_fraction * 100.0
    );
    out
}
