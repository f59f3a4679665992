//! Fig. 3 — interference breakdown: GPT2/ResNet50 multiplexed with
//! *other inference services*.
//!
//! Paper claims: E2E interference averages 3.19× (GPT2) and 2.40×
//! (ResNet50); GPT2's tokenization suffers 3.07× and its inference
//! phase 3.92×; ResNet50's preprocessing suffers 4.93×, transfer ~1.9×,
//! inference 2.5× — all rooted in CPU/PCIe contention from the
//! co-located service's multi-threaded pipeline (§2.2.1).

use cluster::report::Table;
use workloads::{ColoWorkload, GroundTruth, Zoo};

use crate::{banner, compare, Scale};

pub fn run(scale: Scale, seed: u64) -> String {
    let mut out = banner(
        "Fig. 3 — interference from co-located *inference* services",
        "GPT2 E2E 3.19x (tokenize 3.07x, inference 3.92x); ResNet50 E2E 2.40x (preproc 4.93x, xfer 1.9x, inference 2.5x)",
        scale,
    );
    let gt = GroundTruth::new(Zoo::standard(), seed ^ 0xA100);
    let services = gt.zoo().services();
    let names: Vec<&str> = services.iter().map(|s| s.name).collect();
    let colo = |i: usize, batch, share| ColoWorkload::inference(services[i].id, batch, share);
    let paper = [[3.19, 3.07, 1.9, 3.92], [2.40, 4.93, 1.9, 2.5]];
    let corunners = ("other inference services", "co-located svc", &names[..]);
    out += &panels(&gt, corunners, colo, paper);
    out
}

/// Figs. 3 and 4: GPT2's and ResNet50's mean slowdown per phase next to
/// each co-runner in `names` other than themselves, over batches 16–256
/// and GPU shares 10–90 %. `colo(i, batch, share)` places co-runner `i`
/// on the rest of the GPU (at least 5 %). Each target's table is headed
/// by `what` and `header`, and its means over co-runners are compared
/// with `paper`'s [E2E, CPU phase, transfer, compute] for that target.
pub(crate) fn panels(
    gt: &GroundTruth,
    (what, header, names): (&str, &str, &[&str]),
    colo: impl Fn(usize, u32, f64) -> ColoWorkload,
    paper: [[f64; 4]; 2],
) -> String {
    let mut out = String::new();
    let batches = [16u32, 32, 64, 128, 256];
    for (target_name, paper) in ["GPT2", "ResNet50"].into_iter().zip(paper) {
        let target = gt.zoo().require_service(target_name).expect("zoo model").id;
        let mut table = Table::new(&[header, "preproc", "transfer", "compute", "E2E"]);
        let mut sums = [0.0f64; 4];
        let mut n = 0.0;
        for (i, &name) in names.iter().enumerate().filter(|&(_, &c)| c != target_name) {
            let mut ratios = [0.0f64; 4];
            for &b in &batches {
                for pct in 1..=9 {
                    let frac = pct as f64 * 0.1;
                    let solo = gt.inference_phases(target, b, frac, &[]);
                    let colo = [colo(i, b, (1.0f64 - frac).max(0.05))];
                    let shared = gt.inference_phases(target, b, frac, &colo);
                    ratios[0] += shared.preprocess / solo.preprocess;
                    ratios[1] += shared.transfer / solo.transfer;
                    ratios[2] += shared.compute / solo.compute;
                    ratios[3] += shared.total() / solo.total();
                }
            }
            let r = ratios.map(|x| x / (batches.len() * 9) as f64);
            let mut row = vec![name.to_string()];
            row.extend(r.iter().map(|x| format!("{x:.2}x")));
            table.row(row);
            for (s, v) in sums.iter_mut().zip(&r) {
                *s += v;
            }
            n += 1.0;
        }
        out += &format!("\n--- {target_name} multiplexed with {what} ---\n");
        out.push_str(&table.render());
        let [pre, xfer, comp, e2e] = sums.map(|s| s / n);
        out += &compare("mean E2E interference", e2e, paper[0], "x");
        out += &compare("mean CPU-phase interference", pre, paper[1], "x");
        out += &compare("mean transfer interference", xfer, paper[2], "x");
        out += &compare("mean compute interference", comp, paper[3], "x");
    }
    out
}
