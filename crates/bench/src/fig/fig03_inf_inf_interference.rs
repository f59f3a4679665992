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

use crate::{banner, Claim, Report, Scale};

pub fn run(scale: Scale, seed: u64) -> Report {
    let mut out = banner(
        "Fig. 3 — interference from co-located *inference* services",
        scale,
    );
    let gt = GroundTruth::new(Zoo::standard(), seed ^ 0xA100);
    let paper = [[3.19, 3.07, 1.9, 3.92], [2.40, 4.93, 1.9, 2.5]];
    let corunners = ("other inference services", "co-located svc");
    let claims = panels(&mut out, corunners, &inference_slowdowns(&gt), paper);
    Report { text: out, claims }
}

/// The targets of Figs. 3 and 4.
pub(crate) const TARGETS: [&str; 2] = ["GPT2", "ResNet50"];

/// Per target, each co-runner and its mean slowdown per phase
/// [preproc, transfer, compute, E2E].
pub(crate) type Slowdowns<'a> = [Vec<(&'a str, [f64; 4])>; 2];

/// Fig. 3's slowdowns: each target next to each other inference service.
pub(crate) fn inference_slowdowns(gt: &GroundTruth) -> Slowdowns<'_> {
    let services = gt.zoo().services();
    let names: Vec<&str> = services.iter().map(|s| s.name).collect();
    let colo = |i: usize, batch, share| ColoWorkload::inference(services[i].id, batch, share);
    slowdowns(gt, &names, colo)
}

/// Figs. 3 and 4: each [`TARGETS`] service's mean slowdown per phase next
/// to each co-runner in `names` other than itself, over batches 16–256
/// and GPU shares 10–90 %. `colo(i, batch, share)` places co-runner `i`
/// on the rest of the GPU (at least 5 %).
pub(crate) fn slowdowns<'a>(
    gt: &GroundTruth,
    names: &[&'a str],
    colo: impl Fn(usize, u32, f64) -> ColoWorkload,
) -> Slowdowns<'a> {
    let batches = [16u32, 32, 64, 128, 256];
    TARGETS.map(|target_name| {
        let target = gt.zoo().require_service(target_name).expect("zoo model").id;
        let mut rows = Vec::new();
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
            rows.push((name, ratios.map(|x| x / (batches.len() * 9) as f64)));
        }
        rows
    })
}

/// One target's slowdowns per phase, averaged over its co-runners.
pub(crate) fn means(rows: &[(&str, [f64; 4])]) -> [f64; 4] {
    let mut sums = [0.0f64; 4];
    for (_, r) in rows {
        for (s, v) in sums.iter_mut().zip(r) {
            *s += v;
        }
    }
    sums.map(|s| s / rows.len() as f64)
}

/// Figs. 3 and 4: renders each target's `slowdowns` as a table headed by
/// `what` and `header`, and claims its means against `paper`'s
/// [E2E, CPU phase, transfer, compute] for that target.
pub(crate) fn panels(
    out: &mut String,
    (what, header): (&str, &str),
    slowdowns: &Slowdowns,
    paper: [[f64; 4]; 2],
) -> Vec<Claim> {
    let mut claims = Vec::new();
    for ((target_name, rows), paper) in TARGETS.iter().zip(slowdowns).zip(paper) {
        let mut table = Table::new(&[header, "preproc", "transfer", "compute", "E2E"]);
        for (name, r) in rows {
            let mut row = vec![name.to_string()];
            row.extend(r.iter().map(|x| format!("{x:.2}x")));
            table.row(row);
        }
        *out += &format!("\n--- {target_name} multiplexed with {what} ---\n");
        out.push_str(&table.render());
        let [pre, xfer, comp, e2e] = means(rows);
        for (phase, measured, paper) in [
            ("E2E", e2e, paper[0]),
            ("CPU-phase", pre, paper[1]),
            ("transfer", xfer, paper[2]),
            ("compute", comp, paper[3]),
        ] {
            let name = format!("{target_name} mean {phase} interference");
            claims.push(Claim::ratio(name, measured, paper));
        }
    }
    claims
}
