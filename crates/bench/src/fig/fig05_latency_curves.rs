//! Fig. 5 — GPT2 latency vs GPU% is piece-wise linear, solo and under
//! co-location (key idea I1).
//!
//! Prints the latency series per batching size (solo and co-located
//! with a training task at batch 256) plus the fitted knee, and claims
//! the paper's shape: knees shift right with batch size, and co-location
//! steepens the first slope.

use cluster::report::Table;
use modeling::fit::piecewise::fit_piecewise;
use workloads::{ColoWorkload, GroundTruth, Zoo};

use crate::{banner, Claim, Report, Scale};

pub fn run(scale: Scale, seed: u64) -> Report {
    let mut out = banner("Fig. 5 — piece-wise linear latency curves (GPT2)", scale);
    let gt = GroundTruth::new(Zoo::standard(), seed ^ 0xA100);
    let svc = gt.zoo().require_service("GPT2").expect("zoo model");
    let train = gt.zoo().require_task("VGG16").expect("zoo model");

    // Each panel's fits, by ascending batch.
    let mut panels = Vec::new();
    for (label, colo) in [
        ("(a) solo-run", Vec::new()),
        (
            "(b) co-located with training (VGG16)",
            vec![ColoWorkload::training(train.id, 0.5)],
        ),
    ] {
        out += &format!("\n--- {label} ---\n");
        let mut header = vec!["GPU%".to_string()];
        let batches = [16u32, 64, 256];
        for &b in &batches {
            header.push(format!("b={b} (ms)"));
        }
        let hdr: Vec<&str> = header.iter().map(String::as_str).collect();
        let mut table = Table::new(&hdr);
        for pct in 1..=9 {
            let frac = pct as f64 * 0.1;
            let mut row = vec![format!("{:.0}%", frac * 100.0)];
            for &b in &batches {
                row.push(format!(
                    "{:.1}",
                    gt.inference_latency(svc.id, b, frac, &colo) * 1e3
                ));
            }
            table.row(row);
        }
        out.push_str(&table.render());

        let mut fits = Vec::new();
        for &b in &batches {
            let pts: Vec<(f64, f64)> = (1..=9)
                .map(|p| {
                    let f = p as f64 * 0.1;
                    (f, gt.inference_latency(svc.id, b, f, &colo))
                })
                .collect();
            let fit = fit_piecewise(&pts).expect("nine points fit");
            out += &format!(
                "  b={b:>3}: knee at GPU%={:.0}%, slopes k1={:.3} k2={:.3} s/frac (|k1/k2| = {:.1})\n",
                fit.x0 * 100.0,
                fit.k1,
                fit.k2,
                (fit.k1 / fit.k2).abs()
            );
            fits.push(fit);
        }
        panels.push(fits);
    }
    let steps: Vec<_> = panels.iter().flat_map(|fits| fits.windows(2)).collect();
    let shifts = steps.iter().filter(|w| w[1].x0 > w[0].x0).count();
    let pairs = panels[0].iter().zip(&panels[1]);
    let steeper = pairs.filter(|(solo, colo)| colo.k1.abs() > solo.k1.abs());
    let claims = vec![
        Claim::every("knee moves right with batch", shifts, steps.len()),
        Claim::every("co-location steepens k1", steeper.count(), panels[0].len()),
    ];
    Report { text: out, claims }
}
