//! Tab. 2 — fitting error of polynomial vs MLP vs piece-wise linear
//! models as the training-sample count grows from 5 to 9.
//!
//! Paper: piece-wise linear wins below 10 samples (errors dropping
//! ~10.0 → 3.8 as samples grow 5 → 9); polynomial 9.8 → 5.5; MLP flat
//! around 7. Errors are mean absolute percentage errors on held-out
//! points of the latency curve.

use cluster::report::Table;
use modeling::eval::mape;
use modeling::fit::piecewise::fit_piecewise;
use modeling::fit::poly::Polynomial;
use modeling::mlp::MlpRegressor;
use modeling::regressor::{Dataset, Regressor};
use simcore::SimRng;
use workloads::{ColoWorkload, GroundTruth, Zoo};

use crate::{banner, Claim, Report, Scale};

pub fn run(scale: Scale, seed: u64) -> Report {
    let title = "Tab. 2 — fitting error vs number of training samples";
    let mut out = banner(title, scale);
    let gt = GroundTruth::new(Zoo::standard(), seed ^ 0xA100);
    let mut rng = SimRng::seed(seed);

    // Representative latency curves: three services × two co-locations.
    let mut scenarios = Vec::new();
    for name in ["GPT2", "ResNet50", "BERT"] {
        let svc = gt.zoo().require_service(name).expect("zoo model");
        for (task, batch) in [("VGG16", 64u32), ("LSTM", 128u32)] {
            let t = gt.zoo().require_task(task).expect("zoo model");
            scenarios.push((svc.id, t.id, batch));
        }
    }

    let mut table = Table::new(&["Model \\ Samples", "5", "6", "7", "8", "9"]);
    let mut rows: Vec<(String, Vec<f64>)> = vec![
        ("Polynomial fitting".into(), Vec::new()),
        ("MLP fitting".into(), Vec::new()),
        ("Piece-wise linear".into(), Vec::new()),
    ];

    for n_samples in 5..=9usize {
        let mut errs = [0.0f64; 3];
        let mut counts = [0u32; 3];
        for &(svc, task, batch) in &scenarios {
            // Noisy observed P99 samples at n evenly spaced fractions:
            // each point is the empirical P99 (max) of 20 draws, as a
            // short profiling run would measure — deliberately noisy.
            let sample_at = |frac: f64, rng: &mut SimRng| {
                let colo = [ColoWorkload::training(task, (1.0f64 - frac).max(0.05))];
                let noise = gt.phase_noise(svc, batch, frac, &colo);
                (0..20)
                    .map(|_| noise.sample(rng).total())
                    .fold(0.0f64, f64::max)
            };
            let train_pts: Vec<(f64, f64)> = (0..n_samples)
                .map(|i| {
                    let frac = 0.1 + 0.8 * i as f64 / (n_samples - 1) as f64;
                    (frac, sample_at(frac, &mut rng))
                })
                .collect();
            // Held-out truth on a fine grid (analytic P99).
            let test_pts: Vec<(f64, f64)> = (0..17)
                .map(|i| {
                    let frac = 0.1 + 0.8 * i as f64 / 16.0;
                    let colo = [ColoWorkload::training(task, (1.0f64 - frac).max(0.05))];
                    (frac, gt.p99_inference_latency(svc, batch, frac, &colo))
                })
                .collect();

            // Polynomial (degree 3, as a flexible baseline).
            if let Some(p) = Polynomial::fit(&train_pts, 3.min(n_samples - 2)) {
                errs[0] += mape(test_pts.iter().map(|&(x, y)| (p.eval(x), y)));
                counts[0] += 1;
            }
            // MLP.
            let mut d = Dataset::new();
            for &(x, y) in &train_pts {
                d.push(vec![x], y);
            }
            if let Some(m) = MlpRegressor::train(&d, &[8], 300, 0.02, &mut rng) {
                errs[1] += mape(test_pts.iter().map(|&(x, y)| (m.predict(&[x]), y)));
                counts[1] += 1;
            }
            // Piece-wise linear.
            if let Some(f) = fit_piecewise(&train_pts) {
                errs[2] += mape(test_pts.iter().map(|&(x, y)| (f.eval(x), y)));
                counts[2] += 1;
            }
        }
        for i in 0..3 {
            rows[i].1.push(errs[i] / counts[i].max(1) as f64);
        }
    }

    for (name, vals) in &rows {
        let mut row = vec![name.clone()];
        row.extend(vals.iter().map(|v| format!("{v:.2}")));
        table.row(row);
    }
    out.push_str(&table.render());
    let pw = &rows[2].1;
    let (shown, fell) = (format!("{:.2}% vs {:.2}%", pw[4], pw[0]), pw[4] < pw[0]);
    let ends_lower = Claim::ordering("piece-wise error ends lower", shown, "lower", fell);
    let mut claims = vec![ends_lower];
    for i in 0..5 {
        let at = rows.iter().map(|(name, errs)| (name.as_str(), errs[i]));
        let name = format!("lowest fitting error at {} samples", i + 5);
        claims.push(Claim::lowest(name, "Piece-wise linear", at));
    }
    Report { text: out, claims }
}
