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

use crate::{banner, Scale};

pub fn run(scale: Scale, seed: u64) -> String {
    let mut out = banner(
        "Tab. 2 — fitting error vs number of training samples",
        "piece-wise: 10.03/6.41/4.27/3.91/3.78; polynomial: 9.81..5.53; MLP: ~7 flat",
        scale,
    );
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
    let winners: Vec<String> = (0..5)
        .map(|i| {
            let best = rows.iter().min_by(|a, b| a.1[i].total_cmp(&b.1[i]));
            format!("{}: {}", i + 5, best.expect("three rows").0)
        })
        .collect();
    out += &format!(
        "Shape checks: lowest error by samples {}; piece-wise error at 9 samples ({:.2}) \
         is {} its error at 5 ({:.2}); errors are in percent.\n",
        winners.join(", "),
        pw[4],
        if pw[4] < pw[0] { "below" } else { "not below" },
        pw[0]
    );
    out
}
