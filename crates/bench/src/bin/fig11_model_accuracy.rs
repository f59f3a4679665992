//! Fig. 11 — interference-modeling accuracy on unobserved tasks.
//!
//! Trains the Interference Modeler on the first five task types and
//! evaluates the predicted piece-wise parameters against fresh fits for
//! the last four (unobserved) tasks. Paper: all errors < 0.3; averages
//! k1 0.23, k2 0.16, Δ0 0.05, l0 0.06; best model annotated per metric.
//!
//! Also reports what the fit costs, per learner kind: the CPU time of
//! its 4-fold cross validation summed over services × targets, and how
//! many (service, target) selections it wins. Host timings go to
//! stderr; stdout stays seed-determined.

use std::hint::black_box;

use bench::{banner, compare, seed, thread_cpu_s};
use cluster::report::Table;
use modeling::eval::{kfold_indices, relative_error};
use modeling::select::cross_validate;
use modeling::RegressorKind;
use mudi::interference::TargetParam;
use mudi::{InterferenceModeler, LatencyProfiler, MudiConfig, ProfileDatabase};
use simcore::SimRng;
use workloads::{GroundTruth, Zoo};

fn main() {
    banner(
        "Fig. 11 — interference-model accuracy per service & parameter",
        "errors < 0.3; avg k1 0.23, k2 0.16, Δ0 0.05, l0 0.06; best learner annotated",
    );
    let gt = GroundTruth::new(Zoo::standard(), seed() ^ 0xA100);
    let config = MudiConfig::default();
    let profiler = LatencyProfiler::new(config.clone());
    let mut rng = SimRng::seed(seed());

    // Train on the profiled five (70-sample regime of §7.3).
    let db = profiler.build_database(&gt, &gt.zoo().profiled_task_ids(), &mut rng);
    let t0 = thread_cpu_s();
    let modeler = InterferenceModeler::train(&db, &mut rng).expect("non-empty database");
    let fit_cpu_s = thread_cpu_s() - t0;

    // Test set: fits for the four unobserved tasks.
    let mut test = ProfileDatabase::new();
    for svc in gt.zoo().services() {
        for &task in &gt.zoo().unobserved_task_ids() {
            for &batch in &config.profile_batches {
                if let Some(rec) = profiler.profile(&gt, svc.id, batch, &[task], &mut rng) {
                    test.insert(rec);
                }
            }
        }
    }

    let mut table = Table::new(&[
        "service",
        "k1 err",
        "k2 err",
        "Δ0 err",
        "l0 err",
        "best models",
    ]);
    let mut avgs = [0.0f64; 4];
    for svc in gt.zoo().services() {
        let mut errs = [0.0f64; 4];
        let mut n = 0.0f64;
        for rec in test.for_service(svc.id) {
            let pred = modeler
                .predict(svc.id, &rec.merged_arch, rec.key.batch)
                .expect("service trained");
            let p = pred.params();
            let t = rec.curve.params();
            for i in 0..4 {
                errs[i] += relative_error(p[i], t[i]);
            }
            n += 1.0;
        }
        for e in &mut errs {
            *e /= n.max(1.0);
        }
        let kinds: Vec<String> = TargetParam::ALL
            .iter()
            .map(|&t| {
                modeler
                    .chosen_kind(svc.id, t)
                    .map(|k| k.name().to_string())
                    .unwrap_or_default()
            })
            .collect();
        table.row(vec![
            svc.name.to_string(),
            format!("{:.3}", errs[0]),
            format!("{:.3}", errs[1]),
            format!("{:.3}", errs[2]),
            format!("{:.3}", errs[3]),
            kinds.join("/"),
        ]);
        for (a, e) in avgs.iter_mut().zip(&errs) {
            *a += e / gt.zoo().services().len() as f64;
        }
    }
    print!("{}", table.render());
    compare("avg k1 error", avgs[0], 0.23, "");
    compare("avg k2 error", avgs[1], 0.16, "");
    compare("avg Δ0 error", avgs[2], 0.05, "");
    compare("avg l0 error", avgs[3], 0.06, "");

    // Re-run each kind's cross validation on the exact datasets and
    // splits model selection used (the modeler selects with 4 folds;
    // `fork` is pure, so `rng` yields the same fold streams).
    let mut cv_cpu_s = [0.0f64; RegressorKind::ALL.len()];
    let mut wins = [0usize; RegressorKind::ALL.len()];
    for svc in modeler.services() {
        for target in TargetParam::ALL {
            let data = modeler.training_data(svc, target).expect("trained target");
            let splits = kfold_indices(data.len(), 4);
            for (i, kind) in RegressorKind::ALL.into_iter().enumerate() {
                let t0 = thread_cpu_s();
                black_box(cross_validate(kind, data, &splits, &rng));
                cv_cpu_s[i] += thread_cpu_s() - t0;
                wins[i] += usize::from(modeler.chosen_kind(svc, target) == Some(kind));
            }
        }
    }
    let cv_total: f64 = cv_cpu_s.iter().sum();
    let mut cost = Table::new(&["learner", "CV CPU s", "share of CV", "wins"]);
    for (i, kind) in RegressorKind::ALL.into_iter().enumerate() {
        cost.row(vec![
            kind.name().to_string(),
            format!("{:.3}", cv_cpu_s[i]),
            format!("{:.1}%", 100.0 * cv_cpu_s[i] / cv_total.max(1e-12)),
            format!("{}/{}", wins[i], wins.iter().sum::<usize>()),
        ]);
    }
    eprintln!("\nFit cost per learner (4-fold CV, summed over services x targets):");
    eprint!("{}", cost.render());
    eprintln!("  CV total {cv_total:.3} CPU s; whole fit {fit_cpu_s:.3} CPU s");
}
