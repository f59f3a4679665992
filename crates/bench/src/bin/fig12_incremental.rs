//! Fig. 12 — end-to-end latency prediction error vs training-sample
//! count (incremental updates).
//!
//! Paper: as the per-service training set grows from 30 to 90 samples
//! (new co-locations sampled online and folded in incrementally), the
//! E2E latency prediction error drops from up to 0.6 to below 0.16.

use bench::{banner, seed};
use cluster::report::Table;
use modeling::eval::relative_error;
use mudi::{InterferenceModeler, LatencyProfiler, MudiConfig, ProfileDatabase};
use simcore::SimRng;
use workloads::{ColoWorkload, GroundTruth, Zoo};

fn main() {
    banner(
        "Fig. 12 — E2E prediction error vs per-service sample count",
        "error falls from up to 0.6 (30 samples) to below 0.16 (90 samples)",
    );
    let gt = GroundTruth::new(Zoo::standard(), seed() ^ 0xA100);
    let config = MudiConfig::default();
    let profiler = LatencyProfiler::new(config.clone());
    let mut rng = SimRng::seed(seed());

    // The full corpus: all 9 tasks × 6 batches per service, plus the
    // solo baseline = up to 60 records per service; multi-task pairs
    // extend beyond 90. Build in arrival order: profiled five first,
    // then unobserved singles, then pairs among profiled tasks.
    let profiled = gt.zoo().profiled_task_ids();
    let unobserved = gt.zoo().unobserved_task_ids();
    let mut corpus: Vec<Vec<workloads::TaskId>> = Vec::new();
    for &t in &profiled {
        corpus.push(vec![t]);
    }
    for &t in &unobserved {
        corpus.push(vec![t]);
    }
    for (i, &a) in profiled.iter().enumerate() {
        for &b in &profiled[i..] {
            corpus.push(vec![a, b]);
        }
    }

    // Held-out evaluation points: unobserved tasks at off-grid batches.
    let eval_batches = [24u32, 48, 96, 192];

    let mut table = Table::new(&["samples/service", "mean E2E err", "max service err"]);
    // `(samples per service, mean error)` per row.
    let mut means: Vec<(usize, f64)> = Vec::new();
    for &n_colo in &[5usize, 8, 11, 15] {
        let mut db = ProfileDatabase::new();
        for svc in gt.zoo().services() {
            for &batch in &config.profile_batches {
                // Solo reference curves (always profiled first).
                if let Some(rec) = profiler.profile(&gt, svc.id, batch, &[], &mut rng) {
                    db.insert(rec);
                }
            }
            for tasks in corpus.iter().take(n_colo) {
                for &batch in &config.profile_batches {
                    if let Some(rec) = profiler.profile(&gt, svc.id, batch, tasks, &mut rng) {
                        db.insert(rec);
                    }
                }
            }
        }
        let samples_per_service = db.len() / gt.zoo().services().len();
        let modeler = InterferenceModeler::train(&db, &mut rng).expect("non-empty");

        let mut total = 0.0f64;
        let mut count = 0.0f64;
        let mut worst: f64 = 0.0;
        for svc in gt.zoo().services() {
            let mut svc_err = 0.0;
            let mut svc_n = 0.0f64;
            for &task in &unobserved {
                let arch = gt.zoo().task(task).arch;
                for &batch in &eval_batches {
                    let Some(curve) = modeler.predict(svc.id, &arch, batch) else {
                        continue;
                    };
                    for frac in [0.3, 0.5, 0.7] {
                        let colo = [ColoWorkload::training(task, (1.0f64 - frac).max(0.05))];
                        let truth = gt.p99_inference_latency(svc.id, batch, frac, &colo);
                        let err = relative_error(curve.eval(frac).max(0.0), truth);
                        svc_err += err;
                        svc_n += 1.0;
                    }
                }
            }
            let e = svc_err / svc_n.max(1.0);
            worst = worst.max(e);
            total += svc_err;
            count += svc_n;
        }
        let mean = total / count.max(1.0);
        means.push((samples_per_service, mean));
        table.row(vec![
            samples_per_service.to_string(),
            format!("{:.3}", mean),
            format!("{:.3}", worst),
        ]);
    }
    print!("{}", table.render());
    let falls = means.windows(2).filter(|w| w[1].1 < w[0].1).count();
    let (first, last) = (means[0], means[means.len() - 1]);
    println!(
        "Shape check: mean error falls on {falls} of {} sample-count steps, and at {} \
         samples/service ({:.3})\nit is {} its value at {} ({:.3}) (paper: 0.6 -> <0.16).",
        means.len() - 1,
        last.0,
        last.1,
        if last.1 < first.1 {
            "below"
        } else {
            "not below"
        },
        first.0,
        first.1
    );
}
