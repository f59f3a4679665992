//! Quickstart: profile offline, train the interference predictor, and
//! tune one GPU that serves BERT inference next to a VGG16 training
//! task.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use modeling::bo::DecisionMemo;
use mudi::{InterferencePredictor, LatencyProfiler, MudiConfig, Tuner};
use simcore::SimRng;
use workloads::{ColoWorkload, GroundTruth, UnknownModel, Zoo};

fn main() -> Result<(), UnknownModel> {
    // 1. The workload catalogue (Tab. 1 + Tab. 3 of the paper) and the
    //    simulated hardware it runs on.
    let gt = GroundTruth::new(Zoo::standard(), 42);
    let mut rng = SimRng::seed(1);

    // 2. Offline: profile the latency curves of every inference service
    //    co-located with the first five training-task types, and train
    //    the architecture-based interference predictor (§4).
    let config = MudiConfig::default();
    let profiler = LatencyProfiler::new(config.clone());
    println!("profiling offline (first five task types)...");
    let db = profiler.build_database(&gt, &gt.zoo().profiled_task_ids(), &mut rng);
    println!(
        "  {} piece-wise curves fitted from {} latency observations",
        db.len(),
        db.total_observations()
    );
    let predictor = InterferencePredictor::new(db, &mut rng).expect("profiling succeeded");

    // 3. Online: a VGG16 training task lands on the BERT replica's GPU.
    //    The Tuner finds the batching size and GPU% that maximize
    //    training speed while holding BERT's 330 ms SLO at 240 QPS.
    let svc = gt.zoo().require_service("BERT")?;
    let task = gt.zoo().require_task("VGG16")?;
    let qps = 240.0;
    let tuner = Tuner::new(config);
    let outcome = tuner.tune(
        &predictor,
        svc.id,
        svc.slo_secs(),
        qps,
        0.0,
        &task.arch,
        // The Training Agent's feedback: observed mini-batch times.
        {
            let mut iter_rng = rng.fork("iteration-samples");
            let gt = &gt;
            move |batch, frac| {
                let colo = [ColoWorkload::inference(svc.id, batch, frac)];
                gt.sample_training_iteration(task.id, (1.0 - frac).max(0.05), &colo, &mut iter_rng)
            }
        },
        // The Service Agent's feedback: observed tail latency.
        |batch, frac| {
            let colo = [ColoWorkload::training(task.id, (1.0f64 - frac).max(0.01))];
            gt.p99_inference_latency(svc.id, batch, frac, &colo)
        },
        &mut rng,
        // A single pass: nothing to reuse, so no memo slots.
        &mut DecisionMemo::default(),
    );

    println!("\ntuned configuration for BERT @ {qps} QPS + VGG16 training:");
    println!("  inference batch      : {}", outcome.batch);
    println!(
        "  inference GPU share  : {:.0}%",
        outcome.gpu_fraction * 100.0
    );
    println!(
        "  training GPU share   : {:.0}%",
        (1.0 - outcome.gpu_fraction) * 100.0
    );
    println!("  GP-LCB iterations    : {}", outcome.bo_iterations);
    println!("  SLO feasible         : {}", outcome.feasible);

    // 4. Verify against the (hidden) ground truth.
    let colo = [ColoWorkload::training(task.id, 1.0 - outcome.gpu_fraction)];
    let p99 = gt.p99_inference_latency(svc.id, outcome.batch, outcome.gpu_fraction, &colo);
    let fill = outcome.batch as f64 / qps;
    println!("\nverification against ground truth:");
    println!("  measured P99 batch latency : {:.1} ms", p99 * 1e3);
    println!(
        "  worst-case request latency : {:.1} ms (fill {:.1} ms + P99)",
        (fill + p99) * 1e3,
        fill * 1e3
    );
    println!(
        "  SLO                        : {:.0} ms",
        svc.slo.as_millis()
    );
    assert!(
        fill + p99 <= svc.slo_secs(),
        "tuned configuration violates the SLO"
    );
    println!("  => SLO holds with the training task running alongside");
    Ok(())
}
