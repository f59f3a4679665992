//! Cross-crate integration tests: the full Mudi pipeline from offline
//! profiling through online placement and tuning, exercised end to end
//! against the ground-truth substrate.

use modeling::bo::DecisionMemo;
use mudi::{
    DeviceCandidate, DeviceSelector, InterferenceModeler, InterferencePredictor, LatencyProfiler,
    MudiConfig, Tuner,
};
use simcore::SimRng;
use workloads::{ColoWorkload, GroundTruth, Zoo};

fn build_predictor(seed: u64) -> (GroundTruth, InterferencePredictor) {
    let gt = GroundTruth::new(Zoo::standard(), seed);
    let profiler = LatencyProfiler::new(MudiConfig::default());
    let mut rng = SimRng::seed(seed);
    let db = profiler.build_database(&gt, &gt.zoo().profiled_task_ids(), &mut rng);
    let p = InterferencePredictor::new(db, &mut rng).expect("profiling succeeds");
    (gt, p)
}

/// The headline pipeline: profile → predict → place → tune → verify
/// that the tuned configuration really holds the SLO on the hidden
/// hardware model, for every unobserved task type.
#[test]
fn profile_predict_place_tune_holds_slo_for_unobserved_tasks() {
    let (gt, predictor) = build_predictor(1234);
    let config = MudiConfig::default();
    let selector = DeviceSelector::new(config.clone());
    let tuner = Tuner::new(config);
    // One memo across the passes, as the engine keeps one per lane.
    let mut memo = DecisionMemo::with_slots(1024);
    let qps = 220.0;

    for &task in &gt.zoo().unobserved_task_ids() {
        // One candidate device per service type.
        let candidates: Vec<DeviceCandidate> = gt
            .zoo()
            .services()
            .iter()
            .enumerate()
            .map(|(i, s)| DeviceCandidate {
                device: i,
                service: s.id,
                existing_tasks: vec![],
                mem_headroom_gb: 38.0 - gt.training_memory_gb(task),
                reliability: mudi::ReliabilityPrior::default(),
                domain_training_load: 0.0,
            })
            .collect();
        let decision = selector
            .select(&gt, &predictor, task, &candidates)
            .expect("placement succeeds");
        let svc = &gt.zoo().services()[decision.device];
        let arch = gt.zoo().task(task).arch;

        let mut rng = SimRng::seed(99);
        let outcome = tuner.tune(
            &predictor,
            svc.id,
            svc.slo_secs(),
            qps,
            0.0,
            &arch,
            {
                let gt = &gt;
                let mut iter_rng = SimRng::seed(7);
                move |batch, frac| {
                    let colo = [ColoWorkload::inference(svc.id, batch, frac)];
                    gt.sample_training_iteration(task, (1.0 - frac).max(0.05), &colo, &mut iter_rng)
                }
            },
            {
                let gt = &gt;
                move |batch, frac| {
                    let colo = [ColoWorkload::training(task, (1.0f64 - frac).max(0.01))];
                    gt.p99_inference_latency(svc.id, batch, frac, &colo)
                }
            },
            &mut rng,
            &mut memo,
        );
        assert!(
            outcome.feasible,
            "task {task:?} should be tunable at {qps} QPS"
        );

        // Verify end-to-end against the hidden model.
        let colo = [ColoWorkload::training(task, 1.0 - outcome.gpu_fraction)];
        let p99 = gt.p99_inference_latency(svc.id, outcome.batch, outcome.gpu_fraction, &colo);
        let fill = outcome.batch as f64 / qps;
        assert!(
            fill + p99 <= svc.slo_secs() * 1.02,
            "task {task:?} on {}: e2e {:.1}ms vs SLO {:.0}ms",
            svc.name,
            (fill + p99) * 1e3,
            svc.slo.as_millis()
        );
        // Training must keep a real share of the GPU.
        assert!(
            outcome.gpu_fraction <= 0.9,
            "training squeezed out for {task:?}"
        );
    }
}

/// The selector must send heavy conv workloads away from the services
/// most sensitive to SM pressure, i.e. its ranking must correlate with
/// the true iteration-time ranking.
#[test]
fn selector_ranking_correlates_with_ground_truth() {
    let (gt, predictor) = build_predictor(55);
    let selector = DeviceSelector::new(MudiConfig::default());
    let heavy = gt.zoo().task_by_name("YOLOv5").expect("in zoo").id;

    let candidates: Vec<DeviceCandidate> = gt
        .zoo()
        .services()
        .iter()
        .enumerate()
        .map(|(i, s)| DeviceCandidate {
            device: i,
            service: s.id,
            existing_tasks: vec![],
            mem_headroom_gb: 10.0,
            reliability: mudi::ReliabilityPrior::default(),
            domain_training_load: 0.0,
        })
        .collect();
    let decision = selector
        .select(&gt, &predictor, heavy, &candidates)
        .expect("placement succeeds");
    // The chosen device's true interference on the inference side must
    // be no worse than the cluster median.
    let true_cost = |svc_idx: usize| {
        let svc = &gt.zoo().services()[svc_idx];
        let colo = [ColoWorkload::training(heavy, 0.5)];
        let shared = gt.inference_latency(svc.id, 64, 0.5, &colo);
        let solo = gt.inference_latency(svc.id, 64, 0.5, &[]);
        shared / solo
    };
    let mut costs: Vec<f64> = (0..candidates.len()).map(true_cost).collect();
    let chosen_cost = true_cost(decision.device);
    costs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let median = costs[costs.len() / 2];
    assert!(
        chosen_cost <= median * 1.05,
        "selector chose a worse-than-median device: {chosen_cost} vs median {median}"
    );
}

/// Incremental updates must not make predictions of already-covered
/// co-locations wildly worse (no catastrophic forgetting).
#[test]
fn incremental_update_preserves_known_tasks() {
    let gt = GroundTruth::new(Zoo::standard(), 77);
    let profiler = LatencyProfiler::new(MudiConfig::default());
    let mut rng = SimRng::seed(77);
    let db = profiler.build_database(&gt, &gt.zoo().profiled_task_ids(), &mut rng);
    let mut modeler = InterferenceModeler::train(&db, &mut rng).expect("profiling succeeds");
    let svc = gt.zoo().service_by_name("BERT").expect("in zoo").id;
    let known = gt.zoo().profiled_task_ids()[0];
    let arch = gt.zoo().task(known).arch;
    let before = modeler.predict(svc, &arch, 64).expect("covered service");

    // Fold in profiles of one unobserved task.
    let mut rng = SimRng::seed(3);
    let mut extra = mudi::ProfileDatabase::new();
    let unseen = gt.zoo().unobserved_task_ids()[0];
    for &batch in &[16u32, 64, 256] {
        if let Some(rec) = profiler.profile(&gt, svc, batch, &[unseen], &mut rng) {
            extra.insert(rec);
        }
    }
    modeler.update(&extra, &mut rng);

    let after = modeler.predict(svc, &arch, 64).expect("still covered");
    let drift = (after.y0 - before.y0).abs() / before.y0;
    assert!(drift < 0.5, "catastrophic forgetting: y0 drifted {drift}");
}

/// Determinism across the whole stack: the same seed gives bit-equal
/// predictions.
#[test]
fn pipeline_is_deterministic() {
    let (gt_a, pred_a) = build_predictor(2024);
    let (gt_b, pred_b) = build_predictor(2024);
    let svc = gt_a.zoo().services()[3].id;
    for task in gt_b.zoo().tasks() {
        let a = pred_a
            .curve_for_arch(svc, &task.arch, 128)
            .expect("covered");
        let b = pred_b
            .curve_for_arch(svc, &task.arch, 128)
            .expect("covered");
        assert_eq!(a, b, "prediction differs for {}", task.name);
    }
}
