use super::*;
use modeling::bo::DecisionMemo;
use workloads::Zoo;

fn gt() -> GroundTruth {
    GroundTruth::new(Zoo::standard(), 19)
}

fn candidates(gt: &GroundTruth) -> Vec<DeviceCandidate> {
    gt.zoo()
        .services()
        .iter()
        .enumerate()
        .map(|(i, s)| DeviceCandidate {
            device: i,
            service: s.id,
            existing_tasks: vec![],
            mem_headroom_gb: 35.0,
            reliability: mudi::ReliabilityPrior::default(),
            domain_training_load: 0.0,
        })
        .collect()
}

#[test]
fn kind_properties() {
    assert!(SystemKind::Mudi.manages_memory());
    assert!(SystemKind::MudiFlat.manages_memory());
    assert!(!SystemKind::Gslice.manages_memory());
    assert_eq!(SystemKind::MudiMore.max_trainings(), 3);
    assert_eq!(SystemKind::Gpulets.max_trainings(), 1);
    assert!(SystemKind::Mudi.reliability_aware());
    assert!(!SystemKind::MudiFlat.reliability_aware());
    assert!(!SystemKind::MuxFlow.reliability_aware());
}

#[test]
fn gslice_feedback_raises_fraction_under_pressure() {
    let g = gt();
    let mut rng = SimRng::seed(1);
    let mut sys = Gslice::new(&g, &mut rng);
    let svc = &g.zoo().services()[0];
    let mut view = DeviceView {
        device: 0,
        service: svc.id,
        qps: 300.0,
        slo_secs: svc.slo_secs(),
        tasks: vec![],
        batch: 64,
        fraction: 0.6,
        measured_p99: Some(svc.slo_secs() * 0.95),
        mem_headroom_gb: 30.0,
    };
    let d1 = sys.configure(&g, &view, &mut rng, (&mut DecisionMemo::default()).into());
    assert!(d1.fraction > 0.6, "should grow under SLO pressure");
    view.measured_p99 = Some(svc.slo_secs() * 0.2);
    let d2 = sys.configure(&g, &view, &mut rng, (&mut DecisionMemo::default()).into());
    assert!(d2.fraction < d1.fraction, "should shrink when comfortable");
    assert!(d2.fraction >= 0.30, "conservative floor");
}

#[test]
fn random_system_places_somewhere() {
    let g = gt();
    let mut rng = SimRng::seed(2);
    let mut sys = RandomSystem;
    let c = candidates(&g);
    let task = g.zoo().tasks()[0].id;
    let d = sys.place(&g, task, &c, &mut rng).unwrap();
    assert!(d < c.len());
    assert!(sys.place(&g, task, &[], &mut rng).is_none());
}

#[test]
fn optimal_config_meets_true_slo() {
    let g = gt();
    let mut o = Optimal::default();
    let svc = g.zoo().service_by_name("BERT").unwrap();
    let task = g.zoo().task_by_name("LSTM").unwrap().id;
    let (batch, frac, _) = o
        .best_config(&g, svc.id, svc.slo_secs(), 200.0, &[task])
        .expect("feasible at 200 QPS");
    let colo = [ColoWorkload::training(task, (1.0f64 - frac).max(0.01))];
    let p99 = g.p99_inference_latency(svc.id, batch, frac, &colo);
    assert!(batch as f64 / 200.0 + p99 <= svc.slo_secs() + 1e-9);
}

#[test]
fn optimal_cache_hits() {
    let g = gt();
    let mut o = Optimal::default();
    let svc = &g.zoo().services()[0];
    let task = g.zoo().tasks()[0].id;
    let a = o.best_config(&g, svc.id, svc.slo_secs(), 200.0, &[task]);
    let b = o.best_config(&g, svc.id, svc.slo_secs(), 203.0, &[task]);
    assert_eq!(a, b, "nearby QPS buckets share the cache entry");
    assert_eq!(o.cache.len(), 1);
}

#[test]
fn muxflow_scores_unobserved_as_average() {
    let g = gt();
    let mut rng = SimRng::seed(3);
    let sys = MuxFlow::new(&g, &mut rng);
    let svc = g.zoo().services()[0].id;
    let unobserved = g.zoo().unobserved_task_ids();
    let s1 = sys.pair_score(&g, svc, unobserved[0]);
    let s2 = sys.pair_score(&g, svc, unobserved[1]);
    // All unobserved tasks collapse to the same (average) score.
    assert_eq!(s1, s2);
    let profiled = g.zoo().profiled_task_ids();
    let p0 = sys.pair_score(&g, svc, profiled[0]);
    let p1 = sys.pair_score(&g, svc, profiled[1]);
    assert_ne!(p0, p1, "profiled tasks get distinct scores");
}

#[test]
fn gpulets_underestimates_versus_mudi() {
    // gpulets sizes from solo curves: with a heavy co-located task
    // its fraction should not exceed Mudi's interference-aware one
    // by much — typically it is smaller, which is what causes its
    // violations.
    let g = gt();
    let mut rng = SimRng::seed(4);
    let mut gp = Gpulets::new(&g, &mut rng);
    let mut mu = MudiSystem::new(SystemKind::Mudi, &g, &mut rng);
    let svc = g.zoo().service_by_name("ResNet50").unwrap();
    let heavy = g.zoo().task_by_name("YOLOv5").unwrap().id;
    let view = DeviceView {
        device: 0,
        service: svc.id,
        qps: 250.0,
        slo_secs: svc.slo_secs(),
        tasks: vec![heavy],
        batch: 64,
        fraction: 0.5,
        measured_p99: None,
        mem_headroom_gb: 10.0,
    };
    let dg = gp.configure(&g, &view, &mut rng, (&mut DecisionMemo::default()).into());
    let dm = mu.configure(&g, &view, &mut rng, (&mut DecisionMemo::default()).into());
    assert!(!dm.pause_training);
    // Compare required fractions at the same batch via true curves:
    // the gpulets decision must ignore the co-location, so its
    // fraction reflects only solo needs.
    assert!(dg.fraction <= 0.95 && dg.fraction >= 0.05);
    assert!(dm.bo_iterations > 0);
}

#[test]
fn mudi_configure_decides_the_same_through_a_warm_memo() {
    // Repeated retunes of a few devices: a replica sharing one memo
    // must decide exactly what a replica with no memo decides, while
    // answering repeated probe histories from the memo.
    let g = gt();
    let mut rng = SimRng::seed(4);
    let sys = MudiSystem::new(SystemKind::Mudi, &g, &mut rng);
    let (mut cold, mut warm) = (sys.replica(), sys.replica());
    let mut memo = DecisionMemo::with_slots(4096);
    let task = g.zoo().task_by_name("LSTM").unwrap().id;
    for round in 0..6u64 {
        for (i, svc) in g.zoo().services().iter().enumerate() {
            let view = DeviceView {
                device: i,
                service: svc.id,
                qps: 150.0 + 50.0 * (round % 2) as f64,
                slo_secs: svc.slo_secs(),
                tasks: if i % 2 == 0 { vec![] } else { vec![task] },
                batch: 32,
                fraction: 0.5,
                measured_p99: None,
                mem_headroom_gb: 20.0,
            };
            let seed = SimRng::seed(round % 3 + 10 * i as u64);
            let want = cold.configure(
                &g,
                &view,
                &mut seed.clone(),
                (&mut DecisionMemo::default()).into(),
            );
            let got = warm.configure(&g, &view, &mut seed.clone(), (&mut memo).into());
            assert_eq!(got, want, "round {round}, service {i}");
        }
    }
    let counts = memo.counts();
    assert!(counts.hits > 0, "{counts:?}");
    assert_eq!(counts.full, 0, "{counts:?}");
}
