//! Golden-snapshot tests for the experiment drivers.
//!
//! Small-scale sweep cells (built by the `*_cells` functions and run
//! through the pooled `end_to_end_many`) and scripted sessions at fixed
//! seeds are compared **exactly** (canonical round-trip float text)
//! against checked-in expectations under `tests/golden/`. A scheduler,
//! placement, or recovery change that silently shifts any simulated
//! quantity — violation counts, CT statistics, fault accounting — fails
//! here and must re-record the goldens deliberately:
//!
//! ```text
//! MUDI_BLESS=1 cargo test --test golden_snapshots
//! ```
//!
//! Every engine golden is checked at each (shards, workers) point of
//! [`GRID`]: the parallel-commit contract says the partition and the
//! lane worker count are unobservable, so each point must reproduce the
//! same file. A re-record writes the first point's rendering and checks
//! the others against it.
//!
//! Every figure in `bench::fig::ALL` is also pinned here: its text at
//! reduced scale and seed 42 must match `tests/golden/figures/<id>.txt`,
//! and all their paper claims `tests/golden/paper_claims.txt` and the
//! block EXPERIMENTS.md embeds, re-recorded the same way. So are the
//! fingerprints and counters of the `bench::ledger` rows that run in
//! seconds.
//!
//! The rendered fields are pure IEEE-754 arithmetic plus libm calls
//! (`exp`, `ln`, …); goldens are recorded on x86-64 Linux/glibc, the CI
//! platform. A port to another libm may need a re-record.

use std::fmt::Write as _;
use std::path::PathBuf;

use cluster::engine::{ClusterConfig, ClusterSession, LiveFault};
use cluster::experiments::{
    correlated_failure_cells, end_to_end_many, failure_cells, load_cells, warm_standby_cells,
    FaultScope,
};
use cluster::metrics::ExperimentResult;
use cluster::systems::SystemKind;
use simcore::SimTime;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// The (shards, workers) points every engine golden is checked at: the
/// single-queue engine, then lanes on 2 and 4 worker threads. On the
/// 4-rack default topology 8 shards clamp to 4.
const GRID: [(usize, usize); 3] = [(1, 1), (4, 2), (8, 4)];

fn check_golden(name: &str, actual: &str) {
    if simcore::env::flag("MUDI_BLESS") {
        std::fs::write(golden_path(name), actual).expect("write golden");
        return;
    }
    compare_golden(name, actual, "");
}

/// Renders the golden at every [`GRID`] point and checks each against
/// the same file.
fn check_golden_on_grid(name: &str, render: impl Fn(usize, usize) -> String) {
    for (i, (shards, workers)) in GRID.into_iter().enumerate() {
        let actual = render(shards, workers);
        if i == 0 {
            check_golden(name, &actual);
        } else {
            let point = format!(" at shards={shards} workers={workers}");
            compare_golden(name, &actual, &point);
        }
    }
}

fn compare_golden(name: &str, actual: &str, point: &str) {
    let path = golden_path(name);
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e}; record with MUDI_BLESS=1",
            path.display()
        )
    });
    assert!(
        expected == actual,
        "{name} drifted from its golden snapshot{point}.\n\
         If the change is intentional, re-record with MUDI_BLESS=1.\n\
         --- expected ---\n{expected}\n--- actual ---\n{actual}"
    );
}

/// Runs the cells on the pool at the process's worker cap, so CI's
/// `MUDI_THREADS=2` leg checks the goldens pooled.
fn run_cells(cells: Vec<(ClusterConfig, f64)>) -> Vec<ExperimentResult> {
    end_to_end_many(cells, simcore::max_workers())
}

fn render_series(xs: &[f64], results: &[ExperimentResult]) -> String {
    assert_eq!(xs.len(), results.len());
    let mut out = String::new();
    for (x, r) in xs.iter().zip(results) {
        let _ = writeln!(out, "== cell x={x:?} ==");
        out.push_str(&r.canonical_text());
    }
    out
}

/// Iteration scale of every snapshot run.
const SCALE: f64 = 0.01;

/// Tiny deterministic cell at one [`GRID`] point: full 12-device
/// physical topology, few jobs, heavily scaled-down iterations
/// ([`SCALE`]) — seconds to run, same code paths.
fn snapshot_config(system: SystemKind, seed: u64, shards: usize, workers: usize) -> ClusterConfig {
    let mut cfg = ClusterConfig::physical(system, seed);
    cfg.jobs = 12;
    cfg.shards = shards;
    cfg.workers = workers;
    cfg
}

#[test]
fn failure_sweep_matches_golden() {
    let rates = [0.0, 100.0];
    check_golden_on_grid("failure_sweep.txt", |shards, workers| {
        let base = snapshot_config(SystemKind::Mudi, 7, shards, workers);
        let results = run_cells(failure_cells(SystemKind::Mudi, 7, &rates, &base, SCALE));
        render_series(&rates, &results)
    });
}

/// The fig. 20 shape: correlated blast radii over the default 4×2
/// topology. Pins the topology expansion, the rack-striped layout, the
/// reliability-aware selector inputs, and the total-outage accounting.
#[test]
fn correlated_failures_match_golden() {
    let (scopes, rate) = ([FaultScope::Node, FaultScope::Rack], 200.0);
    check_golden_on_grid("correlated_failures.txt", |shards, workers| {
        let base = snapshot_config(SystemKind::Mudi, 7, shards, workers);
        let results = run_cells(correlated_failure_cells(
            SystemKind::Mudi,
            7,
            &scopes,
            &[rate],
            &base,
            SCALE,
        ));
        assert_eq!(results.len(), scopes.len());
        let mut out = String::new();
        for (scope, r) in scopes.iter().zip(&results) {
            let _ = writeln!(out, "== cell scope={} rate={rate:?} ==", scope.name());
            out.push_str(&r.canonical_text());
        }
        out
    });
}

/// The fig. 21 shape: warm-standby pool sizes against the pool-0
/// baseline under rack-correlated faults. Pins the pool seeding, the
/// promote/demote state machine, the reserved-GPU%-seconds ledger, and
/// — via the pool-0 cell — that a zero pool replays the plain
/// rack-correlated path byte-for-byte.
#[test]
fn warm_standby_matches_golden() {
    let (pools, rate) = ([0, 1], 200.0);
    check_golden_on_grid("warm_standby.txt", |shards, workers| {
        let base = snapshot_config(SystemKind::Mudi, 7, shards, workers);
        let results = run_cells(warm_standby_cells(
            SystemKind::Mudi,
            7,
            &pools,
            &[rate],
            &base,
            SCALE,
        ));
        assert_eq!(results.len(), pools.len());
        let mut out = String::new();
        for (pool, r) in pools.iter().zip(&results) {
            let _ = writeln!(out, "== cell pool={pool} rate={rate:?} ==");
            out.push_str(&r.canonical_text());
        }
        out
    });
}

/// A fixed scripted session — deploys, scales, live faults, routed
/// requests — rendered down to the canonical result text. Pins the
/// incremental `ClusterSession` surface (the dense-index engine must
/// replay the exact pre-refactor behavior, not just the batch drivers).
#[test]
fn session_script_matches_golden() {
    check_golden_on_grid("session_script.txt", session_script);
}

fn session_script(shards: usize, workers: usize) -> String {
    let cfg = snapshot_config(SystemKind::Mudi, 7, shards, workers);
    let mut s = ClusterSession::new_scaled(cfg, SCALE);
    let mut out = String::new();

    s.step_until(SimTime::from_secs(600.0));
    let services: Vec<_> = s.zoo().services().iter().map(|sp| sp.id).collect();
    for &svc in services.iter().take(3) {
        for _ in 0..5 {
            let r = s.infer(svc).expect("replica up");
            let _ = writeln!(
                out,
                "infer {} -> dev{} {:?}",
                svc.0, r.device, r.latency_secs
            );
        }
    }

    let grown = s.scale_service(services[1], 3).expect("scale up");
    let _ = writeln!(
        out,
        "scale svc1 -> {} moves={:?}",
        grown.achieved, grown.moves
    );

    s.inject_fault(2, LiveFault::DeviceFailure { repair_secs: 400.0 })
        .expect("fault");
    s.inject_fault(
        5,
        LiveFault::Slowdown {
            factor: 0.5,
            duration_secs: 300.0,
        },
    )
    .expect("fault");
    s.step_until(SimTime::from_secs(1800.0));
    s.inject_fault(7, LiveFault::ProcessCrash { salt: 3 })
        .expect("fault");
    s.inject_fault(9, LiveFault::MpsRestart).expect("fault");
    s.step_until(SimTime::from_secs(4000.0));

    for r in s.service_report() {
        let _ = writeln!(
            out,
            "svc {} {} up={}/{} req={:?} viol={:?} api={}/{} outage={}",
            r.id.0,
            r.name,
            r.replicas_up,
            r.replicas_assigned,
            r.requests,
            r.violations,
            r.api_violations,
            r.api_requests,
            r.in_outage
        );
    }
    let fm = s.fault_metrics();
    let _ = writeln!(
        out,
        "faults dev={} slow={} crash={} mps={} outage_secs={:?}",
        fm.device_failures,
        fm.slowdowns,
        fm.process_crashes,
        fm.mps_failures,
        fm.service_outage_secs
    );
    let _ = writeln!(out, "fired={}", s.events_fired());
    out.push_str(&s.finish().canonical_text());
    out
}

/// The LLM-mix shape: the physical cluster with the generative
/// services enabled, driven through a scripted token-inference session
/// — per-token verdict draws, a device failure on an LLM host, token
/// traffic across the repair — down to the canonical result text
/// (which carries the `service[i].tokens:` accrual lines). Pins the
/// continuous-batching analytic accrual, the token-SLO tuner path, and
/// the per-token verdict sampler. This golden is new with the
/// generative regime; every pre-existing golden is untouched by it
/// (classifier-only configs never construct generative services).
#[test]
fn llm_mix_session_matches_golden() {
    check_golden_on_grid("llm_mix_session.txt", llm_mix_session);
}

fn llm_mix_session(shards: usize, workers: usize) -> String {
    let mut cfg = snapshot_config(SystemKind::Mudi, 7, shards, workers);
    cfg.llm_services = true;
    let mut s = ClusterSession::new_scaled(cfg, SCALE);
    let mut out = String::new();

    s.step_until(SimTime::from_secs(900.0));
    let gen: Vec<_> = s
        .zoo()
        .services()
        .iter()
        .filter(|sp| sp.is_generative())
        .map(|sp| sp.id)
        .collect();
    assert!(!gen.is_empty(), "LLM mix must expose generative services");
    let script = |s: &mut ClusterSession, out: &mut String, tokens: u32| {
        for &svc in &gen {
            match s.infer_tokens(svc, tokens) {
                Ok(o) => {
                    let _ = writeln!(
                        out,
                        "gen {} tokens={tokens} -> dev{} standby={} ttft={:?} \
                         ttft_viol={} itl_viol={}/{}",
                        svc.0,
                        o.device,
                        o.via_standby,
                        o.ttft_secs,
                        o.ttft_violation,
                        o.itl_violations(),
                        o.tokens.len()
                    );
                }
                Err(e) => {
                    let _ = writeln!(out, "gen {} tokens={tokens} -> err {e}", svc.0);
                }
            }
        }
    };
    for tokens in [1u32, 8, 32] {
        script(&mut s, &mut out, tokens);
    }

    // Fail an LLM host and keep token traffic flowing across the
    // repair window.
    s.inject_fault(6, LiveFault::DeviceFailure { repair_secs: 600.0 })
        .expect("fault");
    s.step_until(SimTime::from_secs(1200.0));
    script(&mut s, &mut out, 16);
    s.step_until(SimTime::from_secs(2400.0));
    script(&mut s, &mut out, 16);

    let _ = writeln!(out, "fired={}", s.events_fired());
    out.push_str(&s.finish().canonical_text());
    out
}

#[test]
fn load_sensitivity_matches_golden() {
    let multipliers = [1.0, 4.0];
    check_golden_on_grid("load_sensitivity.txt", |shards, workers| {
        let base = snapshot_config(SystemKind::Gslice, 7, shards, workers);
        let results = run_cells(load_cells(
            SystemKind::Gslice,
            7,
            &multipliers,
            &base,
            SCALE,
        ));
        render_series(&multipliers, &results)
    });
}

/// Pins the Interference Modeler's fit bit for bit: every (service,
/// target, learner) 4-fold cross-validation MAE as `f64::to_bits` hex,
/// plus the learner selection keeps. Each zoo is profiled and fitted on
/// the inputs a seed-1 Mudi session boots from, so any change to a
/// learner's arithmetic — even one that leaves the simulated cluster
/// unchanged — fails here.
#[test]
fn predictor_fit_matches_golden() {
    use modeling::RegressorKind;
    use mudi::interference::TargetParam;
    use mudi::{InterferenceModeler, LatencyProfiler, MudiConfig};
    use simcore::SimRng;
    use workloads::{GroundTruth, Zoo};

    let seed = 1u64;
    let mut out = String::new();
    for (label, zoo) in [("standard", Zoo::standard()), ("llms", Zoo::with_llms())] {
        let gt = GroundTruth::new(zoo, seed ^ 0xA100);
        let profiler = LatencyProfiler::new(MudiConfig::default());
        let mut rng = SimRng::seed(seed).fork("system").fork("offline-profiling");
        let db = profiler.build_database(&gt, &gt.zoo().profiled_task_ids(), &mut rng);
        let modeler = InterferenceModeler::train(&db, &mut rng).expect("non-empty database");
        let _ = writeln!(out, "== zoo {label} ==");
        for service in modeler.services() {
            let name = gt.zoo().service(service).name;
            for target in TargetParam::ALL {
                let report = modeler.selection(service, target).expect("trained target");
                let _ = write!(out, "{name} {}", target.name());
                for kind in RegressorKind::ALL {
                    match report.cv_errors.iter().find(|(k, _)| *k == kind) {
                        Some((_, mae)) => {
                            let _ = write!(out, " {}={:016x}", kind.name(), mae.to_bits());
                        }
                        None => {
                            let _ = write!(out, " {}=-", kind.name());
                        }
                    }
                }
                let _ = writeln!(out, " best={}", report.kind.name());
            }
        }
    }
    check_golden("predictor_fit.txt", &out);
}

/// Every figure at reduced scale and seed 42, against its golden, and
/// all their claims against `paper_claims.txt`, which EXPERIMENTS.md
/// embeds. The golden directory holds exactly one file per figure id,
/// and no figure judges two claims of one name.
#[test]
fn figures_match_golden() {
    use bench::{claim, fig, Scale};

    let ids: Vec<&str> = fig::ALL.iter().map(|f| f.id).collect();
    let reports =
        simcore::pool::scoped_map(fig::ALL.iter().collect(), |f| (f.run)(Scale::Reduced, 42));
    for (id, report) in ids.iter().zip(&reports) {
        check_golden(&format!("figures/{id}.txt"), &report.text);
        let mut names: Vec<&str> = report.claims.iter().map(|c| c.name.as_str()).collect();
        names.sort_unstable();
        let repeated = names.windows(2).find(|w| w[0] == w[1]);
        assert!(repeated.is_none(), "{id} repeats the claim {repeated:?}");
    }
    let claims = ids
        .iter()
        .zip(&reports)
        .flat_map(|(&id, report)| report.claims.iter().map(move |c| (id, c)));
    let claims = claim::table(claims);
    check_golden("paper_claims.txt", &claims);
    check_claims_block(&claims);

    let mut files: Vec<String> = std::fs::read_dir(golden_path("figures"))
        .expect("figure goldens")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    files.sort();
    let mut expected: Vec<String> = ids.iter().map(|id| format!("{id}.txt")).collect();
    expected.sort();
    assert_eq!(files, expected, "figure goldens and bench::fig::ALL differ");
}

/// EXPERIMENTS.md's text between its paper-claims markers must be the
/// claims table; a re-record rewrites it.
fn check_claims_block(claims: &str) {
    const BEGIN: &str = "<!-- paper-claims:begin -->\n";
    const END: &str = "<!-- paper-claims:end -->";
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("EXPERIMENTS.md");
    let doc = std::fs::read_to_string(&path).expect("read EXPERIMENTS.md");
    let start = doc
        .find(BEGIN)
        .expect("EXPERIMENTS.md has the begin marker")
        + BEGIN.len();
    let end = start
        + doc[start..]
            .find(END)
            .expect("EXPERIMENTS.md has the end marker");
    if simcore::env::flag("MUDI_BLESS") {
        let blessed = format!("{}{claims}{}", &doc[..start], &doc[end..]);
        std::fs::write(&path, blessed).expect("write EXPERIMENTS.md");
        return;
    }
    assert!(
        doc[start..end] == *claims,
        "EXPERIMENTS.md's paper-claims block differs from the figures' claims.\n\
         If the change is intentional, re-record with MUDI_BLESS=1.\n\
         --- EXPERIMENTS.md ---\n{}\n--- claims ---\n{claims}",
        &doc[start..end]
    );
}

/// The ledger's kernel shapes and 1k-device cells, run once each: every
/// row's fingerprint and tuning and accrual counters against
/// `tests/golden/ledger.txt`, after the grid check (so a re-record cannot
/// bless a divergence). The 10k and 100k cells keep their recorded
/// lines here; every `ledger` run checks them.
#[test]
fn ledger_rows_match_golden() {
    use bench::ledger;

    let rows: Vec<ledger::Row> = ledger::table()
        .into_iter()
        .filter(|spec| !spec.grid.starts_with("scale-") || spec.grid == "scale-1k")
        .map(|spec| ledger::measure(&ledger::Spec { samples: 1, ..spec }))
        .collect();
    ledger::assert_grid(&rows);
    let recorded = std::fs::read_to_string(golden_path("ledger.txt")).unwrap_or_default();
    check_golden("ledger.txt", &ledger::golden_text(&recorded, &rows));
}
