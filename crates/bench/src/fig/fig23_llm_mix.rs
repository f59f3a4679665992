//! Fig. 23 (extension) — generative serving under token-level SLOs,
//! Mudi vs the baselines.
//!
//! The paper predates the generative-serving regime; this experiment
//! extends its Fig. 8/15 methodology to a mixed fleet — the classifier
//! zoo plus the continuous-batching LLM services (Llama-7B, OPT-13B)
//! with TTFT and p99 inter-token-latency SLOs — swept over load
//! multipliers. Each cell records training goodput, the overall
//! (request-level) violation rate, and the two token-level compliance
//! axes: the token-weighted ITL violation rate and the
//! request-weighted TTFT violation rate over the generative services.
//!
//! At full scale the figure also checks the headline claim: at one or
//! more load points Mudi matches the best baseline's token-SLO
//! compliance (within a small absolute tolerance — the rates are tail
//! integrals, not counters) while delivering at least as much training
//! goodput. Reduced scale sweeps the 1.5× load on a short horizon and
//! only reports the winning loads. Every cell runs on 4 engine shards
//! (one per rack), so the sharded engine carries the LLM mix.

use cluster::engine::{ClusterConfig, ScalePreset};
use cluster::systems::SystemKind;

use crate::{banner, run_cells, Scale};

const SYSTEMS: &[SystemKind] = &[SystemKind::Mudi, SystemKind::Gslice, SystemKind::MuxFlow];

/// Two token-violation rates within this absolute distance are treated
/// as equal compliance when scoring load points.
const TOKEN_RATE_TOL: f64 = 0.005;

pub fn run(scale: Scale, seed: u64) -> String {
    let mut out = banner(
        "Fig. 23 — generative LLM mix under token SLOs (extension beyond the paper)",
        "Mudi matches the best baseline's token-SLO compliance at \
         equal-or-better training goodput at one or more loads",
        scale,
    );
    const DAY: f64 = 24.0 * 3600.0;
    let (loads, horizon): (&[f64], f64) = match scale {
        Scale::Reduced => (&[1.5], 0.5 * DAY),
        Scale::Full => (&[1.0, 1.5, 2.0], 2.0 * DAY),
    };
    let cells = loads.iter().flat_map(|&load| {
        SYSTEMS.iter().map(move |&system| {
            let cfg = ClusterConfig::builder(ScalePreset::Physical, system, seed)
                .jobs(12)
                .llm_services(true)
                .load_multiplier(load)
                .max_sim_secs(horizon)
                .shards(4)
                .build();
            (cfg, 0.01)
        })
    });
    let results = run_cells(cells.collect());

    // `results` is load-major: SYSTEMS.len() cells per load.
    let mut winning_loads: Vec<f64> = Vec::new();
    for (&load, row) in loads.iter().zip(results.chunks(SYSTEMS.len())) {
        for (system, r) in SYSTEMS.iter().zip(row) {
            out += &format!(
                "{:<10} load={load:.1}  goodput {:>9.1} it/h  viol {:.4}  \
                 token-viol {:.4}  ttft-viol {:.4}  fp {:016x}\n",
                system.name(),
                r.goodput_iters_per_hour(),
                r.overall_violation_rate(),
                r.overall_token_violation_rate(),
                r.overall_ttft_violation_rate(),
                r.fingerprint(),
            );
        }
        // Mudi holds the best baseline's token compliance (within
        // tolerance) at equal-or-better goodput.
        let mudi = &row[0];
        let wins = row[1..].iter().all(|base| {
            mudi.overall_token_violation_rate()
                <= base.overall_token_violation_rate() + TOKEN_RATE_TOL
                && mudi.goodput_iters_per_hour() >= base.goodput_iters_per_hour() - 1e-9
        });
        if wins {
            winning_loads.push(load);
        }
    }
    if scale == Scale::Full {
        assert!(
            !winning_loads.is_empty(),
            "Mudi failed to match baseline token-SLO compliance at equal \
             goodput on every swept load point"
        );
    }
    out += &format!(
        "Mudi holds token-SLO compliance at equal-or-better goodput at \
         load(s) {winning_loads:?}\n"
    );
    out
}
