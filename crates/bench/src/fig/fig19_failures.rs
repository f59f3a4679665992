//! Fig. 19 (extension) — SLO violations and goodput under faults.
//!
//! The paper evaluates a fault-free cluster; this experiment layers the
//! resilience subsystem's deterministic fault schedules on top and
//! sweeps the fault-rate multiplier. Every system at a given rate
//! replays the *identical* schedule (device failures, transient
//! slowdowns, process crashes, MPS restarts), so differences are due to
//! recovery behaviour: Mudi's re-placement + guardrails vs the
//! baselines' static reactions.
//!
//! Output: one curve per system of SLO-violation rate and training
//! goodput (useful iterations/hour, excluding checkpoint-rollback redo
//! work) across fault rates. Deterministic for a fixed seed.

use cluster::experiments::failure_cells;
use cluster::report::{fault_table, pct};
use cluster::systems::SystemKind;
use resilience::{FaultConfig, FaultSchedule};
use simcore::SimRng;

use crate::{banner, run_cells, Cluster, Report, Scale};

pub fn run(scale: Scale, seed: u64) -> Report {
    let mut out = banner(
        "Fig. 19 — failure injection (extension beyond the paper)",
        scale,
    );

    let rates = [0.0, 25.0, 100.0, 400.0];
    let systems = [SystemKind::Gslice, SystemKind::MuxFlow, SystemKind::Mudi];

    // Preview the shared schedule each system will face per rate.
    out.push_str("\ninjected fault mix at each rate (same for every system):\n");
    for &rate in &rates {
        if rate == 0.0 {
            out.push_str("  rate   0x: fault-free baseline\n");
            continue;
        }
        let (cfg, _) = Cluster::Physical.config(SystemKind::Mudi, scale, seed);
        let schedule = FaultSchedule::generate(
            &FaultConfig::scaled(rate),
            cfg.devices,
            cfg.max_sim_secs,
            &SimRng::seed(cfg.seed).fork("faults"),
        );
        let (fail, slow, crash, mps) = schedule.class_counts();
        out += &format!(
            "  rate {rate:>3.0}x: {fail} device failures, {slow} slowdowns, \
             {crash} process crashes, {mps} MPS restarts over the horizon\n"
        );
    }

    // Flatten every (system × rate) cell into one pooled fan-out: each
    // cell carries its own seed-derived RNG streams, so this is
    // bit-identical to the per-system serial sweeps it replaces.
    let cells: Vec<_> = systems
        .iter()
        .flat_map(|&system| {
            let (cfg, iter_scale) = Cluster::Physical.config(system, scale, seed);
            failure_cells(system, seed, &rates, &cfg, iter_scale)
        })
        .collect();
    let all = run_cells(cells);

    let mut labels = Vec::new();
    let mut results = Vec::new();
    // Per-system curve points: (fault rate, violation rate, goodput).
    type CurvePoint = (f64, f64, f64);
    let mut curves: Vec<(SystemKind, Vec<CurvePoint>)> = Vec::new();
    for (chunk, &system) in all.chunks(rates.len()).zip(&systems) {
        let mut curve = Vec::new();
        for (&rate, r) in rates.iter().zip(chunk) {
            curve.push((rate, r.overall_violation_rate(), r.goodput_iters_per_hour()));
            labels.push(format!("{rate:.0}x"));
            results.push(r.clone());
        }
        curves.push((system, curve));
    }

    out.push('\n');
    out.push_str(&fault_table(&labels, &results).render());

    out.push_str("\nSLO-violation and goodput curves (x = fault-rate multiplier):\n");
    for (system, curve) in &curves {
        let viol: Vec<String> = curve
            .iter()
            .map(|(rate, v, _)| format!("{rate:.0}x={}", pct(*v)))
            .collect();
        let good: Vec<String> = curve
            .iter()
            .map(|(rate, _, g)| format!("{rate:.0}x={g:.0}"))
            .collect();
        out += &format!("  {:<8} violations: {}\n", system.name(), viol.join("  "));
        out += &format!("  {:<8} goodput/h : {}\n", "", good.join("  "));
    }

    // Sanity: faults should not reduce accounted traffic to zero, and
    // the fault-free run should dominate goodput at the highest rate
    // for at least one system (lost work + downtime are real costs).
    for (system, curve) in &curves {
        let base = curve.first().expect("rate 0 present");
        let worst = curve.last().expect("max rate present");
        out += &format!(
            "  {} goodput retained at {:.0}x faults: {}\n",
            system.name(),
            worst.0,
            if base.2 > 0.0 {
                format!("{:.0}%", 100.0 * worst.2 / base.2)
            } else {
                "n/a".to_string()
            }
        );
    }
    // An extension beyond the paper: no paper claim to judge.
    Report {
        text: out,
        claims: Vec::new(),
    }
}
