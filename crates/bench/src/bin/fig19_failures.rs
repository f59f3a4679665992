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
//! work) across fault rates. Deterministic for a fixed `MUDI_SEED`.

use std::time::Instant;

use bench::{banner, physical_config, pool_summary, seed};
use cluster::experiments::{end_to_end_many, failure_cells};
use cluster::report::{fault_table, pct};
use cluster::systems::SystemKind;
use resilience::{FaultConfig, FaultSchedule};
use simcore::SimRng;

fn main() {
    banner(
        "Fig. 19 — failure injection (extension beyond the paper)",
        "Under identical fault schedules, SLO-aware recovery (failover + \
         guardrails + checkpointed requeue) degrades goodput and SLO \
         compliance gracefully with fault rate",
    );

    let rates = [0.0, 25.0, 100.0, 400.0];
    let systems = [SystemKind::Gslice, SystemKind::MuxFlow, SystemKind::Mudi];

    // Preview the shared schedule each system will face per rate.
    println!("\ninjected fault mix at each rate (same for every system):");
    for &rate in &rates {
        if rate == 0.0 {
            println!("  rate   0x: fault-free baseline");
            continue;
        }
        let (cfg, _) = physical_config(SystemKind::Mudi);
        let schedule = FaultSchedule::generate(
            &FaultConfig::scaled(rate),
            cfg.devices,
            cfg.max_sim_secs,
            &SimRng::seed(cfg.seed).fork("faults"),
        );
        let (fail, slow, crash, mps) = schedule.class_counts();
        println!(
            "  rate {rate:>3.0}x: {fail} device failures, {slow} slowdowns, \
             {crash} process crashes, {mps} MPS restarts over the horizon"
        );
    }

    // Flatten every (system × rate) cell into one pooled fan-out: each
    // cell carries its own seed-derived RNG streams, so this is
    // bit-identical to the per-system serial sweeps it replaces.
    let cells: Vec<_> = systems
        .iter()
        .flat_map(|&system| {
            let (cfg, iter_scale) = physical_config(system);
            failure_cells(system, seed(), &rates, &cfg, iter_scale)
        })
        .collect();
    let started = Instant::now();
    let all = end_to_end_many(cells, simcore::max_workers());
    let elapsed = started.elapsed().as_secs_f64();
    let cell_walls: Vec<f64> = all.iter().map(|r| r.wall_clock_secs).collect();

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

    println!();
    print!("{}", fault_table(&labels, &results).render());

    println!("\nSLO-violation and goodput curves (x = fault-rate multiplier):");
    for (system, curve) in &curves {
        let viol: Vec<String> = curve
            .iter()
            .map(|(rate, v, _)| format!("{rate:.0}x={}", pct(*v)))
            .collect();
        let good: Vec<String> = curve
            .iter()
            .map(|(rate, _, g)| format!("{rate:.0}x={g:.0}"))
            .collect();
        println!("  {:<8} violations: {}", system.name(), viol.join("  "));
        println!("  {:<8} goodput/h : {}", "", good.join("  "));
    }

    // Sanity: faults should not reduce accounted traffic to zero, and
    // the fault-free run should dominate goodput at the highest rate
    // for at least one system (lost work + downtime are real costs).
    for (system, curve) in &curves {
        let base = curve.first().expect("rate 0 present");
        let worst = curve.last().expect("max rate present");
        println!(
            "  {} goodput retained at {:.0}x faults: {}",
            system.name(),
            worst.0,
            if base.2 > 0.0 {
                format!("{:.0}%", 100.0 * worst.2 / base.2)
            } else {
                "n/a".to_string()
            }
        );
    }

    pool_summary("fan-out", &cell_walls, elapsed);
}
