//! Fig. 8 — SLO violation rates of all inference services.
//!
//! Runs GSLICE, gpulets, MuxFlow, and Mudi in the physical-scale
//! cluster and Mudi + baselines + Optimal in the simulated cluster,
//! printing the per-service P99 SLO-violation rates. Paper claims:
//! Mudi averages 0.5 % (physical) / 1.2 % (simulated); reductions up to
//! 5.5×/2.2×/4.2×/2.3×/3.8×/6× per service vs the best baseline;
//! MuxFlow worst (unseen tasks).

use bench::{banner, compare, physical_config, simulated_config};
use cluster::experiments::end_to_end_many;
use cluster::report::{pct, Table};
use cluster::systems::SystemKind;
use workloads::Zoo;

fn main() {
    banner(
        "Fig. 8 — SLO violation rates (P99)",
        "Mudi lowest violation rate everywhere: 0.5% avg physical, 1.2% simulated; \
         MuxFlow highest (pre-profiled pairs cannot adapt to unseen tasks)",
    );
    let zoo = Zoo::standard();
    let names: Vec<&str> = zoo.services().iter().map(|s| s.name).collect();

    for (label, sims) in [
        (
            "physical cluster (Fig. 8a)",
            vec![
                SystemKind::Gslice,
                SystemKind::Gpulets,
                SystemKind::MuxFlow,
                SystemKind::Mudi,
            ],
        ),
        (
            "simulated cluster (Fig. 8b)",
            vec![
                SystemKind::Gslice,
                SystemKind::Gpulets,
                SystemKind::MuxFlow,
                SystemKind::Mudi,
                SystemKind::Optimal,
            ],
        ),
    ] {
        println!("\n--- {label} ---");
        let mut header = vec!["system"];
        header.extend(names.iter());
        header.push("mean");
        let mut table = Table::new(&header);
        let mut mudi_mean = 0.0;
        let mut worst_baseline_mean: f64 = 0.0;
        // One pooled fan-out per cluster scale: each system's run is an
        // independent cell with its own seed-derived RNG streams.
        let cells: Vec<_> = sims
            .iter()
            .map(|&system| {
                if label.starts_with("physical") {
                    physical_config(system)
                } else {
                    simulated_config(system)
                }
            })
            .collect();
        let results = end_to_end_many(cells, simcore::max_workers());
        for (system, result) in sims.into_iter().zip(results) {
            let mut row = vec![system.name().to_string()];
            let mut mean = 0.0;
            for svc in zoo.services() {
                let v = result.violation_rate(svc.id);
                mean += v / zoo.services().len() as f64;
                row.push(pct(v));
            }
            row.push(pct(mean));
            table.row(row);
            match system {
                SystemKind::Mudi => mudi_mean = mean,
                SystemKind::Optimal => {}
                _ => worst_baseline_mean = worst_baseline_mean.max(mean),
            }
        }
        print!("{}", table.render());
        if label.starts_with("physical") {
            compare("Mudi mean violation rate", mudi_mean * 100.0, 0.5, "%");
        } else {
            compare("Mudi mean violation rate", mudi_mean * 100.0, 1.2, "%");
        }
        if mudi_mean > 0.0 {
            compare(
                "worst-baseline / Mudi ratio",
                worst_baseline_mean / mudi_mean,
                4.0,
                "x",
            );
        }
    }
}
