//! Fig. 8 — SLO violation rates of all inference services.
//!
//! Runs GSLICE, gpulets, MuxFlow, and Mudi in the physical-scale
//! cluster and Mudi + baselines + Optimal in the simulated cluster,
//! printing the per-service P99 SLO-violation rates. Paper claims:
//! Mudi averages 0.5 % (physical) / 1.2 % (simulated); reductions up to
//! 5.5×/2.2×/4.2×/2.3×/3.8×/6× per service vs the best baseline;
//! MuxFlow worst (unseen tasks).

use cluster::report::{pct, Table};
use cluster::systems::SystemKind;
use workloads::Zoo;

use crate::{banner, compare, Cluster, Scale};

pub fn run(scale: Scale, seed: u64) -> String {
    let mut out = banner(
        "Fig. 8 — SLO violation rates (P99)",
        "Mudi lowest violation rate everywhere: 0.5% avg physical, 1.2% simulated; \
         MuxFlow highest (pre-profiled pairs cannot adapt to unseen tasks)",
        scale,
    );
    let zoo = Zoo::standard();
    let names: Vec<&str> = zoo.services().iter().map(|s| s.name).collect();

    for (cluster, panel, paper_mean) in [
        (Cluster::Physical, 'a', 0.5),
        (Cluster::Simulated, 'b', 1.2),
    ] {
        out += &format!("\n--- {} cluster (Fig. 8{panel}) ---\n", cluster.name());
        let mut header = vec!["system"];
        header.extend(names.iter());
        header.push("mean");
        let mut table = Table::new(&header);
        let mut mudi_mean = 0.0;
        let mut worst_baseline_mean: f64 = 0.0;
        let systems = cluster.systems();
        let results = cluster.run(&systems, scale, seed);
        for (system, result) in systems.into_iter().zip(results) {
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
        out.push_str(&table.render());
        let metric = "Mudi mean violation rate";
        out += &compare(metric, mudi_mean * 100.0, paper_mean, "%");
        if mudi_mean > 0.0 {
            let ratio = worst_baseline_mean / mudi_mean;
            out += &compare("worst-baseline / Mudi ratio", ratio, 4.0, "x");
        }
    }
    out
}
