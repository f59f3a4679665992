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

use crate::{banner, Claim, Cluster, Report, Scale};

pub fn run(scale: Scale, seed: u64) -> Report {
    let mut out = banner("Fig. 8 — SLO violation rates (P99)", scale);
    let mut claims = Vec::new();
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
        // Each compared system's mean; Optimal is an oracle, not a rival.
        let mut means = Vec::new();
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
            if system != SystemKind::Optimal {
                means.push((system.name(), mean));
            }
        }
        out.push_str(&table.render());
        let name = |claim: &str| format!("{claim}, {}", cluster.name());
        let mudi = means.iter().find(|m| m.0 == "Mudi").expect("Mudi runs").1;
        let baselines = means.iter().filter(|m| m.0 != "Mudi");
        let worst = baselines.map(|m| m.1).fold(0.0, f64::max);
        let (rate, ratio) = (mudi * 100.0, worst / mudi);
        claims.extend([
            Claim::within(name("Mudi mean violation rate"), rate, paper_mean, "%"),
            // The paper's per-service reductions (5.5, 2.2, 4.2, 2.3, 3.8
            // and 6x) average 4x.
            Claim::ratio(name("worst baseline / Mudi violations"), ratio, 4.0),
            Claim::lowest(name("lowest mean violation rate"), "Mudi", means.clone()),
            Claim::highest(name("highest mean violation rate"), "MuxFlow", means),
        ]);
    }
    Report { text: out, claims }
}
