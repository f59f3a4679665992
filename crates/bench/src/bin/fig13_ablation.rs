//! Fig. 13 — benefits of the individual optimizations.
//!
//! (a) Cluster-level co-location only (Tuner disabled): still beats the
//! baselines but loses to full Mudi (paper: SLO violations 1.65×/2.43×
//! higher than full Mudi in physical/simulated clusters; full Mudi cuts
//! CT up to 1.33× and makespan 1.26× over it).
//! (b) Device-level control only (random placement): violation rate
//! ~1.03 %, ~1.1× full Mudi; CT/makespan still far better than naive
//! baselines.

use bench::{banner, compare, physical_config, simulated_config};
use cluster::experiments::end_to_end_many;
use cluster::report::{pct, Table};
use cluster::systems::SystemKind;

fn main() {
    banner(
        "Fig. 13 — ablations: cluster-level only vs device-level only",
        "cluster-only: violations 1.65x/2.43x of full Mudi; device-only: ~1.1x of full Mudi",
    );
    for (label, mk) in [("physical", false), ("simulated", true)] {
        println!("\n--- {label} cluster ---");
        let mut table = Table::new(&["variant", "violation rate", "mean CT", "makespan"]);
        let mut rates = Vec::new();
        let variants = [
            SystemKind::Mudi,
            SystemKind::MudiClusterOnly,
            SystemKind::MudiDeviceOnly,
        ];
        // Pooled fan-out over the three ablation variants.
        let cells: Vec<_> = variants
            .iter()
            .map(|&system| {
                if mk {
                    simulated_config(system)
                } else {
                    physical_config(system)
                }
            })
            .collect();
        let results = end_to_end_many(cells, simcore::max_workers());
        for (system, r) in variants.into_iter().zip(results) {
            table.row(vec![
                system.name().to_string(),
                pct(r.overall_violation_rate()),
                format!("{:.1}min", r.ct.mean() / 60.0),
                format!("{:.2}h", r.makespan_hours()),
            ]);
            rates.push((system, r.overall_violation_rate(), r.ct.mean()));
        }
        print!("{}", table.render());
        let full = rates[0];
        if full.1 > 0.0 {
            compare(
                "cluster-only violations / full Mudi",
                rates[1].1 / full.1,
                if mk { 2.43 } else { 1.65 },
                "x",
            );
            compare(
                "device-only violations / full Mudi",
                rates[2].1 / full.1,
                1.1,
                "x",
            );
        }
        if full.2 > 0.0 {
            compare(
                "full-Mudi CT gain over cluster-only",
                rates[1].2 / full.2,
                1.33,
                "x",
            );
        }
    }
}
