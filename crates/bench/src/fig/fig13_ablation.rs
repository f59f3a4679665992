//! Fig. 13 — benefits of the individual optimizations.
//!
//! (a) Cluster-level co-location only (Tuner disabled): still beats the
//! baselines but loses to full Mudi (paper: SLO violations 1.65×/2.43×
//! higher than full Mudi in physical/simulated clusters; full Mudi cuts
//! CT up to 1.33× and makespan 1.26× over it).
//! (b) Device-level control only (random placement): violation rate
//! ~1.03 %, ~1.1× full Mudi; CT/makespan still far better than naive
//! baselines.

use cluster::report::{pct, Table};
use cluster::systems::SystemKind;

use crate::{banner, compare, Cluster, Scale};

pub fn run(scale: Scale, seed: u64) -> String {
    let mut out = banner(
        "Fig. 13 — ablations: cluster-level only vs device-level only",
        "cluster-only: violations 1.65x/2.43x of full Mudi; device-only: ~1.1x of full Mudi",
        scale,
    );
    let variants = [
        SystemKind::Mudi,
        SystemKind::MudiClusterOnly,
        SystemKind::MudiDeviceOnly,
    ];
    for (cluster, paper) in [(Cluster::Physical, 1.65), (Cluster::Simulated, 2.43)] {
        out += &format!("\n--- {} cluster ---\n", cluster.name());
        let mut table = Table::new(&["variant", "violation rate", "mean CT", "makespan"]);
        let mut rates = Vec::new();
        for (system, r) in variants
            .into_iter()
            .zip(cluster.run(&variants, scale, seed))
        {
            table.row(vec![
                system.name().to_string(),
                pct(r.overall_violation_rate()),
                format!("{:.1}min", r.ct.mean() / 60.0),
                format!("{:.2}h", r.makespan_hours()),
            ]);
            rates.push((r.overall_violation_rate(), r.ct.mean()));
        }
        out.push_str(&table.render());
        let (full, cluster_only, device_only) = (rates[0], rates[1], rates[2]);
        if full.0 > 0.0 {
            let (c, d) = (cluster_only.0 / full.0, device_only.0 / full.0);
            out += &compare("cluster-only violations / full Mudi", c, paper, "x");
            out += &compare("device-only violations / full Mudi", d, 1.1, "x");
        }
        if full.1 > 0.0 {
            let gain = cluster_only.1 / full.1;
            out += &compare("full-Mudi CT gain over cluster-only", gain, 1.33, "x");
        }
    }
    out
}
