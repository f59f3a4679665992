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

use crate::{banner, Claim, Cluster, Report, Scale};

pub fn run(scale: Scale, seed: u64) -> Report {
    let title = "Fig. 13 — ablations: cluster-level only vs device-level only";
    let mut out = banner(title, scale);
    let mut claims = Vec::new();
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
        let (c, d) = (cluster_only.0 / full.0, device_only.0 / full.0);
        let gain = cluster_only.1 / full.1;
        let name = |claim: &str| format!("{claim}, {}", cluster.name());
        claims.extend([
            Claim::ratio(name("cluster-only / Mudi violations"), c, paper),
            Claim::ratio(name("device-only / Mudi violations"), d, 1.1),
            Claim::ratio(name("Mudi CT gain over cluster-only"), gain, 1.33),
        ]);
    }
    Report { text: out, claims }
}
