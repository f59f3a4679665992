//! Fig. 9 — Training efficiency: CT, waiting time, makespan.
//!
//! Paper claims: Mudi reduces overall CT by up to 2.27×/1.49×/1.48× vs
//! GSLICE/gpulets/MuxFlow at large scale, waiting time by up to 1.63×,
//! makespan by up to 2.25×; Mudi is within 5 % of Optimal.

use cluster::report::{dur, Table};
use cluster::systems::SystemKind;

use crate::{banner, Claim, Cluster, Report, Scale};

pub fn run(scale: Scale, seed: u64) -> Report {
    let title = "Fig. 9 — Training efficiency (CT / WaitingT / makespan)";
    let mut out = banner(title, scale);
    let mut claims = Vec::new();
    for (cluster, panel) in [(Cluster::Physical, 'a'), (Cluster::Simulated, 'b')] {
        out += &format!("\n--- {} cluster (Fig. 9{panel}) ---\n", cluster.name());
        let mut table = Table::new(&[
            "system",
            "mean CT",
            "max CT",
            "mean WaitingT",
            "makespan",
            "jobs done",
        ]);
        let mut cts = Vec::new();
        let systems = cluster.systems();
        let results = cluster.run(&systems, scale, seed);
        for (system, r) in systems.into_iter().zip(results) {
            table.row(vec![
                system.name().to_string(),
                dur(r.ct.mean()),
                dur(r.ct.max().unwrap_or(0.0)),
                dur(r.waiting.mean()),
                dur(r.makespan_secs),
                format!("{}/{}", r.jobs_completed, r.jobs_submitted),
            ]);
            cts.push((system, r.ct.mean()));
        }
        out.push_str(&table.render());
        let name = |claim: &str| format!("{claim}, {}", cluster.name());
        let is_mudi = |m: &&(SystemKind, f64)| m.0 == SystemKind::Mudi;
        let mudi = cts.iter().find(is_mudi).expect("Mudi runs").1;
        let optimal = name("Mudi CT / Optimal CT");
        for &(system, ct) in &cts {
            let ratio = name(&format!("{} CT / Mudi CT", system.name()));
            claims.push(match system {
                SystemKind::Gslice => Claim::ratio(ratio, ct / mudi, 2.27),
                SystemKind::Gpulets => Claim::ratio(ratio, ct / mudi, 1.49),
                SystemKind::MuxFlow => Claim::ratio(ratio, ct / mudi, 1.48),
                SystemKind::Optimal => Claim::at_most(optimal.clone(), mudi / ct, 1.05, "x"),
                _ => continue,
            });
        }
        let rivals = cts.iter().filter(|m| m.0 != SystemKind::Optimal);
        let rows = rivals.map(|&(s, ct)| (s.name(), ct));
        claims.push(Claim::lowest(name("lowest mean CT"), "Mudi", rows));
    }
    Report { text: out, claims }
}
