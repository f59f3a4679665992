//! Fig. 9 — Training efficiency: CT, waiting time, makespan.
//!
//! Paper claims: Mudi reduces overall CT by up to 2.27×/1.49×/1.48× vs
//! GSLICE/gpulets/MuxFlow at large scale, waiting time by up to 1.63×,
//! makespan by up to 2.25×; Mudi is within 5 % of Optimal.

use cluster::report::{dur, Table};
use cluster::systems::SystemKind;

use crate::{banner, compare, Cluster, Scale};

pub fn run(scale: Scale, seed: u64) -> String {
    let mut out = banner(
        "Fig. 9 — Training efficiency (CT / WaitingT / makespan)",
        "Mudi cuts CT up to 2.27x (GSLICE), 1.49x (gpulets), 1.48x (MuxFlow); within 5% of Optimal",
        scale,
    );
    for (cluster, panel) in [(Cluster::Physical, 'a'), (Cluster::Simulated, 'b')] {
        out += &format!("\n--- {} cluster (Fig. 9{panel}) ---\n", cluster.name());
        let mut table = Table::new(&[
            "system",
            "mean CT",
            "p90 CT",
            "mean WaitingT",
            "makespan",
            "jobs done",
        ]);
        let mut mudi_ct = 0.0;
        let mut ratios: Vec<(String, f64)> = Vec::new();
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
            if system == SystemKind::Mudi {
                mudi_ct = r.ct.mean();
            } else {
                ratios.push((system.name().to_string(), r.ct.mean()));
            }
        }
        out.push_str(&table.render());
        if mudi_ct > 0.0 {
            for (name, ct) in ratios {
                let paper = match name.as_str() {
                    "GSLICE" => 2.27,
                    "gpulets" => 1.49,
                    "MuxFlow" => 1.48,
                    _ => 1.0,
                };
                let metric = format!("{name} CT / Mudi CT");
                out += &compare(&metric, ct / mudi_ct, paper, "x");
            }
        }
    }
    out
}
