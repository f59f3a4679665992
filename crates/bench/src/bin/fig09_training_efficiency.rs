//! Fig. 9 — Training efficiency: CT, waiting time, makespan.
//!
//! Paper claims: Mudi reduces overall CT by up to 2.27×/1.49×/1.48× vs
//! GSLICE/gpulets/MuxFlow at large scale, waiting time by up to 1.63×,
//! makespan by up to 2.25×; Mudi is within 5 % of Optimal.

use bench::{banner, compare, physical_config, simulated_config};
use cluster::experiments::end_to_end_many;
use cluster::report::{dur, Table};
use cluster::systems::SystemKind;

fn main() {
    banner(
        "Fig. 9 — Training efficiency (CT / WaitingT / makespan)",
        "Mudi cuts CT up to 2.27x (GSLICE), 1.49x (gpulets), 1.48x (MuxFlow); within 5% of Optimal",
    );
    for (label, systems) in [
        (
            "physical cluster (Fig. 9a)",
            vec![
                SystemKind::Gslice,
                SystemKind::Gpulets,
                SystemKind::MuxFlow,
                SystemKind::Mudi,
            ],
        ),
        (
            "simulated cluster (Fig. 9b)",
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
        // Independent per-system cells, fanned out through the pool.
        let cells: Vec<_> = systems
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
        print!("{}", table.render());
        if mudi_ct > 0.0 {
            for (name, ct) in ratios {
                let paper = match name.as_str() {
                    "GSLICE" => 2.27,
                    "gpulets" => 1.49,
                    "MuxFlow" => 1.48,
                    _ => 1.0,
                };
                compare(&format!("{name} CT / Mudi CT"), ct / mudi_ct, paper, "x");
            }
        }
    }
}
