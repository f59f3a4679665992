//! Fig. 15 — sensitivity to heavy inference loads (2×/3×/4× QPS).
//!
//! Paper: all systems degrade as load grows, but Mudi keeps the lowest
//! violation rate with the slowest escalation, and its training CT
//! grows sub-linearly while GSLICE/gpulets grow linearly.

use cluster::experiments::load_cells;
use cluster::report::{pct, Table};

use crate::{banner, run_cells, Claim, Cluster, Report, Scale};

pub fn run(scale: Scale, seed: u64) -> Report {
    let mut out = banner("Fig. 15 — heavy-load sensitivity (1x-4x QPS)", scale);
    let systems = Cluster::Physical.systems();
    let multipliers = [1.0, 2.0, 3.0, 4.0];

    // All 16 (system × multiplier) cells fan out through one pool call.
    let cells: Vec<_> = systems
        .iter()
        .flat_map(|&system| {
            let (base, iter_scale) = Cluster::Physical.config(system, scale, seed);
            load_cells(system, seed, &multipliers, &base, iter_scale)
        })
        .collect();
    let all = run_cells(cells);

    let rates: Vec<Vec<f64>> = all
        .chunks(multipliers.len())
        .map(|chunk| chunk.iter().map(|r| r.overall_violation_rate()).collect())
        .collect();
    let mut viol = Table::new(&["system", "1x", "2x", "3x", "4x"]);
    let mut ct = Table::new(&["system", "1x", "2x", "3x", "4x"]);
    for (chunk, &system) in all.chunks(multipliers.len()).zip(&systems) {
        let mut vrow = vec![system.name().to_string()];
        let mut crow = vec![system.name().to_string()];
        for r in chunk {
            vrow.push(pct(r.overall_violation_rate()));
            crow.push(format!("{:.1}min", r.ct.mean() / 60.0));
        }
        viol.row(vrow);
        ct.row(crow);
    }
    out.push_str("\n(a) SLO violation rate vs load:\n");
    out.push_str(&viol.render());
    out.push_str("\n(b) mean training CT vs load:\n");
    out.push_str(&ct.render());
    let rows = || systems.iter().map(|s| s.name()).zip(&rates);
    let rising = rows().filter(|(_, row)| row.windows(2).all(|w| w[1] >= w[0]));
    let rise = rows().map(|(s, row)| (s, row[row.len() - 1] - row[0]));
    let mut claims = vec![
        Claim::every("violations rise with load", rising.count(), systems.len()),
        Claim::lowest("slowest violation rise, 1x to 4x", "Mudi", rise),
    ];
    for (i, m) in multipliers.iter().enumerate() {
        let at = rows().map(|(s, row)| (s, row[i]));
        let name = format!("lowest violations at {m}x");
        claims.push(Claim::lowest(name, "Mudi", at));
    }
    Report { text: out, claims }
}
