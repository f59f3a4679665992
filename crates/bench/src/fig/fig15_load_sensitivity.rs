//! Fig. 15 — sensitivity to heavy inference loads (2×/3×/4× QPS).
//!
//! Paper: all systems degrade as load grows, but Mudi keeps the lowest
//! violation rate with the slowest escalation, and its training CT
//! grows sub-linearly while GSLICE/gpulets grow linearly.

use cluster::experiments::load_cells;
use cluster::report::{pct, Table};
use cluster::systems::SystemKind;

use crate::{banner, run_cells, Cluster, Scale};

pub fn run(scale: Scale, seed: u64) -> String {
    let mut out = banner(
        "Fig. 15 — heavy-load sensitivity (1x-4x QPS)",
        "Mudi: lowest violations, slowest escalation; sub-linear CT growth vs linear for baselines",
        scale,
    );
    let systems = [
        SystemKind::Gslice,
        SystemKind::Gpulets,
        SystemKind::MuxFlow,
        SystemKind::Mudi,
    ];
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
    let falling: Vec<&str> = systems
        .iter()
        .zip(&rates)
        .filter(|(_, row)| row.windows(2).any(|w| w[1] < w[0]))
        .map(|(s, _)| s.name())
        .collect();
    let lowest: Vec<String> = multipliers
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let best = (0..systems.len()).min_by(|&a, &b| rates[a][i].total_cmp(&rates[b][i]));
            format!("{m}x: {}", systems[best.expect("four systems")].name())
        })
        .collect();
    let rise = |row: &Vec<f64>| row[row.len() - 1] - row[0];
    let slowest = (0..systems.len())
        .min_by(|&a, &b| rise(&rates[a]).total_cmp(&rise(&rates[b])))
        .expect("four systems");
    out += &format!(
        "Shape checks: violations {} as load grows; lowest violations by load {};\n\
         smallest rise from 1x to 4x: {} (paper: Mudi's row stays lowest and rises slowest).\n",
        if falling.is_empty() {
            "never fall for any system".to_string()
        } else {
            format!("fall somewhere for {}", falling.join(", "))
        },
        lowest.join(", "),
        systems[slowest].name()
    );
    out
}
