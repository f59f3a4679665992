//! Fig. 17 — multiplexing more training tasks per GPU (Mudi-more).
//!
//! Paper: Mudi-more beats Random on every metric but records ~1.03× the
//! SLO violations, ~1.07× the CT, and ~1.09× the makespan of plain Mudi
//! (one training task per GPU), because packing more tasks forces more
//! memory swapping (37.78 %, 1.61× single-task) and more interference —
//! hence the recommendation to multiplex one inference + one training.

use cluster::experiments::end_to_end;
use cluster::report::{pct, Table};
use cluster::systems::SystemKind;

use crate::{banner, compare, Cluster, Scale};

pub fn run(scale: Scale, seed: u64) -> String {
    let mut out = banner(
        "Fig. 17 — Mudi-more (up to 3 training tasks/GPU) vs Mudi vs Random",
        "Mudi-more > Random everywhere; ~1.03x violations, ~1.07x CT, ~1.09x makespan vs Mudi",
        scale,
    );
    let mut table = Table::new(&[
        "system",
        "violations",
        "mean CT",
        "mean wait",
        "makespan",
        "mean swap transfer",
    ]);
    let mut rows = Vec::new();
    for system in [SystemKind::Random, SystemKind::Mudi, SystemKind::MudiMore] {
        let (mut cfg, iter_scale) = Cluster::Physical.config(system, scale, seed);
        // More queueing pressure makes the extra slots matter.
        cfg.jobs = (cfg.jobs * 3) / 2;
        let r = end_to_end(cfg, iter_scale);
        table.row(vec![
            system.name().to_string(),
            pct(r.overall_violation_rate()),
            format!("{:.1}min", r.ct.mean() / 60.0),
            format!("{:.1}min", r.waiting.mean() / 60.0),
            format!("{:.2}h", r.makespan_hours()),
            format!("{:.1}ms", r.mean_swap_transfer_secs * 1e3),
        ]);
        rows.push((system, r));
    }
    out.push_str(&table.render());

    let mudi = &rows[1].1;
    let more = &rows[2].1;
    let random = &rows[0].1;
    if mudi.overall_violation_rate() > 0.0 {
        let viol = more.overall_violation_rate() / mudi.overall_violation_rate();
        out += &compare("Mudi-more violations / Mudi", viol, 1.03, "x");
    }
    if mudi.ct.mean() > 0.0 {
        let ct = more.ct.mean() / mudi.ct.mean();
        let makespan = more.makespan_secs / mudi.makespan_secs.max(1.0);
        out += &compare("Mudi-more CT / Mudi", ct, 1.07, "x");
        out += &compare("Mudi-more makespan / Mudi", makespan, 1.09, "x");
        let random_ct = random.ct.mean() / more.ct.mean();
        let metric = "Random CT / Mudi-more CT (the paper has Random worst everywhere)";
        out += &compare(metric, random_ct, 1.3, "x");
    }
    let wait = more.waiting.mean() / mudi.waiting.mean().max(1e-9);
    let queueing = "Mudi-more waiting / Mudi (queueing benefit)";
    out += &compare(queueing, wait, 0.8, "x");
    out
}
