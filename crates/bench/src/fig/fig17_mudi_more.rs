//! Fig. 17 — multiplexing more training tasks per GPU (Mudi-more).
//!
//! Paper: Mudi-more beats Random on every metric but records ~1.03× the
//! SLO violations, ~1.07× the CT, and ~1.09× the makespan of plain Mudi
//! (one training task per GPU), because packing more tasks forces more
//! memory swapping (37.78 %, 1.61× single-task) and more interference —
//! hence the recommendation to multiplex one inference + one training.

use cluster::experiments::end_to_end;
use cluster::metrics::ExperimentResult;
use cluster::report::{pct, Table};
use cluster::systems::SystemKind;

use crate::{banner, Claim, Cluster, Report, Scale};

pub fn run(scale: Scale, seed: u64) -> Report {
    let title = "Fig. 17 — Mudi-more (up to 3 training tasks/GPU) vs Mudi vs Random";
    let mut out = banner(title, scale);
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

    let (random, mudi, more) = (&rows[0].1, &rows[1].1, &rows[2].1);
    let viol = |r: &ExperimentResult| r.overall_violation_rate();
    let (viol_more, viol_random) = (viol(more) / viol(mudi), viol(random) / viol(more));
    let ct_more = more.ct.mean() / mudi.ct.mean();
    let ct_random = random.ct.mean() / more.ct.mean();
    let makespan = more.makespan_secs / mudi.makespan_secs;
    let wait = more.waiting.mean() / mudi.waiting.mean();
    let claims = vec![
        Claim::ratio("Mudi-more / Mudi violations", viol_more, 1.03),
        Claim::ratio("Mudi-more / Mudi CT", ct_more, 1.07),
        Claim::ratio("Mudi-more / Mudi makespan", makespan, 1.09),
        // The paper has Random worst everywhere, and Mudi-more waiting less
        // than Mudi.
        Claim::at_least("Random / Mudi-more violations", viol_random, 1.0, "x"),
        Claim::at_least("Random / Mudi-more CT", ct_random, 1.0, "x"),
        Claim::at_most("Mudi-more / Mudi waiting", wait, 1.0, "x"),
    ];
    Report { text: out, claims }
}
