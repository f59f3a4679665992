//! §5.4 — analysis of Mudi's optimality.
//!
//! Paper: Mudi identifies the optimal co-location 92.67 % of the time;
//! the Eq. 5 expectation bound E is 1.10 for iteration time (and 1.08
//! for SLO violations), i.e. within 10 % of the optimal policy.

use cluster::experiments::optimality_analysis;

use cluster::systems::SystemKind;

use crate::{banner, Claim, Cluster, Report, Scale};

pub fn run(scale: Scale, seed: u64) -> Report {
    let mut out = banner("§5.4 — optimality of Mudi's co-location policy", scale);
    let (cfg, iter_scale) = Cluster::Physical.config(SystemKind::Mudi, scale, seed);
    let r = optimality_analysis(seed, cfg.jobs, iter_scale);
    let (p, ratio) = (r.effectiveness_rate, r.mean_iteration_ratio);
    out += &format!("placements analyzed: {}\n", r.placements);
    let claims = vec![
        Claim::within("effectiveness rate P", p * 100.0, 92.67, "%"),
        // Within 10% of the optimal policy, the paper's bound.
        Claim::at_most("mean iteration-time ratio vs oracle", ratio, 1.10, "x"),
        Claim::ratio("Eq. 5 expectation bound E", r.expectation_bound, 1.10),
    ];
    Report { text: out, claims }
}
