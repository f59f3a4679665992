//! Fig. 2 — training-cluster trace analysis (PAI / Seren / Kalos).
//!
//! (a) GPU-utilization CDFs: near-zero utilization ~30 % of the time;
//! in PAI below 50 % utilization for ~85 % of the time. (b) Queueing
//! delays are heavy-tailed, exceeding 1,000 minutes at the extreme.

use cluster::report::Table;
use workloads::traces::{fig2_summary, fig2a_training_utilization, TraceCluster};

use crate::{banner, Claim, Report, Scale};

pub fn run(scale: Scale, seed: u64) -> Report {
    let mut out = banner(
        "Fig. 2 — training-cluster traces (PAI/Seren/Kalos-like)",
        scale,
    );
    let clusters = [TraceCluster::Pai, TraceCluster::Seren, TraceCluster::Kalos];

    let mut table = Table::new(&[
        "cluster",
        "P(util<=5%)",
        "P(util<=50%)",
        "median delay",
        "max delay",
    ]);
    for &c in &clusters {
        let s = fig2_summary(c, seed);
        table.row(vec![
            c.name().to_string(),
            format!("{:.1}%", s.frac_near_zero_util * 100.0),
            format!("{:.1}%", s.frac_below_half_util * 100.0),
            format!("{:.1} min", s.median_delay_mins),
            format!("{:.0} min", s.max_delay_mins),
        ]);
    }
    out.push_str(&table.render());

    let pai = fig2_summary(TraceCluster::Pai, seed);
    let (zero, half) = (pai.frac_near_zero_util, pai.frac_below_half_util);
    let claims = vec![
        Claim::within("PAI near-zero-util fraction", zero * 100.0, 30.0, "%"),
        Claim::within("PAI below-50%-util fraction", half * 100.0, 85.0, "%"),
        Claim::at_least("PAI max queueing delay", pai.max_delay_mins, 1000.0, " min"),
    ];

    // CDF curve excerpt for plotting (PAI utilization).
    out.push_str("\nPAI GPU-utilization CDF (x = util fraction, y = CDF):\n");
    let cdf = fig2a_training_utilization(TraceCluster::Pai, seed, 20_000);
    for (x, y) in cdf.curve(10) {
        out += &format!("  {x:>5.2}  {y:>5.3}\n");
    }
    Report { text: out, claims }
}
