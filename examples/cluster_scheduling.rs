//! Domain scenario: a 12-GPU serving cluster absorbs a stream of
//! training jobs under three multiplexing policies — Mudi, GSLICE, and
//! Random — and reports who held the SLOs and who trained fastest.
//!
//! This is a reduced-scale version of the paper's end-to-end evaluation
//! (§7.2); the `bench` crate's `fig08`/`fig09` binaries run the full
//! thing.
//!
//! ```bash
//! cargo run --release --example cluster_scheduling
//! ```

use cluster::engine::ClusterConfig;
use cluster::experiments::end_to_end;
use cluster::report::{pct, Table};
use cluster::systems::SystemKind;
use workloads::Zoo;

fn main() {
    let zoo = Zoo::standard();
    println!(
        "12 GPUs, {} inference services (one replica per GPU, round-robin), 48 training jobs\n",
        zoo.services().len()
    );

    let mut table = Table::new(&[
        "system",
        "SLO violations",
        "mean CT",
        "mean wait",
        "makespan",
        "mean SM util",
    ]);
    for system in [SystemKind::Random, SystemKind::Gslice, SystemKind::Mudi] {
        let mut cfg = ClusterConfig::physical(system, 42);
        cfg.jobs = 48;
        // Scale iteration counts down so the example finishes in
        // seconds; relative comparisons are unaffected.
        let result = end_to_end(cfg, 0.01);
        table.row(vec![
            system.name().to_string(),
            pct(result.overall_violation_rate()),
            format!("{:.1} min", result.ct.mean() / 60.0),
            format!("{:.1} s", result.waiting.mean()),
            format!("{:.2} h", result.makespan_hours()),
            format!("{:.0}%", result.mean_sm_util * 100.0),
        ]);
    }
    print!("{}", table.render());
    println!(
        "\nExpected shape (paper §7.2): Mudi holds the lowest violation rate while\n\
         finishing training jobs sooner and driving SM utilization higher than the\n\
         interference-blind baselines."
    );
}
