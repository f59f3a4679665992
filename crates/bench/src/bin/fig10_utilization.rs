//! Fig. 10 — average SM and memory utilization over time.
//!
//! Paper claims: Mudi reaches up to 60 % SM and 35 % memory utilization,
//! 42 % and 19 % higher than the baselines, improving in the latter half
//! of the run as prediction accuracy grows.

use bench::{banner, compare, physical_config};
use cluster::experiments::end_to_end_many;
use cluster::report::Table;
use cluster::systems::SystemKind;

fn main() {
    banner(
        "Fig. 10 — cluster SM / memory utilization over time (physical scale)",
        "Mudi up to 60% SM / 35% memory; +42% SM and +19% memory over baselines",
    );
    let systems = [
        SystemKind::Gslice,
        SystemKind::Gpulets,
        SystemKind::MuxFlow,
        SystemKind::Mudi,
    ];
    let mut table = Table::new(&["system", "mean SM util", "peak SM util", "mean mem util"]);
    let mut mudi_sm = 0.0;
    let mut best_baseline_sm: f64 = 0.0;
    let mut mudi_mem = 0.0;
    let mut best_baseline_mem: f64 = 0.0;
    let mut series_dump = String::new();
    // Fig. 10 measures a *saturated* cluster (the paper keeps a
    // standing queue of training work); at reduced scale the
    // default arrival process is too sparse and the time-averaged
    // utilization would mostly measure idle gaps between jobs.
    let cells: Vec<_> = systems
        .iter()
        .map(|&system| {
            let (mut cfg, iter_scale) = physical_config(system);
            cfg.jobs *= 2;
            cfg.arrival_rate *= 6.0;
            (cfg, iter_scale)
        })
        .collect();
    let results = end_to_end_many(cells, simcore::max_workers());
    for (system, r) in systems.into_iter().zip(results) {
        let peak = r
            .util_series
            .iter()
            .map(|&(_, sm, _)| sm)
            .fold(0.0f64, f64::max);
        table.row(vec![
            system.name().to_string(),
            format!("{:.1}%", r.mean_sm_util * 100.0),
            format!("{:.1}%", peak * 100.0),
            format!("{:.1}%", r.mean_mem_util * 100.0),
        ]);
        if system == SystemKind::Mudi {
            mudi_sm = r.mean_sm_util;
            mudi_mem = r.mean_mem_util;
            series_dump = r
                .util_series
                .iter()
                .map(|&(t, sm, mem)| {
                    format!(
                        "  t={:>8.0}s  sm={:>5.1}%  mem={:>5.1}%\n",
                        t,
                        sm * 100.0,
                        mem * 100.0
                    )
                })
                .take(24)
                .collect();
        } else {
            best_baseline_sm = best_baseline_sm.max(r.mean_sm_util);
            best_baseline_mem = best_baseline_mem.max(r.mean_mem_util);
        }
    }
    print!("{}", table.render());
    compare(
        "Mudi mean SM utilization",
        mudi_sm * 100.0,
        60.0,
        "% (paper: up to)",
    );
    compare(
        "Mudi mean memory utilization",
        mudi_mem * 100.0,
        35.0,
        "% (paper: up to)",
    );
    if best_baseline_sm > 0.0 {
        compare(
            "SM-util gain over best baseline",
            (mudi_sm / best_baseline_sm - 1.0) * 100.0,
            42.0,
            "%",
        );
        compare(
            "memory-util gain over best baseline",
            (mudi_mem / best_baseline_mem - 1.0) * 100.0,
            19.0,
            "%",
        );
    }
    println!("\nMudi utilization time series (first 24 samples):\n{series_dump}");
}
