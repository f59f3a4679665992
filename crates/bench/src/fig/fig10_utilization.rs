//! Fig. 10 — average SM and memory utilization over time.
//!
//! Paper claims: Mudi reaches up to 60 % SM and 35 % memory utilization,
//! 42 % and 19 % higher than the baselines, improving in the latter half
//! of the run as prediction accuracy grows.

use cluster::report::Table;
use cluster::systems::SystemKind;

use crate::{banner, run_cells, Claim, Cluster, Report, Scale};

pub fn run(scale: Scale, seed: u64) -> Report {
    let title = "Fig. 10 — cluster SM / memory utilization over time (physical scale)";
    let mut out = banner(title, scale);
    let systems = Cluster::Physical.systems();
    let mut table = Table::new(&["system", "mean SM util", "peak SM util", "mean mem util"]);
    let mut mudi_sm = 0.0;
    let mut best_baseline_sm: f64 = 0.0;
    let mut mudi_mem = 0.0;
    let mut best_baseline_mem: f64 = 0.0;
    let mut mudi_peaks = (0.0, 0.0);
    let mut sm_means = Vec::new();
    let mut series_dump = String::new();
    // Fig. 10 measures a *saturated* cluster (the paper keeps a
    // standing queue of training work); at reduced scale the
    // default arrival process is too sparse and the time-averaged
    // utilization would mostly measure idle gaps between jobs.
    let cells: Vec<_> = systems
        .iter()
        .map(|&system| {
            let (mut cfg, iter_scale) = Cluster::Physical.config(system, scale, seed);
            cfg.jobs *= 2;
            cfg.arrival_rate *= 6.0;
            (cfg, iter_scale)
        })
        .collect();
    for (system, r) in systems.into_iter().zip(run_cells(cells)) {
        let peak = r.util_series.iter().map(|s| s.1).fold(0.0f64, f64::max);
        sm_means.push((system.name(), r.mean_sm_util));
        table.row(vec![
            system.name().to_string(),
            format!("{:.1}%", r.mean_sm_util * 100.0),
            format!("{:.1}%", peak * 100.0),
            format!("{:.1}%", r.mean_mem_util * 100.0),
        ]);
        if system == SystemKind::Mudi {
            mudi_sm = r.mean_sm_util;
            mudi_mem = r.mean_mem_util;
            let peak_mem = r.util_series.iter().map(|s| s.2).fold(0.0f64, f64::max);
            mudi_peaks = (peak * 100.0, peak_mem * 100.0);
            for &(t, sm, mem) in r.util_series.iter().take(24) {
                let (sm, mem) = (sm * 100.0, mem * 100.0);
                series_dump += &format!("  t={t:>8.0}s  sm={sm:>5.1}%  mem={mem:>5.1}%\n");
            }
        } else {
            best_baseline_sm = best_baseline_sm.max(r.mean_sm_util);
            best_baseline_mem = best_baseline_mem.max(r.mean_mem_util);
        }
    }
    out.push_str(&table.render());
    out += &format!("\nMudi utilization time series (first 24 samples):\n{series_dump}\n");
    let sm_gain = (mudi_sm / best_baseline_sm - 1.0) * 100.0;
    let mem_gain = (mudi_mem / best_baseline_mem - 1.0) * 100.0;
    let (sm_peak, mem_peak) = mudi_peaks;
    let claims = vec![
        Claim::within("Mudi peak SM utilization", sm_peak, 60.0, "%"),
        Claim::within("Mudi peak memory utilization", mem_peak, 35.0, "%"),
        Claim::within("SM-util gain over best baseline", sm_gain, 42.0, "%"),
        Claim::within("memory-util gain over best baseline", mem_gain, 19.0, "%"),
        Claim::highest("highest mean SM utilization", "Mudi", sm_means),
    ];
    Report { text: out, claims }
}
