//! Fig. 14 — maximum achievable throughput per inference service with
//! the SLO held and ≥10 % of the GPU reserved for co-located training.
//!
//! Paper: Mudi raises the maximum throughput by 78 %/103 %/67 %/89 %/
//! 85 %/73 % for ResNet50/Inception/GPT2/BERT/RoBERTa/YOLOS over the
//! best baseline.

use bench::{banner, seed};
use cluster::experiments::max_throughput;
use cluster::report::Table;
use cluster::systems::SystemKind;
use workloads::Zoo;

fn main() {
    banner(
        "Fig. 14 — max sustainable QPS per service (SLO held, >=10% GPU for training)",
        "Mudi +78%/+103%/+67%/+89%/+85%/+73% over baselines",
    );
    let zoo = Zoo::standard();
    let systems = [
        SystemKind::Gslice,
        SystemKind::Gpulets,
        SystemKind::MuxFlow,
        SystemKind::Mudi,
    ];
    let mut results = Vec::new();
    for system in systems {
        results.push((
            system,
            max_throughput(system, seed(), simcore::max_workers()),
        ));
    }

    let mut header = vec!["system".to_string()];
    header.extend(zoo.services().iter().map(|s| s.name.to_string()));
    let hdr: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new(&hdr);
    for (system, qps) in &results {
        let mut row = vec![system.name().to_string()];
        for (_, q) in qps {
            row.push(format!("{q:.0}"));
        }
        table.row(row);
    }
    print!("{}", table.render());

    // Gains of Mudi over the best baseline, per service.
    let mudi = &results.last().expect("mudi last").1;
    println!("\nMudi gain over the best baseline (paper gains in parentheses):");
    let paper_gains = [78.0, 103.0, 67.0, 89.0, 85.0, 73.0];
    for (i, svc) in zoo.services().iter().enumerate() {
        let best_baseline = results[..3]
            .iter()
            .map(|(_, q)| q[i].1)
            .fold(0.0f64, f64::max);
        let gain = if best_baseline > 0.0 {
            (mudi[i].1 / best_baseline - 1.0) * 100.0
        } else {
            f64::INFINITY
        };
        println!(
            "  {:<10} +{gain:.0}%  (paper: +{:.0}%)",
            svc.name, paper_gains[i]
        );
    }
}
