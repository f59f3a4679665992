//! Tab. 4 — fraction of time memory swapping occurs, per service,
//! under bursty QPS.
//!
//! Paper: ResNet50 16.08 %, Inception 19.82 %, GPT2 28.40 %, BERT
//! 15.53 %, RoBERTa 27.30 %, YOLOS 33.43 % — without a single OOM.

use bench::{banner, seed};
use cluster::experiments::{bursty_case_study_many, CaseStudySpec};
use cluster::report::Table;
use cluster::systems::SystemKind;
use simcore::{SimDuration, SimTime};
use workloads::{BurstSchedule, Zoo};

fn main() {
    banner(
        "Tab. 4 — time fraction with memory swapping under bursty QPS",
        "ResNet50 16.08% / Inception 19.82% / GPT2 28.40% / BERT 15.53% / RoBERTa 27.30% / YOLOS 33.43%",
    );
    let zoo = Zoo::standard();
    // A recurring burst pattern: 3x load one-third of the time.
    let burst = BurstSchedule::new(
        (0..6)
            .map(|i| {
                let start = SimTime::ZERO + SimDuration::from_secs(i as f64 * 100.0);
                (start, if i % 3 == 1 { 3.0 } else { 1.0 })
            })
            .collect(),
    );
    let paper = [16.08, 19.82, 28.40, 15.53, 27.30, 33.43];

    let mut table = Table::new(&[
        "service",
        "swap time fraction",
        "paper",
        "mean transfer",
        "violations",
    ]);
    // Heavier services co-locate with the big YOLOv5 task, as in the
    // paper's stress scenario. Each per-service cell is independent, so
    // they fan out across the worker pool; `scoped_map` preserves
    // order, keeping stdout identical to the serial loop it replaces.
    let specs: Vec<CaseStudySpec> = zoo
        .services()
        .iter()
        .enumerate()
        .map(|(i, svc)| CaseStudySpec {
            system: SystemKind::Mudi,
            service: svc.name.to_string(),
            training: "YOLOv5".to_string(),
            burst: burst.clone(),
            duration_secs: 600.0,
            seed: seed() + i as u64,
        })
        .collect();
    let studies = bursty_case_study_many(specs);
    for (i, (svc, cs)) in zoo.services().iter().zip(&studies).enumerate() {
        table.row(vec![
            svc.name.to_string(),
            format!("{:.1}%", cs.swap_time_fraction * 100.0),
            format!("{:.2}%", paper[i]),
            format!("{:.1}ms", cs.mean_swap_transfer_secs * 1e3),
            format!("{:.2}%", cs.violation_rate * 100.0),
        ]);
    }
    print!("{}", table.render());
    let never: Vec<&str> = zoo
        .services()
        .iter()
        .zip(&studies)
        .filter(|(_, cs)| cs.swap_time_fraction == 0.0)
        .map(|(svc, _)| svc.name)
        .collect();
    let (worst_svc, worst) = zoo
        .services()
        .iter()
        .zip(&studies)
        .max_by(|a, b| a.1.violation_rate.total_cmp(&b.1.violation_rate))
        .expect("six services");
    println!(
        "Shape checks: {} of the bursty window;\n\
         the highest violation rate while overcommitted is {:.2}% ({}).",
        if never.is_empty() {
            "every service swaps for a nonzero fraction".to_string()
        } else {
            let verb = if never.len() == 1 { "swaps" } else { "swap" };
            format!(
                "{} never {verb}, the rest swap for a nonzero fraction",
                never.join(", ")
            )
        },
        worst.violation_rate * 100.0,
        worst_svc.name
    );
}
