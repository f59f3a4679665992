//! Fig. 4 — interference breakdown: GPT2/ResNet50 multiplexed with
//! *training tasks*.
//!
//! Paper claims: E2E interference drops to 1.67× (GPT2) and 1.21×
//! (ResNet50); GPT2's tokenization 2.49×, inference phase 1.4×;
//! ResNet50's preprocessing 1.15×, transfer 1.16×, inference 1.23× —
//! the single-threaded training loaders contend far less on CPU/PCIe,
//! which is Mudi's core opportunity (§2.2.1 takeaway).

use workloads::{ColoWorkload, GroundTruth, Zoo};

use super::fig03_inf_inf_interference::{inference_slowdowns, means, panels, slowdowns, TARGETS};
use crate::{banner, Claim, Report, Scale};

pub fn run(scale: Scale, seed: u64) -> Report {
    let mut out = banner(
        "Fig. 4 — interference from co-located *training* tasks",
        scale,
    );
    let gt = GroundTruth::new(Zoo::standard(), seed ^ 0xA100);
    let tasks = gt.zoo().tasks();
    let names: Vec<&str> = tasks.iter().map(|t| t.name).collect();
    let colo = |i: usize, _, share| ColoWorkload::training(tasks[i].id, share);
    let paper = [[1.67, 2.49, 1.16, 1.4], [1.21, 1.15, 1.16, 1.23]];
    let training = slowdowns(&gt, &names, colo);
    let mut claims = panels(
        &mut out,
        ("training tasks", "co-located task"),
        &training,
        paper,
    );
    // The §2.2.1 takeaway: training interferes far less than inference.
    let inference = inference_slowdowns(&gt);
    for (target, (train, inf)) in TARGETS.iter().zip(training.iter().zip(&inference)) {
        let (train, inf) = (means(train)[3], means(inf)[3]);
        let name = format!("{target} E2E interference below Fig. 3's");
        let shown = format!("{train:.3}x vs {inf:.3}x");
        claims.push(Claim::ordering(name, shown, "below", train < inf));
    }
    Report { text: out, claims }
}
