//! Fig. 4 — interference breakdown: GPT2/ResNet50 multiplexed with
//! *training tasks*.
//!
//! Paper claims: E2E interference drops to 1.67× (GPT2) and 1.21×
//! (ResNet50); GPT2's tokenization 2.49×, inference phase 1.4×;
//! ResNet50's preprocessing 1.15×, transfer 1.16×, inference 1.23× —
//! the single-threaded training loaders contend far less on CPU/PCIe,
//! which is Mudi's core opportunity (§2.2.1 takeaway).

use workloads::{ColoWorkload, GroundTruth, Zoo};

use super::fig03_inf_inf_interference::panels;
use crate::{banner, Scale};

pub fn run(scale: Scale, seed: u64) -> String {
    let mut out = banner(
        "Fig. 4 — interference from co-located *training* tasks",
        "GPT2 E2E 1.67x (tokenize 2.49x, inference 1.4x); ResNet50 E2E 1.21x (preproc 1.15x, xfer 1.16x, inference 1.23x)",
        scale,
    );
    let gt = GroundTruth::new(Zoo::standard(), seed ^ 0xA100);
    let tasks = gt.zoo().tasks();
    let names: Vec<&str> = tasks.iter().map(|t| t.name).collect();
    let colo = |i: usize, _, share| ColoWorkload::training(tasks[i].id, share);
    let paper = [[1.67, 2.49, 1.16, 1.4], [1.21, 1.15, 1.16, 1.23]];
    out += &panels(
        &gt,
        ("training tasks", "co-located task", &names),
        colo,
        paper,
    );
    out.push_str(
        "\nTakeaway check: training co-location must interfere far less than \
         inference co-location (compare with fig03_inf_inf_interference).\n",
    );
    out
}
