//! Fig. 7 — network layer counts Mudi identifies per training task.
//!
//! Prints the layer-count matrix the Interference Modeler uses as the
//! Ψ features, with unpopular layer types folded into `other_layers`.

use cluster::report::Table;
use workloads::{LayerKind, Zoo};

use crate::{banner, Report, Scale};

/// The figure regenerates a table from the zoo, so it judges no claim.
pub fn run(scale: Scale, _seed: u64) -> Report {
    let title = "Fig. 7 — identified network layers per training task";
    let mut out = banner(title, scale);
    let zoo = Zoo::standard();
    let mut header = vec!["task".to_string()];
    header.extend(LayerKind::ALL.iter().map(|k| k.name().to_string()));
    header.push("total".into());
    let hdr: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new(&hdr);
    for t in zoo.tasks() {
        let mut row = vec![t.name.to_string()];
        for k in LayerKind::ALL {
            row.push(t.arch.count(k).to_string());
        }
        row.push(t.arch.total_layers().to_string());
        table.row(row);
    }
    out.push_str(&table.render());
    out.push_str("\nInference-service architectures (used by the ground-truth pressure model):\n");
    let mut table2 = Table::new(&hdr);
    for s in zoo.services() {
        let mut row = vec![s.name.to_string()];
        for k in LayerKind::ALL {
            row.push(s.arch.count(k).to_string());
        }
        row.push(s.arch.total_layers().to_string());
        table2.row(row);
    }
    out.push_str(&table2.render());
    Report {
        text: out,
        claims: Vec::new(),
    }
}
