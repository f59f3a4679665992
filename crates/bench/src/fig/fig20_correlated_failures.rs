//! Fig. 20 (extension) — correlated blast radii over the rack/node
//! topology.
//!
//! Fig. 19 injects independent device-local faults; real clusters also
//! lose whole nodes (PCIe switch resets, host kernel panics) and whole
//! racks (PDU and ToR failures). This experiment expands node- and
//! rack-level outage events over the cluster topology into per-device
//! failure intervals sharing one repair window, and sweeps blast-radius
//! scope × fault rate. Every system at a given cell replays the
//! *identical* schedule.
//!
//! Two things separate the systems here:
//! * **recovery** (as in Fig. 19): failover, guardrails, checkpointed
//!   requeue — and now checkpoint writes cost real time;
//! * **placement**: reliability-aware Mudi stripes same-service
//!   replicas across racks at deploy time, penalises devices with a bad
//!   observed fault history, and spreads training across fault domains.
//!   The `Mudi-flat` ablation runs the identical system with those
//!   weights zeroed and the flat layout, isolating the placement
//!   contribution.
//!
//! Total outages — a blast radius swallowing every replica of a
//! service — are accounted explicitly (windows, triggering domain,
//! seconds), never silently folded into the violation rate.
//!
//! Deterministic for a fixed seed, over the default 4×2 topology.

use cluster::experiments::{correlated_failure_cells, FaultScope};
use cluster::report::{outage_table, ratio};
use cluster::systems::SystemKind;
use resilience::{CorrelatedFaultConfig, FaultConfig, FaultSchedule};
use simcore::{SimRng, Topology};

use crate::{banner, run_cells, Cluster, Report, Scale};

pub fn run(scale: Scale, seed: u64) -> Report {
    let mut out = banner(
        "Fig. 20 — correlated failures over the rack/node topology (extension)",
        scale,
    );

    let scopes = [FaultScope::Device, FaultScope::Node, FaultScope::Rack];
    let rates = [100.0, 800.0];
    let systems = [
        SystemKind::Gslice,
        SystemKind::MuxFlow,
        SystemKind::MudiFlat,
        SystemKind::Mudi,
    ];

    // Preview the shared schedule every system replays per scope.
    let (cfg0, _) = Cluster::Physical.config(SystemKind::Mudi, scale, seed);
    let topo = Topology::new(cfg0.topology, cfg0.devices);
    out += &format!(
        "\ntopology: {} ({} devices, ~{} per node); injected mix at rate {:.0}x:\n",
        topo.shape(),
        cfg0.devices,
        topo.devices_per_node(),
        rates[rates.len() - 1],
    );
    for &scope in &scopes {
        let rate = rates[rates.len() - 1];
        let correlated = match scope {
            FaultScope::Device => None,
            FaultScope::Node => Some(CorrelatedFaultConfig::node_level(rate)),
            FaultScope::Rack => Some(CorrelatedFaultConfig::rack_level(rate)),
        };
        let schedule = FaultSchedule::generate_with_topology(
            &FaultConfig::scaled(rate),
            correlated.as_ref(),
            &topo,
            cfg0.max_sim_secs,
            &SimRng::seed(cfg0.seed).fork("faults"),
        );
        let (dev, node, rack) = schedule.domain_counts();
        out += &format!(
            "  scope {:<6} {} device-local events, {} from node outages, \
             {} from rack outages\n",
            scope.name(),
            dev,
            node,
            rack
        );
    }

    // Flatten every (system × scope × rate) cell into one pooled
    // fan-out; each cell owns its seed-derived streams, so this is
    // bit-identical to the serial sweeps.
    let cells: Vec<_> = systems
        .iter()
        .flat_map(|&system| {
            let (cfg, iter_scale) = Cluster::Physical.config(system, scale, seed);
            correlated_failure_cells(system, seed, &scopes, &rates, &cfg, iter_scale)
        })
        .collect();
    let all = run_cells(cells);

    let per_system = scopes.len() * rates.len();
    let mut labels = Vec::new();
    for _ in &systems {
        for &scope in &scopes {
            for &rate in &rates {
                labels.push(format!("{}@{rate:.0}x", scope.name()));
            }
        }
    }
    out.push('\n');
    out.push_str(&outage_table(&labels, &all).render());

    // Headline: the placement contribution under rack-scope faults.
    // Mudi and Mudi-flat replay the same schedule with the same
    // recovery stack; only layout + selector weights differ.
    let cell = |sys_idx: usize, scope_idx: usize, rate_idx: usize| {
        &all[sys_idx * per_system + scope_idx * rates.len() + rate_idx]
    };
    let (flat_idx, mudi_idx) = (2, 3);
    out.push_str("\nreliability-aware placement vs flat pool (same schedule):\n");
    for (si, &scope) in scopes.iter().enumerate() {
        for (ri, &rate) in rates.iter().enumerate() {
            let flat = cell(flat_idx, si, ri);
            let mudi = cell(mudi_idx, si, ri);
            out += &format!(
                "  {:<6}@{rate:>3.0}x goodput {} ({:.0} vs {:.0} it/h), \
                 outages {} vs {}, outage time {:.0}s vs {:.0}s\n",
                scope.name(),
                ratio(mudi.goodput_iters_per_hour(), flat.goodput_iters_per_hour()),
                mudi.goodput_iters_per_hour(),
                flat.goodput_iters_per_hour(),
                mudi.faults.service_outages,
                flat.faults.service_outages,
                mudi.faults.service_outage_secs,
                flat.faults.service_outage_secs,
            );
        }
    }

    // Scope-level aggregate: mean goodput across the rate sweep.
    out.push_str("\nmean goodput across the rate sweep (Mudi vs Mudi-flat):\n");
    for (si, &scope) in scopes.iter().enumerate() {
        let mean = |sys: usize| {
            (0..rates.len())
                .map(|ri| cell(sys, si, ri).goodput_iters_per_hour())
                .sum::<f64>()
                / rates.len() as f64
        };
        let (m, f) = (mean(mudi_idx), mean(flat_idx));
        out += &format!(
            "  {:<6} {:.0} vs {:.0} it/h ({})\n",
            scope.name(),
            m,
            f,
            ratio(m, f)
        );
    }
    // An extension beyond the paper: no paper claim to judge.
    Report {
        text: out,
        claims: Vec::new(),
    }
}
