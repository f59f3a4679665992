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
//! Deterministic for a fixed `MUDI_SEED`, over the default 4×2 topology.

use std::time::Instant;

use bench::{banner, physical_config, pool_summary, seed};
use cluster::experiments::{correlated_failure_cells, end_to_end_many, FaultScope};
use cluster::report::{outage_table, ratio};
use cluster::systems::SystemKind;
use resilience::{CorrelatedFaultConfig, FaultConfig, FaultSchedule};
use simcore::{SimRng, Topology};

fn main() {
    banner(
        "Fig. 20 — correlated failures over the rack/node topology (extension)",
        "Rack-striped replicas + reliability-aware placement keep services \
         alive and training moving when whole nodes and racks fail at once",
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
    let (cfg0, _) = physical_config(SystemKind::Mudi);
    let topo = Topology::new(cfg0.topology, cfg0.devices);
    println!(
        "\ntopology: {} ({} devices, ~{} per node); injected mix at rate {:.0}x:",
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
        println!(
            "  scope {:<6} {} device-local events, {} from node outages, \
             {} from rack outages",
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
            let (cfg, iter_scale) = physical_config(system);
            correlated_failure_cells(system, seed(), &scopes, &rates, &cfg, iter_scale)
        })
        .collect();
    let started = Instant::now();
    let all = end_to_end_many(cells, simcore::max_workers());
    let elapsed = started.elapsed().as_secs_f64();
    let cell_walls: Vec<f64> = all.iter().map(|r| r.wall_clock_secs).collect();

    let per_system = scopes.len() * rates.len();
    let mut labels = Vec::new();
    for _ in &systems {
        for &scope in &scopes {
            for &rate in &rates {
                labels.push(format!("{}@{rate:.0}x", scope.name()));
            }
        }
    }
    println!();
    print!("{}", outage_table(&labels, &all).render());

    // Headline: the placement contribution under rack-scope faults.
    // Mudi and Mudi-flat replay the same schedule with the same
    // recovery stack; only layout + selector weights differ.
    let cell = |sys_idx: usize, scope_idx: usize, rate_idx: usize| {
        &all[sys_idx * per_system + scope_idx * rates.len() + rate_idx]
    };
    let (flat_idx, mudi_idx) = (2, 3);
    println!("\nreliability-aware placement vs flat pool (same schedule):");
    for (si, &scope) in scopes.iter().enumerate() {
        for (ri, &rate) in rates.iter().enumerate() {
            let flat = cell(flat_idx, si, ri);
            let mudi = cell(mudi_idx, si, ri);
            println!(
                "  {:<6}@{rate:>3.0}x goodput {} ({:.0} vs {:.0} it/h), \
                 outages {} vs {}, outage time {:.0}s vs {:.0}s",
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
    println!("\nmean goodput across the rate sweep (Mudi vs Mudi-flat):");
    for (si, &scope) in scopes.iter().enumerate() {
        let mean = |sys: usize| {
            (0..rates.len())
                .map(|ri| cell(sys, si, ri).goodput_iters_per_hour())
                .sum::<f64>()
                / rates.len() as f64
        };
        let (m, f) = (mean(mudi_idx), mean(flat_idx));
        println!(
            "  {:<6} {:.0} vs {:.0} it/h ({})",
            scope.name(),
            m,
            f,
            ratio(m, f)
        );
    }

    pool_summary("fan-out", &cell_walls, elapsed);
}
