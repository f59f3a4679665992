//! Fig. 21 (extension) — warm-standby shadow instances under
//! rack-correlated faults.
//!
//! Fig. 20 recovers a failed inference replica by spraying its traffic
//! across survivors and paying the full cold `deploy_inference` hit at
//! repair. This experiment provisions a pool of pre-seeded shadow
//! instances per service: each standby parks on another device (spread
//! across racks), holds a reserved GPU% slice, and keeps its weights
//! resident so a failure promotes it within the shadow-switch latency
//! instead of a cold restart.
//!
//! The ledger has two sides, reported in one table per cell:
//! * **cost** — reserved GPU%-seconds held for the pool (idle or
//!   active) and the training share it displaces;
//! * **benefit** — SLO violation rate, explicit total-outage time, and
//!   the failover-latency p99, which the pool bounds at the promote
//!   latency instead of the full repair interval.
//!
//! Pool size 0 replays the plain Fig. 20 rack-correlated path
//! byte-for-byte — the baseline every nonzero pool is compared against
//! at the same fault rate and schedule.
//!
//! Deterministic for a fixed `MUDI_SEED`; topology via `MUDI_TOPOLOGY`.

use std::time::Instant;

use bench::{banner, physical_config, pool_summary, seed};
use cluster::experiments::{end_to_end_many, warm_standby_cells};
use cluster::report::{ratio, standby_table};
use cluster::systems::SystemKind;
use gpu_sim::SHADOW_SWITCH_SECS;
use resilience::{CorrelatedFaultConfig, FaultConfig, FaultSchedule, STANDBY_RESERVE_FRACTION};
use simcore::{SimRng, Topology, TopologyShape};

fn main() {
    banner(
        "Fig. 21 — warm-standby shadow instances vs cold failover (extension)",
        "A reserved standby pool bounds failover latency at the shadow-switch \
         cost instead of the repair interval, trading idle GPU% for \
         violation-seconds avoided",
    );

    let pools = [0usize, 1, 2];
    let rates = [100.0, 800.0];
    let systems = [SystemKind::MuxFlow, SystemKind::Mudi];

    // Preview the shared rack-correlated schedule every cell replays,
    // and the pool shape the nonzero cells provision.
    let (cfg0, _) = physical_config(SystemKind::Mudi);
    let topo = Topology::new(TopologyShape::from_env(), cfg0.devices);
    println!(
        "\ntopology: {} ({} devices, ~{} per node); standby reserve {:.0}% \
         per slot, promote latency {SHADOW_SWITCH_SECS}s (preloaded weights)",
        topo.shape(),
        cfg0.devices,
        topo.devices_per_node(),
        STANDBY_RESERVE_FRACTION * 100.0,
    );
    for &rate in &rates {
        let schedule = FaultSchedule::generate_with_topology(
            &FaultConfig::scaled(rate),
            Some(&CorrelatedFaultConfig::rack_level(rate)),
            &topo,
            cfg0.max_sim_secs,
            &SimRng::seed(cfg0.seed).fork("faults"),
        );
        let (dev, node, rack) = schedule.domain_counts();
        println!(
            "  rate {rate:>3.0}x: {dev} device-local events, {node} from node \
             outages, {rack} from rack outages"
        );
    }

    // Flatten every (system × pool × rate) cell into one pooled
    // fan-out; each cell owns its seed-derived streams, so this is
    // bit-identical to the serial sweeps.
    let cells: Vec<_> = systems
        .iter()
        .flat_map(|&system| {
            let (cfg, iter_scale) = physical_config(system);
            warm_standby_cells(system, seed(), &pools, &rates, &cfg, iter_scale)
        })
        .collect();
    let started = Instant::now();
    let all = end_to_end_many(cells, simcore::max_workers());
    let elapsed = started.elapsed().as_secs_f64();
    let cell_walls: Vec<f64> = all.iter().map(|r| r.wall_clock_secs).collect();

    let per_system = pools.len() * rates.len();
    let mut labels = Vec::new();
    for _ in &systems {
        for &pool in &pools {
            for &rate in &rates {
                labels.push(format!("pool{pool}@{rate:.0}x"));
            }
        }
    }
    println!();
    print!("{}", standby_table(&labels, &all).render());

    // Headline: each nonzero pool vs the pool-0 baseline at the same
    // rate and schedule — violation reduction, the bounded failover
    // p99, and the reserved GPU%-seconds paid for it.
    let cell = |sys_idx: usize, pool_idx: usize, rate_idx: usize| {
        &all[sys_idx * per_system + pool_idx * rates.len() + rate_idx]
    };
    for (yi, &system) in systems.iter().enumerate() {
        println!(
            "\n{} — standby pool vs cold failover (same schedule):",
            system.name()
        );
        for (ri, &rate) in rates.iter().enumerate() {
            let base = cell(yi, 0, ri);
            for (pi, &pool) in pools.iter().enumerate().skip(1) {
                let run = cell(yi, pi, ri);
                println!(
                    "  pool {pool}@{rate:>3.0}x viol {} ({} vs {}), failover p99 \
                     {:.1}s vs {:.1}s, outage {:.0}s vs {:.0}s, reserved {:.0} GPU%-s",
                    ratio(base.overall_violation_rate(), run.overall_violation_rate()),
                    cluster::report::pct(run.overall_violation_rate()),
                    cluster::report::pct(base.overall_violation_rate()),
                    run.faults.failover_latency_p99(),
                    base.faults.failover_latency_p99(),
                    run.faults.service_outage_secs,
                    base.faults.service_outage_secs,
                    run.faults.standby_reserved_gpu_secs,
                );
            }
        }
    }

    pool_summary("fan-out", &cell_walls, elapsed);
}
