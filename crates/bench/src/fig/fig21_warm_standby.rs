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
//! Deterministic for a fixed seed, over the default 4×2 topology.

use cluster::experiments::warm_standby_cells;
use cluster::report::{pct, ratio, standby_table};
use cluster::systems::SystemKind;
use gpu_sim::SHADOW_SWITCH_SECS;
use resilience::{CorrelatedFaultConfig, FaultConfig, FaultSchedule, STANDBY_RESERVE_FRACTION};
use simcore::{SimRng, Topology};

use crate::{banner, run_cells, Cluster, Report, Scale};

pub fn run(scale: Scale, seed: u64) -> Report {
    let mut out = banner(
        "Fig. 21 — warm-standby shadow instances vs cold failover (extension)",
        scale,
    );

    let pools = [0usize, 1, 2];
    let rates = [100.0, 800.0];
    let systems = [SystemKind::MuxFlow, SystemKind::Mudi];

    // Preview the shared rack-correlated schedule every cell replays,
    // and the pool shape the nonzero cells provision.
    let (cfg0, _) = Cluster::Physical.config(SystemKind::Mudi, scale, seed);
    let topo = Topology::new(cfg0.topology, cfg0.devices);
    out += &format!(
        "\ntopology: {} ({} devices, ~{} per node); standby reserve {:.0}% \
         per slot, promote latency {SHADOW_SWITCH_SECS}s (preloaded weights)\n",
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
        out += &format!(
            "  rate {rate:>3.0}x: {dev} device-local events, {node} from node \
             outages, {rack} from rack outages\n"
        );
    }

    // Flatten every (system × pool × rate) cell into one pooled
    // fan-out; each cell owns its seed-derived streams, so this is
    // bit-identical to the serial sweeps.
    let cells: Vec<_> = systems
        .iter()
        .flat_map(|&system| {
            let (cfg, iter_scale) = Cluster::Physical.config(system, scale, seed);
            warm_standby_cells(system, seed, &pools, &rates, &cfg, iter_scale)
        })
        .collect();
    let all = run_cells(cells);

    let per_system = pools.len() * rates.len();
    let mut labels = Vec::new();
    for _ in &systems {
        for &pool in &pools {
            for &rate in &rates {
                labels.push(format!("pool{pool}@{rate:.0}x"));
            }
        }
    }
    out.push('\n');
    out.push_str(&standby_table(&labels, &all).render());

    // Headline: each nonzero pool vs the pool-0 baseline at the same
    // rate and schedule — violation reduction, the bounded failover
    // p99, and the reserved GPU%-seconds paid for it.
    let cell = |sys_idx: usize, pool_idx: usize, rate_idx: usize| {
        &all[sys_idx * per_system + pool_idx * rates.len() + rate_idx]
    };
    for (yi, &system) in systems.iter().enumerate() {
        out += &format!(
            "\n{} — standby pool vs cold failover (same schedule):\n",
            system.name()
        );
        for (ri, &rate) in rates.iter().enumerate() {
            let base = cell(yi, 0, ri);
            for (pi, &pool) in pools.iter().enumerate().skip(1) {
                let run = cell(yi, pi, ri);
                out += &format!(
                    "  pool {pool}@{rate:>3.0}x viol {} ({} vs {}), failover p99 \
                     {:.1}s vs {:.1}s, outage {:.0}s vs {:.0}s, reserved {:.0} GPU%-s\n",
                    ratio(base.overall_violation_rate(), run.overall_violation_rate()),
                    pct(run.overall_violation_rate()),
                    pct(base.overall_violation_rate()),
                    run.faults.failover_latency_p99(),
                    base.faults.failover_latency_p99(),
                    run.faults.service_outage_secs,
                    base.faults.service_outage_secs,
                    run.faults.standby_reserved_gpu_secs,
                );
            }
        }
    }
    // An extension beyond the paper: no paper claim to judge.
    Report {
        text: out,
        claims: Vec::new(),
    }
}
