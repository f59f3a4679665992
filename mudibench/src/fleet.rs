//! `fleet`: a large simulated cluster stepped the way a live control
//! plane steps it. Simulated-preset dynamics on 10k devices, a 16-rack
//! topology, 8 shards and 2 lane workers, under the baseline fault
//! rates with a warm-standby pool (device failures, slowdowns, crashes
//! and failover; no service ever loses its last replica here, so the
//! standbys are reserved but never promoted); `step_until` in one-epoch
//! windows, an SLO report every other window, and in-process user
//! requests: a fixed number after every window, then an open-loop rate
//! ladder after the horizon, so neither the sample count nor the
//! ladder's outcome depends on how fast the stepping is.

use std::time::Instant;

use cluster::engine::{ClusterConfig, ScalePreset};
use cluster::systems::SystemKind;
use resilience::{FaultProfile, StandbyPolicy};
use simcore::TopologyShape;

use crate::cpu::Cost;
use crate::drive::{self, analytic, Boots, Plan, RequestMix, Stepping};
use crate::layers::{self, Layers};
use crate::openloop::{self, OpenLoop};
use crate::report::{EndToEnd, Outcome};
use crate::spans::Spans;
use crate::Args;

/// Fleet fingerprint for [`crate::DEFAULT_SEED`].
const PINNED: u64 = 0x3f75_5c79_20d7_b325;

const DEVICES: usize = 10_000;
const JOBS: usize = 256;
const EPOCH_S: f64 = 60.0;
const HORIZON_S: f64 = 12.0 * 3600.0;
const REPORT_EVERY: usize = 2;
/// Windows the 1-worker replay steps before its reports are compared.
const CHECK_WINDOWS: usize = 40;
/// User requests served back to back after every window: 720
/// windows give 2160 samples, enough for a p99 with ten beyond it.
const USERS_PER_WINDOW: usize = 3;
/// p99 limit for the open-loop ladder.
const LIMIT_MS: f64 = 250.0;
/// The open-loop rate ladder as (rate, seconds), run after the horizon
/// with nothing else holding the session. Routing one request scores
/// every device (about 0.6 ms at 10k devices), so the loop saturates
/// near 1600 requests/s, between the rungs, even on a host twice as
/// slow.
const LADDER: [(f64, f64); 2] = [(500.0, 2.0), (4000.0, 0.5)];

fn config(seed: u64, workers: usize) -> ClusterConfig {
    let mut cfg = ClusterConfig::builder(ScalePreset::Simulated, SystemKind::Mudi, seed)
        .devices(DEVICES)
        .jobs(JOBS)
        .topology(TopologyShape::new(16, 8))
        .shards(8)
        .workers(workers)
        .shard_epoch_secs(EPOCH_S)
        .max_sim_secs(HORIZON_S)
        .build();
    let mut faults = FaultProfile::scaled(1.0);
    faults.recovery.standby = StandbyPolicy::warm(1);
    cfg.faults = Some(faults);
    cfg
}

fn plan(horizon_s: f64, keep_reports: usize) -> Plan {
    Plan {
        window_s: EPOCH_S,
        horizon_s,
        report_every: REPORT_EVERY,
        keep_reports,
    }
}

struct Pass {
    fingerprint: u64,
    boots: Boots,
    stepping: Stepping,
    users: OpenLoop,
    /// User requests served after the horizon, with stepping over.
    drained: u64,
    spans: Spans,
    layers: Layers,
    wall_s: f64,
}

fn pass(seed: u64, traced: bool) -> Pass {
    let started = Instant::now();
    let mut spans = Spans::new(traced);
    let mut boots = Boots::default();
    let mut stepping = Stepping::default();
    let mut layers = Layers::default();
    let mut session = drive::boot(config(seed, 2), &mut spans, &mut boots);
    let mut mix = RequestMix::new(seed);
    mix.set_zoo(session.zoo());
    drive::step(
        &mut session,
        &plan(HORIZON_S, CHECK_WINDOWS / REPORT_EVERY),
        Some((USERS_PER_WINDOW, &mut mix)),
        &mut spans,
        &mut stepping,
    );
    let mut users = OpenLoop::new(openloop::ladder(&LADDER), seed, Instant::now());
    let drained = drive::drain(
        &mut session,
        &mut users,
        &mut mix,
        &mut spans,
        &mut stepping,
    );
    layers.absorb_session(&session);
    let (result, _) = drive::timed(&mut spans, "cluster.session.finish", 0, || session.finish());
    layers.absorb_result(&result);
    Pass {
        fingerprint: result.fingerprint(),
        boots,
        stepping,
        users,
        drained,
        spans,
        layers,
        wall_s: started.elapsed().as_secs_f64(),
    }
}

/// Replays the first [`CHECK_WINDOWS`] windows on one lane worker and
/// compares every SLO report with the 2-worker pass. Returns the boot
/// cost, which counts toward `setup_s`.
fn check_one_worker(seed: u64, two: &Pass, out: &mut Outcome) -> Cost {
    let mut spans = Spans::new(false);
    let mut boots = Boots::default();
    let mut session = drive::boot(config(seed, 1), &mut spans, &mut boots);
    let mut one = Stepping::default();
    let n_reports = CHECK_WINDOWS / REPORT_EVERY;
    drive::step(
        &mut session,
        &plan(CHECK_WINDOWS as f64 * EPOCH_S, n_reports),
        None,
        &mut spans,
        &mut one,
    );
    let same = one.kept_reports.len() == n_reports
        && two.stepping.kept_reports.len() == n_reports
        && one
            .kept_reports
            .iter()
            .zip(&two.stepping.kept_reports)
            .all(|((t1, r1), (t2, r2))| t1 == t2 && analytic(r1) == analytic(r2));
    out.check(same, || {
        format!("1-worker and 2-worker SLO reports differ within the first {CHECK_WINDOWS} windows")
    });
    boots.session_new[0]
}

pub fn run(args: &Args, out: &mut Outcome) {
    let base = pass(args.seed, false);
    let check_boot = check_one_worker(args.seed, &base, out);
    let st = &base.stepping;
    let calls = (st.windows.len() + st.reports.len() + st.user_cpu_ms.len()) as u64;
    out.attempted = calls + base.users.attempted();
    out.failed = st.user_failed + base.users.failed();
    out.line(format!(
        "fleet windows={} reports={} events={} fingerprint={:016x} sim_s={} users_between_windows={} (failed {}) users_after_horizon={}",
        st.windows.len(),
        st.reports.len(),
        st.events,
        base.fingerprint,
        st.sim_s,
        st.user_cpu_ms.len(),
        st.user_failed,
        base.drained
    ));
    for l in base.users.describe(LIMIT_MS) {
        out.line(l);
    }
    if args.seed == crate::DEFAULT_SEED {
        out.check(base.fingerprint == PINNED, || {
            format!(
                "fleet fingerprint {:016x} differs from pinned {PINNED:016x}",
                base.fingerprint
            )
        });
    }
    out.check(base.stepping.inconsistent == 0, || {
        format!(
            "{} in-process responses contradict their own latency",
            base.stepping.inconsistent
        )
    });
    if !args.trace {
        EndToEnd {
            boots: &[base.boots.session_new[0], check_boot],
            sim_s_per_cpu_s: st.sim_s / st.windows.iter().map(|c| c.cpu_s).sum::<f64>(),
            windows: &st.windows,
            reports: &st.reports,
            infer_cpu_ms: &st.user_cpu_ms,
            users: &base.users,
            limit_ms: LIMIT_MS,
        }
        .emit(out);
        return;
    }
    let traced = pass(args.seed, true);
    out.check(traced.fingerprint == base.fingerprint, || {
        format!(
            "traced fingerprint {:016x} differs from untraced {:016x}",
            traced.fingerprint, base.fingerprint
        )
    });
    let overhead = traced.wall_s - layers::probe_secs(&traced.spans) - base.wall_s;
    traced.layers.emit(
        out,
        &traced.boots,
        &traced.stepping,
        &traced.spans,
        overhead,
    );
}
