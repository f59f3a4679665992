//! Steady-state stepping must not allocate.
//!
//! The staged kernel is dense-indexed: per-service metrics live in a
//! [`cluster::metrics::ServiceTable`] keyed by `ServiceId`, per-device
//! state in plain vectors, and every per-step scratch buffer is pooled
//! inside the engine state. The payoff this file proves: once a
//! session is *warm*, stepping it — QPS segment changes, accruals,
//! tuner reconfigurations, training completions — performs **zero**
//! heap allocations, across the one-lane kernel shapes of the ledger. That
//! includes the LLM-mix shape: generative decode accrual is analytic
//! (steady-state running batch, closed-form ITL tail), so the
//! token-SLO path adds no per-event allocations either.
//!
//! **Warm-up prefix.** A documented, bounded prefix of each run is
//! excluded from the assertion window. Warm-up covers one-time,
//! capacity-style allocations only: predictor curve memos and device
//! latency-profile memos populating on first use, `ServiceTable` /
//! event-queue / scratch-vector growth to their steady capacities, and
//! the first wave of job placements. Everything after the prefix is
//! the kernel's steady state and must be allocation-free.
//!
//! Asserted with a counting global allocator. The counter is
//! process-global, so the tests in this file serialize on a mutex and
//! only measure while holding it. Set `MUDI_ALLOC_TRACE=1` to print a
//! backtrace for every allocation inside a measured window when
//! hunting a regression.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use cluster::engine::{ClusterConfig, ClusterSession, ScalePreset};
use cluster::systems::SystemKind;
use resilience::{FaultProfile, StandbyPolicy};
use simcore::{SimTime, TopologyShape};
use workloads::ServiceId;

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
/// Window marker: when set, `MUDI_ALLOC_TRACE=1` prints a backtrace
/// per allocation (re-entrancy guarded, since capturing allocates).
static ARMED: AtomicBool = AtomicBool::new(false);
static TRACING: AtomicBool = AtomicBool::new(false);
/// Latched from `MUDI_ALLOC_TRACE` before arming; the allocator itself
/// must never call into env machinery (it allocates).
static TRACE_ON: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        if ARMED.load(Ordering::Relaxed)
            && TRACE_ON.load(Ordering::Relaxed)
            && !TRACING.swap(true, Ordering::Relaxed)
        {
            eprintln!(
                "[alloc {} bytes]\n{}",
                layout.size(),
                std::backtrace::Backtrace::force_capture()
            );
            TRACING.store(false, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        if ARMED.load(Ordering::Relaxed)
            && TRACE_ON.load(Ordering::Relaxed)
            && !TRACING.swap(true, Ordering::Relaxed)
        {
            eprintln!(
                "[realloc {} -> {new_size} bytes]\n{}",
                layout.size(),
                std::backtrace::Backtrace::force_capture()
            );
            TRACING.store(false, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Serializes the tests in this file: the allocation counter is
/// process-global and a sibling test allocating concurrently would
/// race the measured delta.
static LOCK: Mutex<()> = Mutex::new(());

const DAY: f64 = 24.0 * 3600.0;

/// The one-lane kernel shapes of `bench::ledger`'s table, with this
/// file's warm-up horizon and step increment for each: (name, config,
/// warm-up horizon, measure horizon, step increment). The ledger steps
/// its batch shapes in one increment, which would leave no warm window.
fn shapes() -> Vec<(String, ClusterConfig, f64, f64, f64)> {
    let shapes: Vec<_> = bench::ledger::table()
        .into_iter()
        .filter_map(|spec| {
            let (warm, step) = match spec.name.as_str() {
                "batch-tiny-mudi-5day"
                | "batch-physical-mudi-5day"
                | "llm-mix-physical-mudi-5day" => (2.0 * DAY, 3.0 * DAY),
                "session-tiny-1day-5min-steps" => (0.25 * DAY, 300.0),
                _ => return None,
            };
            Some((spec.name, spec.config, warm, spec.horizon_secs, step))
        })
        .collect();
    assert_eq!(shapes.len(), 4, "a one-lane shape left the ledger table");
    shapes
}

fn step_to(session: &mut ClusterSession, from: f64, to: f64, step: f64) -> u64 {
    let mut events = 0;
    let mut t = from;
    while t < to {
        t = (t + step).min(to);
        events += session.step_until(SimTime::from_secs(t));
    }
    events
}

#[test]
fn steady_state_stepping_allocates_nothing() {
    let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    TRACE_ON.store(
        std::env::var_os("MUDI_ALLOC_TRACE").is_some_and(|v| v == "1"),
        Ordering::SeqCst,
    );

    // Sanity-check the counter before trusting any zero below.
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let v: Vec<u64> = (0..64).collect();
    assert!(
        ALLOCATIONS.load(Ordering::SeqCst) > before && v.len() == 64,
        "counting allocator failed to observe a plain Vec allocation"
    );

    for (shape, config, warm, horizon, step) in shapes() {
        // Construction and the warm-up prefix may allocate freely.
        let mut session = ClusterSession::new_scaled(config, 0.01);
        let warm_events = step_to(&mut session, 0.0, warm, step);

        ARMED.store(true, Ordering::SeqCst);
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        let events = step_to(&mut session, warm, horizon, step);
        let delta = ALLOCATIONS.load(Ordering::SeqCst) - before;
        ARMED.store(false, Ordering::SeqCst);

        assert!(
            events > 0,
            "{shape}: measured window fired no events (warm-up fired {warm_events})"
        );
        // These shapes resolve to one lane, so no lane phase ever fans
        // out: stepping must be strictly allocation-free. The sharded
        // budget is `sharded_stepping_allocation_contract`'s, below.
        assert_eq!(session.phase_profile().lanes, 1, "{shape}");
        assert_eq!(
            delta, 0,
            "{shape}: warm steady-state stepping allocated {delta} times \
             over {events} events (set MUDI_ALLOC_TRACE=1 for backtraces)"
        );
    }
}

/// Sharded stepping's allocation contract.
///
/// With a single worker the rack-sharded engine runs every lane in the
/// calling thread — the fan-out allocates nothing, and the barrier
/// reuses pooled buffers — so it must stay exactly as allocation-free
/// as the unsharded shapes above. With multiple workers (CI re-runs
/// this file under `MUDI_THREADS=2`) each epoch window's lane fan-out
/// performs a bounded, documented amount of setup: the lane-view
/// vector plus the scoped pool's claim slots and worker-thread spawns.
/// That makes steady-state allocations **O(epoch windows), never
/// O(events)** — this test pins the per-epoch budget so a per-event
/// allocation sneaking into the sharded path trips immediately
/// (thousands of events fire per 60-second epoch in these shapes).
#[test]
fn sharded_stepping_allocation_contract() {
    let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    TRACE_ON.store(
        std::env::var_os("MUDI_ALLOC_TRACE").is_some_and(|v| v == "1"),
        Ordering::SeqCst,
    );

    let mut config = ClusterConfig::tiny(SystemKind::Mudi, 7);
    config.shards = 2;
    let (warm, horizon, step) = (2.0 * DAY, 5.0 * DAY, 3.0 * DAY);
    let mut session = ClusterSession::new_scaled(config, 0.01);
    let warm_events = step_to(&mut session, 0.0, warm, step);

    ARMED.store(true, Ordering::SeqCst);
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let events = step_to(&mut session, warm, horizon, step);
    let delta = ALLOCATIONS.load(Ordering::SeqCst) - before;
    ARMED.store(false, Ordering::SeqCst);

    assert!(
        events > 0,
        "sharded window fired no events (warm-up fired {warm_events})"
    );
    if simcore::max_workers() <= 1 {
        assert_eq!(
            delta, 0,
            "serial sharded stepping allocated {delta} times over {events} \
             events (set MUDI_ALLOC_TRACE=1 for backtraces)"
        );
    } else {
        // 60-second epochs tile the measured window; step_until calls
        // can each open one extra partial window.
        let epochs = ((horizon - warm) / 60.0).ceil() as usize + 8;
        // Documented per-epoch fan-out budget: the lane-view vector,
        // the pool's claim-slot vector, and a few allocations per
        // spawned worker thread.
        const PER_EPOCH_ALLOC_BUDGET: usize = 64;
        let bound = epochs * PER_EPOCH_ALLOC_BUDGET;
        assert!(
            delta <= bound,
            "sharded stepping allocated {delta} times over {events} events \
             ({epochs} epochs x budget {PER_EPOCH_ALLOC_BUDGET} = {bound}); \
             allocations must scale with epochs, not events"
        );
    }
}

/// The request path's allocation contract: once a fleet-like session
/// (rack-sharded lanes, baseline faults with a warm-standby pool, epoch
/// windows) is warm, classifier `infer` calls allocate nothing. The
/// routing table is sized when the session is built, and a replica scan
/// only reads and refreshes it. The warm-up routes every service once so
/// the route cache reaches its size; stepping between the measured
/// calls is not measured (the sharded contract above covers it).
#[test]
fn warm_classifier_infer_allocates_nothing() {
    let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    TRACE_ON.store(
        std::env::var_os("MUDI_ALLOC_TRACE").is_some_and(|v| v == "1"),
        Ordering::SeqCst,
    );

    const WINDOW: f64 = 60.0;
    let mut config = ClusterConfig::builder(ScalePreset::Simulated, SystemKind::Mudi, 7)
        .devices(512)
        .jobs(32)
        .topology(TopologyShape::new(4, 4))
        .shards(4)
        .workers(1)
        .shard_epoch_secs(WINDOW)
        .max_sim_secs(DAY)
        .build();
    let mut faults = FaultProfile::scaled(1.0);
    faults.recovery.standby = StandbyPolicy::warm(1);
    config.faults = Some(faults);
    let mut session = ClusterSession::new_scaled(config, 0.01);
    let classifiers: Vec<ServiceId> = session
        .zoo()
        .services()
        .iter()
        .filter(|s| !s.is_generative())
        .map(|s| s.id)
        .collect();

    let mut t = 0.0;
    let mut window = |session: &mut ClusterSession| {
        t += WINDOW;
        session.step_until(SimTime::from_secs(t));
    };
    for _ in 0..10 {
        window(&mut session);
        for &s in &classifiers {
            let _ = session.infer(s);
        }
    }
    let (mut calls, mut delta) = (0, 0);
    for _ in 0..60 {
        window(&mut session);
        ARMED.store(true, Ordering::SeqCst);
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        // The first call per service scans its roster; the repeats hit
        // the route cache.
        for &s in &classifiers {
            for _ in 0..3 {
                let _ = session.infer(s);
                calls += 1;
            }
        }
        delta += ALLOCATIONS.load(Ordering::SeqCst) - before;
        ARMED.store(false, Ordering::SeqCst);
    }

    let routing = session.phase_profile().routing;
    assert!(
        routing.hinted > 0,
        "no visit was answered from the routing table: {routing}"
    );
    assert_eq!(
        delta, 0,
        "{calls} warm classifier infer calls allocated {delta} times \
         (set MUDI_ALLOC_TRACE=1 for backtraces)"
    );
}

/// Booting keeps no heap block per device: each device's engine state
/// is one row of a dense table, with its first service partial and its
/// first two pending lane events stored inline. So doubling the fleet
/// from 1,000 to 2,000 devices adds far fewer than one allocation per
/// added device; only per-lane and per-service set-up may scale.
#[test]
fn booting_allocates_no_block_per_device() {
    let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    TRACE_ON.store(
        std::env::var_os("MUDI_ALLOC_TRACE").is_some_and(|v| v == "1"),
        Ordering::SeqCst,
    );

    let boot = |devices: usize| {
        // The fleet benchmark's shape: racks, shards, baseline faults
        // and a warm-standby pool, so every per-device path of
        // construction runs.
        let mut config = ClusterConfig::builder(ScalePreset::Simulated, SystemKind::Mudi, 7)
            .devices(devices)
            .jobs(64)
            .topology(TopologyShape::new(16, 8))
            .shards(8)
            .workers(1)
            .max_sim_secs(DAY)
            .build();
        let mut faults = FaultProfile::scaled(1.0);
        faults.recovery.standby = StandbyPolicy::warm(1);
        config.faults = Some(faults);
        ARMED.store(true, Ordering::SeqCst);
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        let session = ClusterSession::new_scaled(config, 0.01);
        let delta = ALLOCATIONS.load(Ordering::SeqCst) - before;
        ARMED.store(false, Ordering::SeqCst);
        drop(session);
        delta
    };
    let (small, large) = (boot(1_000), boot(2_000));
    assert!(
        large < small + 1_000,
        "booting 2,000 devices allocated {large} times, 1,000 devices {small}: \
         a heap block per device crept back into construction \
         (set MUDI_ALLOC_TRACE=1 for backtraces)"
    );
}

/// Dense-id regression guard: the kernel's dense service table must
/// round-trip to exactly the key set the old `HashMap`-keyed report
/// carried — a contiguous `0..k` block of service ids, one entry per
/// touched service, no gaps and no phantom keys.
#[test]
fn dense_service_ids_round_trip_to_key_set() {
    let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());

    let mut session = ClusterSession::new_scaled(ClusterConfig::tiny(SystemKind::Mudi, 7), 0.01);
    step_to(&mut session, 0.0, 0.5 * DAY, 0.5 * DAY);
    let result = session.finish();

    let mut ids: Vec<usize> = result.services.keys().map(|s| s.0).collect();
    ids.sort_unstable();
    assert!(!ids.is_empty(), "tiny run reported no services");
    assert_eq!(
        ids,
        (0..ids.len()).collect::<Vec<_>>(),
        "dense service ids must form a contiguous 0..k block, got {ids:?}"
    );
}
