//! Shared helpers for the per-figure regeneration binaries.
//!
//! Every table and figure in the paper has a binary under `src/bin/`
//! (see DESIGN.md for the index). Binaries default to **reduced scale**
//! so they finish in seconds; set `MUDI_FULL_SCALE=1` to run the
//! paper-scale experiments (12-GPU/300-task physical, 1000-GPU/
//! 5000-task simulated).

use cluster::engine::ClusterConfig;
use cluster::systems::SystemKind;

/// Whether full paper-scale runs were requested.
pub fn full_scale() -> bool {
    simcore::env::flag("MUDI_FULL_SCALE")
}

/// The experiment seed (override with `MUDI_SEED`).
pub fn seed() -> u64 {
    simcore::env::parse_or("MUDI_SEED", 42)
}

/// Physical-cluster configuration at the chosen scale, plus the
/// iteration scale to run with.
pub fn physical_config(system: SystemKind) -> (ClusterConfig, f64) {
    if full_scale() {
        (ClusterConfig::physical(system, seed()), 1.0)
    } else {
        let mut cfg = ClusterConfig::physical(system, seed());
        cfg.jobs = 60;
        (cfg, 0.01)
    }
}

/// Simulated-cluster configuration at the chosen scale.
pub fn simulated_config(system: SystemKind) -> (ClusterConfig, f64) {
    if full_scale() {
        (ClusterConfig::simulated(system, seed()), 1.0)
    } else {
        let mut cfg = ClusterConfig::simulated(system, seed());
        cfg.devices = 60;
        cfg.jobs = 240;
        cfg.arrival_scale = 10.0;
        (cfg, 0.01)
    }
}

/// Handles the shared `--trace` CLI flag every regeneration binary
/// accepts: equivalent to running with `MUDI_TRACE=1`. Each engine run
/// then records structured [`simcore::SimEvent`]s and dumps the
/// per-run summary and event tail to **stderr** — stdout (and the
/// goldens diffed against it) stays byte-identical.
pub fn apply_trace_flag() {
    if std::env::args().any(|a| a == "--trace") {
        std::env::set_var("MUDI_TRACE", "1");
    }
}

/// Prints a labelled trace summary to stderr if the run recorded any
/// events (no-op on the disabled bus, so callers can pass it through
/// unconditionally).
pub fn trace_report(label: &str, trace: &simcore::TraceSummary) {
    if !trace.is_empty() {
        eprint!("[{label}] {trace}");
    }
}

/// Prints the standard banner for a regeneration binary, and applies
/// the shared `--trace` flag (see [`apply_trace_flag`]).
pub fn banner(id: &str, paper_claim: &str) {
    apply_trace_flag();
    println!("==============================================================");
    println!("{id}");
    println!("Paper: {paper_claim}");
    println!(
        "Scale: {}",
        if full_scale() {
            "FULL (paper scale)"
        } else {
            "reduced (set MUDI_FULL_SCALE=1 for paper scale)"
        }
    );
    println!("==============================================================");
}

/// Formats a `measured vs paper` comparison line.
pub fn compare(metric: &str, measured: f64, paper: f64, unit: &str) {
    println!("  {metric}: measured {measured:.3}{unit}  (paper: {paper:.3}{unit})");
}

/// Checks a ledger binary's arguments against its documented `flags`:
/// the flags given, in order, or the first argument that is not one.
pub fn parse_flags(
    args: impl IntoIterator<Item = String>,
    flags: &[&'static str],
) -> Result<Vec<&'static str>, String> {
    args.into_iter()
        .map(|a| flags.iter().copied().find(|&f| f == a).ok_or(a))
        .collect()
}

/// The process arguments through [`parse_flags`]. Anything else, `--help`
/// included, prints a usage line to stderr and exits with status 2
/// before the binary does any work or writes its ledger.
pub fn flags_or_exit(bin: &str, flags: &[&'static str]) -> Vec<&'static str> {
    parse_flags(std::env::args().skip(1), flags).unwrap_or_else(|bad| {
        let usage: Vec<String> = flags.iter().map(|f| format!("[{f}]")).collect();
        eprintln!("{bin}: unknown argument {bad:?}");
        eprintln!("usage: {bin} {}", usage.join(" "));
        std::process::exit(2)
    })
}

/// A bench gate fails a fresh figure that falls below this fraction of
/// its committed ledger value (a >20% regression).
pub const GATE_FLOOR: f64 = 0.80;

/// Whether `now` regressed by more than the gate allows against the
/// committed `was`.
pub fn regressed(now: f64, was: f64) -> bool {
    now < was * GATE_FLOOR
}

/// The number after `"key": ` on one line of a bench ledger. The
/// ledgers are written by their own binaries, one record per line, so
/// the format is fixed; `None` (a missing or malformed field) just
/// disables the gate for that record.
pub fn ledger_number(line: &str, key: &str) -> Option<f64> {
    line.split(&format!("\"{key}\": "))
        .nth(1)
        .and_then(|s| s.split([',', '}']).next())
        .and_then(|s| s.trim().parse::<f64>().ok())
}

/// The string after `"key": "` on one line of a bench ledger (see
/// [`ledger_number`]).
pub fn ledger_string<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split(&format!("\"{key}\": \""))
        .nth(1)
        .and_then(|s| s.split('"').next())
}

/// Prints a bench gate's verdict over its regression `failures`, one
/// line each. An empty list passes. Otherwise the gate fails with exit
/// code 1, unless `MUDI_BENCH_NO_GATE=1` asks to report and continue
/// (a noisy runner). `gate` names the gate, `subject` what each ledger
/// record is (a shape, a cell) and `metric` what regressed.
pub fn gate_verdict(gate: &str, subject: &str, metric: &str, failures: &[String]) {
    if failures.is_empty() {
        println!("{gate}: no {subject} regressed >20% from the committed ledger");
    } else if simcore::env::flag("MUDI_BENCH_NO_GATE") {
        println!("{gate}: regressions ignored (MUDI_BENCH_NO_GATE=1):");
        for f in failures {
            println!("  {f}");
        }
    } else {
        eprintln!("{gate}: {metric} regressed >20% from the committed ledger:");
        for f in failures {
            eprintln!("  {f}");
        }
        eprintln!("(set MUDI_BENCH_NO_GATE=1 to bypass on a noisy runner)");
        std::process::exit(1);
    }
}

/// CPU seconds the calling thread has used so far. A host timing, so
/// callers print it to stderr; unlike wall time it leaves out the time
/// the thread waited for a core.
pub fn thread_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec and the clock id is a
    // constant the kernel always supports.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Prints the fan-out accounting for a pooled sweep: per-cell compute
/// summed vs wall-clock elapsed, the effective speedup, and the
/// critical-path bound (elapsed can never drop below the longest cell,
/// however many cores are available). The effective figure is only
/// meaningful when workers ≤ physical cores — under time-sharing each
/// preempted cell's wall clock inflates, so sum/elapsed overstates.
///
/// Goes to **stderr**: stdout carries only simulation-determined tables
/// and must stay bit-identical for a fixed seed, whatever the host.
pub fn pool_summary(label: &str, cell_wall_secs: &[f64], elapsed_secs: f64) {
    let sum: f64 = cell_wall_secs.iter().sum();
    let longest = cell_wall_secs.iter().cloned().fold(0.0f64, f64::max);
    let speedup = if elapsed_secs > 0.0 {
        sum / elapsed_secs
    } else {
        1.0
    };
    let bound = if longest > 0.0 { sum / longest } else { 1.0 };
    eprintln!(
        "\n{label}: {} cells, {sum:.2}s cell compute (longest {longest:.2}s) in \
         {elapsed_secs:.2}s elapsed ({speedup:.2}x effective, {} worker(s); \
         critical-path speedup bound {bound:.2}x)",
        cell_wall_secs.len(),
        simcore::pool::max_workers(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_selection_defaults_to_reduced() {
        // Unless the env var is set in the test environment.
        if std::env::var("MUDI_FULL_SCALE").is_err() {
            assert!(!full_scale());
            let (cfg, scale) = physical_config(SystemKind::Random);
            assert!(cfg.jobs < 300);
            assert!(scale < 1.0);
        }
    }

    #[test]
    fn thread_cpu_clock_advances_with_work() {
        let t0 = thread_cpu_s();
        let start = std::time::Instant::now();
        while start.elapsed().as_secs_f64() < 0.02 {
            std::hint::black_box(start);
        }
        assert!(thread_cpu_s() > t0);
    }

    #[test]
    fn flag_parser_accepts_only_documented_flags() {
        let parse =
            |args: &[&str]| parse_flags(args.iter().map(|a| a.to_string()), &["--smoke", "--gate"]);
        assert_eq!(parse(&[]), Ok(vec![]));
        assert_eq!(parse(&["--gate", "--smoke"]), Ok(vec!["--gate", "--smoke"]));
        assert_eq!(parse(&["--smoke", "--help"]), Err("--help".to_string()));
        assert_eq!(parse(&["smoke"]), Err("smoke".to_string()));
        assert_eq!(parse(&["--smoke=1"]), Err("--smoke=1".to_string()));
        assert_eq!(parse(&[""]), Err(String::new()));
    }

    #[test]
    fn ledger_fields_parse_one_record() {
        let line = r#"  {"shape": "tiny-faulty", "devices": 1000, "steps_per_sec": 1234.5},"#;
        assert_eq!(ledger_string(line, "shape"), Some("tiny-faulty"));
        assert_eq!(ledger_number(line, "devices"), Some(1000.0));
        assert_eq!(ledger_number(line, "steps_per_sec"), Some(1234.5));
        assert_eq!(ledger_number(line, "shape"), None);
        assert_eq!(ledger_number(line, "workers"), None);
    }

    #[test]
    fn gate_floor_is_a_twenty_percent_drop() {
        assert!(!regressed(80.0, 100.0));
        assert!(regressed(79.9, 100.0));
        assert!(!regressed(120.0, 100.0));
    }

    #[test]
    fn seed_default() {
        if std::env::var("MUDI_SEED").is_err() {
            assert_eq!(seed(), 42);
        }
    }
}
