//! The paper's figures and the shared helpers of the bench binaries.
//!
//! Every table and figure in the paper is a function in [`fig`] (see
//! DESIGN.md for the index), which the `figures` binary prints and
//! `cargo test` checks against a golden. A figure runs at
//! [`Scale::Reduced`] so it finishes in seconds, or at [`Scale::Full`],
//! the paper's scale (12-GPU/300-task physical, 1000-GPU/5000-task
//! simulated). The kernel performance ledger is [`ledger`], which the
//! `ledger` binary measures.

use std::time::Instant;

use cluster::engine::ClusterConfig;
use cluster::experiments::end_to_end_many;
use cluster::metrics::ExperimentResult;
use cluster::systems::SystemKind;

pub mod fig;
pub mod ledger;

/// How large a figure's runs are.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Scaled-down runs that finish in seconds; the default.
    Reduced,
    /// The paper's scale (`MUDI_FULL_SCALE=1`).
    Full,
}

/// The scale and seed a run asks for: [`Scale::Full`] if
/// `MUDI_FULL_SCALE` is set, else [`Scale::Reduced`]; `MUDI_SEED`, else
/// 42. The figures' goldens are recorded at these defaults.
pub fn scale_and_seed_from_env() -> (Scale, u64) {
    let scale = if simcore::env::flag("MUDI_FULL_SCALE") {
        Scale::Full
    } else {
        Scale::Reduced
    };
    (scale, simcore::env::parse_or("MUDI_SEED", 42))
}

/// The paper's two evaluation clusters (§7.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cluster {
    Physical,
    Simulated,
}

impl Cluster {
    pub fn name(self) -> &'static str {
        match self {
            Cluster::Physical => "physical",
            Cluster::Simulated => "simulated",
        }
    }

    /// This cluster's configuration at `scale`, plus the iteration
    /// scale to run with.
    pub fn config(self, system: SystemKind, scale: Scale, seed: u64) -> (ClusterConfig, f64) {
        let mut cfg = match self {
            Cluster::Physical => ClusterConfig::physical(system, seed),
            Cluster::Simulated => ClusterConfig::simulated(system, seed),
        };
        if scale == Scale::Full {
            return (cfg, 1.0);
        }
        match self {
            Cluster::Physical => cfg.jobs = 60,
            Cluster::Simulated => {
                cfg.devices = 60;
                cfg.jobs = 240;
                cfg.arrival_scale = 10.0;
            }
        }
        (cfg, 0.01)
    }

    /// The systems Fig. 8 and 9 compare: the three baselines and Mudi,
    /// plus Optimal on the simulated cluster.
    pub fn systems(self) -> Vec<SystemKind> {
        let mut systems = vec![
            SystemKind::Gslice,
            SystemKind::Gpulets,
            SystemKind::MuxFlow,
            SystemKind::Mudi,
        ];
        if self == Cluster::Simulated {
            systems.push(SystemKind::Optimal);
        }
        systems
    }

    /// Runs each system on this cluster through [`run_cells`], in order.
    pub fn run(self, systems: &[SystemKind], scale: Scale, seed: u64) -> Vec<ExperimentResult> {
        let cells = systems.iter().map(|&s| self.config(s, scale, seed));
        run_cells(cells.collect())
    }
}

/// The standard banner a figure's text starts with.
pub fn banner(id: &str, paper_claim: &str, scale: Scale) -> String {
    let rule = "==============================================================";
    let scale = match scale {
        Scale::Full => "FULL (paper scale)",
        Scale::Reduced => "reduced (set MUDI_FULL_SCALE=1 for paper scale)",
    };
    format!("{rule}\n{id}\nPaper: {paper_claim}\nScale: {scale}\n{rule}\n")
}

/// A `measured vs paper` comparison line.
pub fn compare(metric: &str, measured: f64, paper: f64, unit: &str) -> String {
    format!("  {metric}: measured {measured:.3}{unit}  (paper: {paper:.3}{unit})\n")
}

/// Runs independent experiment cells through the worker pool
/// ([`end_to_end_many`] at [`simcore::max_workers`]), in cell order, and
/// prints the fan-out accounting to stderr: per-cell compute summed vs
/// elapsed, the effective speedup, and the critical-path bound (elapsed
/// never drops below the longest cell). The effective figure means
/// something only when workers ≤ physical cores.
pub fn run_cells(cells: Vec<(ClusterConfig, f64)>) -> Vec<ExperimentResult> {
    let started = Instant::now();
    let workers = simcore::max_workers();
    let all = end_to_end_many(cells, workers);
    let elapsed = started.elapsed().as_secs_f64();
    let sum: f64 = all.iter().map(|r| r.wall_clock_secs).sum();
    let longest = all.iter().map(|r| r.wall_clock_secs).fold(0.0f64, f64::max);
    let speedup = if elapsed > 0.0 { sum / elapsed } else { 1.0 };
    let bound = if longest > 0.0 { sum / longest } else { 1.0 };
    eprintln!(
        "\nfan-out: {} cells, {sum:.2}s cell compute (longest {longest:.2}s) in \
         {elapsed:.2}s elapsed ({speedup:.2}x effective, {workers} worker(s); \
         critical-path speedup bound {bound:.2}x)",
        all.len(),
    );
    all
}

/// Checks a binary's arguments against its documented `flags`:
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
/// included, exits through [`usage_exit`] before the binary does any
/// work or writes its ledger.
pub fn flags_or_exit(bin: &str, flags: &[&'static str]) -> Vec<&'static str> {
    parse_flags(std::env::args().skip(1), flags).unwrap_or_else(|bad| {
        let usage: Vec<String> = flags.iter().map(|f| format!("[{f}]")).collect();
        usage_exit(bin, &format!("unknown argument {bad:?}"), &usage.join(" "))
    })
}

/// Prints `error` and a usage line to stderr and exits with status 2.
pub fn usage_exit(bin: &str, error: &str, usage: &str) -> ! {
    eprintln!("{bin}: {error}");
    eprintln!("usage: {bin} {usage}");
    std::process::exit(2)
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_selection_defaults_to_reduced() {
        // Unless the env var is set in the test environment.
        if std::env::var("MUDI_FULL_SCALE").is_err() {
            assert_eq!(scale_and_seed_from_env().0, Scale::Reduced);
        }
        let (cfg, iters) = Cluster::Physical.config(SystemKind::Mudi, Scale::Reduced, 42);
        assert!(cfg.jobs < 300 && iters < 1.0);
        let (cfg, iters) = Cluster::Simulated.config(SystemKind::Mudi, Scale::Reduced, 42);
        assert!(cfg.devices < 1000 && iters < 1.0);
        let (cfg, iters) = Cluster::Physical.config(SystemKind::Mudi, Scale::Full, 42);
        assert_eq!((cfg.jobs, iters), (300, 1.0));
    }

    #[test]
    fn seed_default() {
        if std::env::var("MUDI_SEED").is_err() {
            assert_eq!(scale_and_seed_from_env().1, 42);
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
}
