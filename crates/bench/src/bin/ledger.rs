//! Measures every row of the kernel performance ledger
//! ([`bench::ledger`]) and checks its fingerprint and counters against
//! `tests/golden/ledger.txt`:
//!
//! ```text
//! cargo run --release -p bench --bin ledger -- [--gate] [--record]
//! ```
//!
//! Every run also asserts that the rows of each grid share one
//! fingerprint, and that the 100k-device 4-worker cell's parallel
//! speedup reaches 2x. `--record` writes the fresh rows to
//! `BENCH_ledger.json` at the repo root; no other run writes it.
//! `--gate` then fails on a >20% drop in any row's steps per second or
//! parallel speedup from the committed ledger, and names the rows that
//! have no committed record (`MUDI_BENCH_NO_GATE=1` reports and
//! continues on a noisy runner). `MUDI_BLESS=1` re-records the golden
//! lines of every row after the grid check. Any other argument exits
//! with status 2 and a usage line before any work.

use bench::ledger;

const LEDGER_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ledger.json");
const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/ledger.txt");

fn main() {
    let flags = bench::flags_or_exit("ledger", &["--gate", "--record"]);
    // The gate's reference, read before `--record` overwrites it.
    let reference = std::fs::read_to_string(LEDGER_PATH).unwrap_or_default();

    let rows: Vec<ledger::Row> = ledger::table()
        .iter()
        .map(|spec| {
            let row = ledger::measure(spec);
            println!("{row}");
            row
        })
        .collect();

    ledger::assert_grid(&rows);
    let recorded = std::fs::read_to_string(GOLDEN_PATH).unwrap_or_default();
    let fresh = ledger::golden_text(&recorded, &rows);
    if simcore::env::flag("MUDI_BLESS") {
        std::fs::write(GOLDEN_PATH, &fresh).expect("write tests/golden/ledger.txt");
        println!("\ngolden lines recorded in tests/golden/ledger.txt");
    } else {
        assert!(
            fresh == recorded,
            "ledger rows drifted from tests/golden/ledger.txt.\n\
             If the change is intentional, re-record with MUDI_BLESS=1.\n\
             --- expected ---\n{recorded}--- actual ---\n{fresh}"
        );
        println!("\nevery row matches tests/golden/ledger.txt");
    }

    if flags.contains(&"--record") {
        std::fs::write(LEDGER_PATH, ledger::render(&rows)).expect("write BENCH_ledger.json");
        println!("ledger written to BENCH_ledger.json");
    }

    let (target, floor) = ledger::SPEEDUP_TARGET;
    let row = rows.iter().find(|r| r.name == target).expect("target row");
    let speedup = row.parallel_speedup();
    println!(
        "{target} parallel speedup: {speedup:.2}x (lane fraction {:.1}%)",
        100.0 * row.lane_fraction()
    );
    assert!(
        speedup >= floor,
        "{target} parallel speedup {speedup:.2}x below the {floor}x target"
    );

    if flags.contains(&"--gate") {
        for row in &rows {
            if ledger::committed(&reference, &row.name).is_none() {
                println!("ungated (no committed row): {}", row.name);
            }
        }
        verdict(&ledger::gate(&reference, &rows));
    }
}

/// Prints the gate's verdict over its `failures`. An empty list passes.
/// Otherwise the process exits with status 1, unless
/// `MUDI_BENCH_NO_GATE=1` asks to report and continue (a noisy runner).
fn verdict(failures: &[String]) {
    if failures.is_empty() {
        println!("ledger gate: no row regressed >20% from the committed ledger");
    } else if simcore::env::flag("MUDI_BENCH_NO_GATE") {
        println!("ledger gate: regressions ignored (MUDI_BENCH_NO_GATE=1):");
        for f in failures {
            println!("  {f}");
        }
    } else {
        eprintln!("ledger gate: regressed >20% from the committed ledger:");
        for f in failures {
            eprintln!("  {f}");
        }
        eprintln!("(set MUDI_BENCH_NO_GATE=1 to bypass on a noisy runner)");
        std::process::exit(1);
    }
}
