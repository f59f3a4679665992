//! Prints the paper's tables and figures by id (see DESIGN.md's
//! experiment index, or `bench::fig::ALL`):
//!
//! ```text
//! cargo run --release -p bench --bin figures -- fig08_slo_violations fig09_training_efficiency
//! ```
//!
//! `MUDI_FULL_SCALE=1` runs at the paper's scale and `MUDI_SEED=<n>`
//! changes the seed (42). `--trace` records each engine run's events
//! and dumps its trace summary to stderr, as `MUDI_TRACE=1` does. Each
//! figure's text is followed by the table of the paper claims it judges.

use bench::{claim, fig, scale_and_seed_from_env, usage_exit};

fn main() {
    let (figures, trace) = fig::parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        let ids: Vec<&str> = fig::ALL.iter().map(|f| f.id).collect();
        let usage = format!("[--trace] <id>...\nids: {}", ids.join(" "));
        usage_exit("figures", &e, &usage)
    });
    if trace {
        std::env::set_var("MUDI_TRACE", "1");
    }
    let (scale, seed) = scale_and_seed_from_env();
    for figure in figures {
        let report = (figure.run)(scale, seed);
        print!("{}", report.text);
        if !report.claims.is_empty() {
            print!(
                "\n{}",
                claim::table(report.claims.iter().map(|c| (figure.id, c)))
            );
        }
    }
}
