//! The paper's claims as computed values.
//!
//! A figure returns a [`Report`]: its text and the claims its runs
//! judge. A claim names what the paper says, what the run measured, and
//! whether the run bears the paper out. `cargo test` pins every figure's
//! claims as one [`table`] in `tests/golden/paper_claims.txt`, which
//! EXPERIMENTS.md embeds.

/// How far a measured magnitude (or a ratio's excess over 1) may sit
/// from the paper's, as a factor either way, and still reproduce it. The numbers come from a simulator
/// calibrated to the paper's testbed, not from that testbed, so a figure
/// targets the paper's shape: who wins, and by roughly what factor. Two
/// is what "roughly" means here; a tighter factor would judge the
/// calibration, not the reproduction. It is one constant for every
/// claim, so no claim can be made to hold by a tolerance of its own.
pub const WITHIN_FACTOR: f64 = 2.0;

/// What a figure renders: its text and the paper claims it judges.
pub struct Report {
    pub text: String,
    pub claims: Vec<Claim>,
}

/// One paper claim, judged against a run. Its name is unique within
/// its figure.
#[derive(Debug)]
pub struct Claim {
    pub name: String,
    pub measured: String,
    pub paper: String,
    pub holds: bool,
}

impl Claim {
    /// A magnitude: holds when `measured / paper` lies in
    /// [1 / [`WITHIN_FACTOR`], [`WITHIN_FACTOR`]], so never for a NaN,
    /// zero or negative measurement. `paper` must be positive.
    pub fn within(name: impl Into<String>, measured: f64, paper: f64, unit: &str) -> Claim {
        assert!(paper > 0.0, "paper magnitude {paper} must be positive");
        let holds = (1.0 / WITHIN_FACTOR..=WITHIN_FACTOR).contains(&(measured / paper));
        Claim::ordering(name, shown(measured, unit), &shown(paper, unit), holds)
    }

    /// A paper ratio "A is `paper` times B": holds when A's excess over B,
    /// `measured - 1`, is within [`WITHIN_FACTOR`] of the paper's,
    /// `paper - 1`. A ratio on the other side of 1 from the paper's is
    /// the opposite claim, so it never holds, however close to 1 both
    /// are; nor does a NaN, zero or negative one. `paper` must be
    /// positive and not 1.
    pub fn ratio(name: impl Into<String>, measured: f64, paper: f64) -> Claim {
        assert!(
            paper > 0.0 && paper != 1.0,
            "paper ratio {paper} must be positive, not 1"
        );
        let excess = (measured - 1.0) / (paper - 1.0);
        let holds = measured > 0.0 && (1.0 / WITHIN_FACTOR..=WITHIN_FACTOR).contains(&excess);
        Claim::ordering(name, shown(measured, "x"), &shown(paper, "x"), holds)
    }

    /// A bound: holds when `measured` is at most `bound`, so never for a
    /// NaN.
    pub fn at_most(name: impl Into<String>, measured: f64, bound: f64, unit: &str) -> Claim {
        let paper = format!("≤ {}", shown(bound, unit));
        Claim::ordering(name, shown(measured, unit), &paper, measured <= bound)
    }

    /// [`Claim::at_most`] for a lower bound.
    pub fn at_least(name: impl Into<String>, measured: f64, bound: f64, unit: &str) -> Claim {
        let paper = format!("≥ {}", shown(bound, unit));
        Claim::ordering(name, shown(measured, unit), &paper, measured >= bound)
    }

    /// A claim about every case: holds when all `total` cases do.
    pub fn every(name: impl Into<String>, hits: usize, total: usize) -> Claim {
        Claim::ordering(name, format!("{hits} of {total}"), "all", hits == total)
    }

    /// An ordering ("Mudi lowest", "falls with samples"): what the run
    /// shows, what the paper says, and whether the two agree.
    pub fn ordering(name: impl Into<String>, measured: String, paper: &str, holds: bool) -> Claim {
        let (name, paper) = (name.into(), paper.to_string());
        Claim {
            name,
            measured,
            paper,
            holds,
        }
    }

    /// Holds when `expected` has the lowest value of `rows`, and names
    /// the row that has (the first, on a tie).
    pub fn lowest<'a>(
        name: impl Into<String>,
        expected: &str,
        rows: impl IntoIterator<Item = (&'a str, f64)>,
    ) -> Claim {
        let lowest = rows.into_iter().min_by(|a, b| a.1.total_cmp(&b.1));
        let lowest = lowest.map_or("-", |row| row.0);
        Claim::ordering(name, lowest.to_string(), expected, lowest == expected)
    }

    /// [`Claim::lowest`] for the highest value.
    pub fn highest<'a>(
        name: impl Into<String>,
        expected: &str,
        rows: impl IntoIterator<Item = (&'a str, f64)>,
    ) -> Claim {
        Claim::lowest(name, expected, rows.into_iter().map(|(n, v)| (n, -v)))
    }
}

fn shown(value: f64, unit: &str) -> String {
    format!("{value:.3}{unit}")
}

/// Renders claims as one markdown table, each row led by its figure's id.
pub fn table<'a>(claims: impl IntoIterator<Item = (&'a str, &'a Claim)>) -> String {
    let mut out = String::from("| Figure | Claim | Measured | Paper | Holds |\n");
    out += "|---|---|---|---|---|\n";
    for (figure, c) in claims {
        let (name, measured, paper) = (&c.name, &c.measured, &c.paper);
        let holds = if c.holds { "✅" } else { "❌" };
        out += &format!("| {figure} | {name} | {measured} | {paper} | {holds} |\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn within_holds_at_exactly_the_factor() {
        for paper in [0.23, 1.0, 60_000.0] {
            assert!(Claim::within("x", paper * WITHIN_FACTOR, paper, "").holds);
            assert!(Claim::within("x", paper / WITHIN_FACTOR, paper, "").holds);
            assert!(!Claim::within("x", paper * WITHIN_FACTOR * 1.001, paper, "").holds);
            assert!(!Claim::within("x", paper / WITHIN_FACTOR / 1.001, paper, "").holds);
        }
    }

    #[test]
    fn ratio_judges_the_excess_over_one() {
        for paper in [1.03, 1.65, 4.0] {
            let excess = paper - 1.0;
            assert!(Claim::ratio("x", 1.0 + excess * WITHIN_FACTOR, paper).holds);
            assert!(Claim::ratio("x", 1.0 + excess / WITHIN_FACTOR, paper).holds);
            assert!(!Claim::ratio("x", 1.0 + excess * WITHIN_FACTOR * 1.001, paper).holds);
            assert!(!Claim::ratio("x", 1.0 + excess / WITHIN_FACTOR / 1.001, paper).holds);
            // The other side of 1 is the opposite claim.
            assert!(!Claim::ratio("x", 1.0, paper).holds);
            assert!(!Claim::ratio("x", 1.0 - excess / 2.0, paper).holds);
        }
        assert!(Claim::ratio("x", 0.7, 0.6).holds);
        assert!(!Claim::ratio("x", 1.2, 0.6).holds);
    }

    #[test]
    fn no_claim_holds_for_nan_zero_or_negative() {
        for measured in [f64::NAN, 0.0, -0.0, -1.0, f64::NEG_INFINITY, f64::INFINITY] {
            assert!(!Claim::within("x", measured, 1.0, "").holds, "{measured}");
            for paper in [0.4, 1.5] {
                assert!(!Claim::ratio("x", measured, paper).holds, "{measured}");
            }
        }
        assert!(!Claim::at_most("x", f64::NAN, 1.0, "").holds);
        assert!(!Claim::at_least("x", f64::NAN, 1.0, "").holds);
    }

    #[test]
    fn lowest_and_highest_name_the_extreme_row() {
        let rows = [("GSLICE", 0.03), ("Mudi", 0.08), ("MuxFlow", 2.88)];
        let low = Claim::lowest("x", "Mudi", rows);
        assert_eq!((low.measured.as_str(), low.holds), ("GSLICE", false));
        assert!(Claim::highest("x", "MuxFlow", rows).holds);
        let row = "| fig08 | x | GSLICE | Mudi | ❌ |\n";
        assert!(table([("fig08", &low)]).ends_with(&format!("---|\n{row}")));
    }
}
