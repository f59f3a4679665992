//! Consolidated environment-variable parsing.
//!
//! Every `MUDI_*` knob in the workspace is read through these helpers,
//! so the accepted spellings stay consistent across crates:
//!
//! | variable             | helper        | meaning                                        |
//! |----------------------|---------------|------------------------------------------------|
//! | `MUDI_TRACE`         | [`flag`]      | enable tracing; `run_to_end` dumps to stderr   |
//! | `MUDI_THREADS`       | [`parse`]     | worker-pool cap (never changes a number)       |
//! | `MUDI_FULL_SCALE`    | [`flag`]      | paper-scale benches                            |
//! | `MUDI_BLESS`         | [`flag`]      | re-record golden snapshots                     |
//! | `MUDI_SEED`          | [`parse_or`]  | experiment seed                                |
//! | `MUDI_BENCH_NO_GATE` | [`flag`]      | bench gates report regressions, do not fail    |
//! | `MUDI_SERVE_ADDR`    | [`string_or`] | control-plane listen address                   |
//! | `MUDI_SERVE_PACE`    | [`parse_or`]  | sim-seconds per wall-second (`0` = frozen)     |
//! | `MUDI_SERVE_SEED`    | [`parse_or`]  | `mudi-serve` simulation seed (default 7)       |
//! | `MUDI_SERVE_PRESET`  | [`string_or`] | `mudi-serve` preset, `tiny` or `physical`      |
//! | `MUDI_SERVE_LLM`     | [`parse_or`]  | nonzero adds the generative services to `mudi-serve` |
//!
//! Boolean flags accept `1` or `true` (anything else is off), numeric
//! values fall back to their default when unset or unparseable, and
//! whitespace is trimmed everywhere — the exact semantics the scattered
//! call sites had before they were consolidated here.

use std::str::FromStr;

/// The raw value of `name`, if set (no trimming — callers that need the
/// verbatim value, e.g. path-like settings, go through this).
pub fn string(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

/// The value of `name`, or `default` when unset.
pub fn string_or(name: &str, default: &str) -> String {
    string(name).unwrap_or_else(|| default.to_string())
}

/// Boolean flag: `true` iff `name` is set to `1` or `true` (trimmed).
pub fn flag(name: &str) -> bool {
    string(name).is_some_and(|v| {
        let v = v.trim();
        v == "1" || v == "true"
    })
}

/// Parses `name` as a `T`, returning `None` when unset or unparseable
/// (the value is trimmed first).
pub fn parse<T: FromStr>(name: &str) -> Option<T> {
    string(name).and_then(|v| v.trim().parse().ok())
}

/// Parses `name` as a `T`, falling back to `default` when unset or
/// unparseable.
pub fn parse_or<T: FromStr>(name: &str, default: T) -> T {
    parse(name).unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each test uses its own variable name: the process environment is
    // shared across concurrently running tests.

    #[test]
    fn flag_accepts_1_and_true_only() {
        let k = "MUDI_TEST_ENV_FLAG";
        assert!(!flag(k));
        for (v, want) in [
            ("1", true),
            ("true", true),
            (" 1 ", true),
            ("0", false),
            ("yes", false),
            ("TRUE", false),
            ("", false),
        ] {
            std::env::set_var(k, v);
            assert_eq!(flag(k), want, "value {v:?}");
        }
        std::env::remove_var(k);
    }

    #[test]
    fn parse_trims_and_rejects_garbage() {
        let k = "MUDI_TEST_ENV_PARSE";
        assert_eq!(parse::<usize>(k), None);
        std::env::set_var(k, " 8 ");
        assert_eq!(parse::<usize>(k), Some(8));
        std::env::set_var(k, "eight");
        assert_eq!(parse::<usize>(k), None);
        std::env::set_var(k, "2.5");
        assert_eq!(parse::<f64>(k), Some(2.5));
        std::env::remove_var(k);
    }

    #[test]
    fn parse_or_falls_back() {
        let k = "MUDI_TEST_ENV_PARSE_OR";
        assert_eq!(parse_or(k, 42u64), 42);
        std::env::set_var(k, "7");
        assert_eq!(parse_or(k, 42u64), 7);
        std::env::set_var(k, "x");
        assert_eq!(parse_or(k, 42u64), 42);
        std::env::remove_var(k);
    }

    #[test]
    fn string_or_defaults() {
        let k = "MUDI_TEST_ENV_STRING";
        assert_eq!(string(k), None);
        assert_eq!(string_or(k, "fallback"), "fallback");
        std::env::set_var(k, "value");
        assert_eq!(string_or(k, "fallback"), "value");
        std::env::remove_var(k);
    }
}
