//! The paper's tables and figures, one module each.
//!
//! A figure is a pure function of its [`Scale`] and seed: `run` returns
//! the figure's text. The only environment it sees is the worker cap
//! (`MUDI_THREADS`) of its pooled runs, which the text does not depend
//! on. Host timings, which differ from run to run, go to stderr. The
//! `figures` binary prints figures by id, and `tests/golden_snapshots.rs`
//! checks every one in [`ALL`] at reduced scale against
//! `tests/golden/figures/<id>.txt`.

use crate::{parse_flags, Scale};

/// One entry of [`ALL`].
pub struct Figure {
    /// The figure's id, also its module's name.
    pub id: &'static str,
    /// Renders the figure at a scale and seed.
    pub run: fn(Scale, u64) -> String,
}

pub mod fig01_traces;
pub mod fig02_training_traces;
pub mod fig03_inf_inf_interference;
pub mod fig04_inf_train_interference;
pub mod fig05_latency_curves;
pub mod fig07_architectures;
pub mod fig08_slo_violations;
pub mod fig09_training_efficiency;
pub mod fig10_utilization;
pub mod fig11_model_accuracy;
pub mod fig12_incremental;
pub mod fig13_ablation;
pub mod fig14_max_throughput;
pub mod fig15_load_sensitivity;
pub mod fig16_bursty;
pub mod fig17_mudi_more;
pub mod fig18_overheads;
pub mod fig19_failures;
pub mod fig20_correlated_failures;
pub mod fig21_warm_standby;
pub mod fig23_llm_mix;
pub mod sec54_optimality;
pub mod tab02_fitting_error;
pub mod tab04_swap_fraction;

macro_rules! fig {
    ($id:ident) => {
        Figure {
            id: stringify!($id),
            run: $id::run,
        }
    };
}

/// Every figure, in id order.
pub const ALL: &[Figure] = &[
    fig!(fig01_traces),
    fig!(fig02_training_traces),
    fig!(fig03_inf_inf_interference),
    fig!(fig04_inf_train_interference),
    fig!(fig05_latency_curves),
    fig!(fig07_architectures),
    fig!(fig08_slo_violations),
    fig!(fig09_training_efficiency),
    fig!(fig10_utilization),
    fig!(fig11_model_accuracy),
    fig!(fig12_incremental),
    fig!(fig13_ablation),
    fig!(fig14_max_throughput),
    fig!(fig15_load_sensitivity),
    fig!(fig16_bursty),
    fig!(fig17_mudi_more),
    fig!(fig18_overheads),
    fig!(fig19_failures),
    fig!(fig20_correlated_failures),
    fig!(fig21_warm_standby),
    fig!(fig23_llm_mix),
    fig!(sec54_optimality),
    fig!(tab02_fitting_error),
    fig!(tab04_swap_fraction),
];

/// The `figures` binary's arguments: the figures named, in order, and
/// whether `--trace` was given. An unknown argument or an empty id list
/// is an error.
pub fn parse_args(
    args: impl IntoIterator<Item = String>,
) -> Result<(Vec<&'static Figure>, bool), String> {
    let flags: Vec<&'static str> = ALL.iter().map(|f| f.id).chain(["--trace"]).collect();
    let given = parse_flags(args, &flags).map_err(|bad| format!("unknown argument {bad:?}"))?;
    let figures: Vec<&'static Figure> = given
        .iter()
        .filter_map(|&id| ALL.iter().find(|f| f.id == id))
        .collect();
    if figures.is_empty() {
        return Err("no figure id given".to_string());
    }
    Ok((figures, given.contains(&"--trace")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(String, bool), String> {
        let (figures, trace) = parse_args(args.iter().map(|a| a.to_string()))?;
        let ids: Vec<&str> = figures.iter().map(|f| f.id).collect();
        Ok((ids.join(" "), trace))
    }

    #[test]
    fn parser_accepts_ids_and_trace_only() {
        assert_eq!(parse(&["fig01_traces"]), Ok(("fig01_traces".into(), false)));
        let two = Ok(("tab04_swap_fraction fig01_traces".into(), true));
        assert_eq!(
            parse(&["tab04_swap_fraction", "--trace", "fig01_traces"]),
            two
        );
        assert!(parse(&["fig06_unknown"]).is_err());
        assert!(parse(&["fig01_traces", "--help"]).is_err());
        assert!(parse(&[]).is_err());
        assert!(parse(&["--trace"]).is_err());
        assert!(parse(&["perf_kernel"]).is_err());
    }
}
