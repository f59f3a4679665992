//! Cross-validated model selection.
//!
//! The Interference Modeler "determines the optimal model as the learner
//! for each metric in Y individually" (§4.1.2). [`select_best_model`]
//! runs k-fold cross validation over every [`RegressorKind`] and returns
//! the winner trained on the full dataset.

use simcore::SimRng;

use crate::eval::{kfold_indices, mae};
use crate::regressor::{Dataset, Regressor, RegressorKind};

/// Outcome of model selection for one target metric.
pub struct SelectionReport {
    /// The winning model, trained on the full dataset.
    pub model: Box<dyn Regressor>,
    /// The winning kind.
    pub kind: RegressorKind,
    /// Cross-validation mean absolute error per candidate kind.
    pub cv_errors: Vec<(RegressorKind, f64)>,
}

impl std::fmt::Debug for SelectionReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SelectionReport")
            .field("kind", &self.kind)
            .field("cv_errors", &self.cv_errors)
            .finish()
    }
}

/// Selects the best regressor for the dataset by k-fold cross
/// validation on mean absolute error.
///
/// Only finite CV errors are ranked and reported: a NaN or infinite
/// target can poison any learner's error. Ties go to the first kind in
/// [`RegressorKind::ALL`] order (`min_by` keeps the first minimum).
/// Falls back to leave-none-out training (no CV) when the dataset is
/// smaller than `folds` or no error is finite; then the first kind in
/// `ALL` order that trains wins. Returns `None` when no candidate can
/// be trained at all.
pub fn select_best_model(
    data: &Dataset,
    folds: usize,
    rng: &mut SimRng,
) -> Option<SelectionReport> {
    if data.is_empty() {
        return None;
    }
    let mut cv_errors = Vec::new();

    if data.len() >= folds.max(2) {
        let splits = kfold_indices(data.len(), folds.max(2));
        for kind in RegressorKind::ALL {
            if let Some(err) = cross_validate(kind, data, &splits, rng).filter(|e| e.is_finite()) {
                cv_errors.push((kind, err));
            }
        }
    }

    let (kind, model) = match cv_errors.iter().min_by(|a, b| a.1.total_cmp(&b.1)) {
        Some(&(kind, _)) => (kind, kind.train(data, &mut rng.fork("final"))?),
        // Tiny dataset or no finite error: the first kind that trains.
        None => RegressorKind::ALL
            .into_iter()
            .find_map(|k| Some((k, k.train(data, &mut rng.fork("final"))?)))?,
    };
    Some(SelectionReport {
        model,
        kind,
        cv_errors,
    })
}

/// Cross-validation mean absolute error of one kind over the given
/// `(train, test)` index splits, or `None` when a fold cannot train.
pub fn cross_validate(
    kind: RegressorKind,
    data: &Dataset,
    splits: &[(Vec<usize>, Vec<usize>)],
    rng: &SimRng,
) -> Option<f64> {
    let mut pairs = Vec::new();
    for (train_idx, test_idx) in splits {
        let model = kind.train(&data.subset(train_idx), &mut rng.fork("cv"))?;
        for &i in test_idx {
            pairs.push((model.predict(&data.features[i]), data.targets[i]));
        }
    }
    Some(mae(pairs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_data_prefers_low_error_model() {
        let mut d = Dataset::new();
        for i in 0..40 {
            let x = i as f64 * 0.5;
            d.push(vec![x, x * 0.1], 4.0 * x + 2.0);
        }
        let mut rng = SimRng::seed(1);
        let report = select_best_model(&d, 4, &mut rng).unwrap();
        // Whatever wins must predict the affine function well.
        let pred = report.model.predict(&[10.0, 1.0]);
        assert!(
            (pred - 42.0).abs() < 3.0,
            "pred {pred} by {:?}",
            report.kind
        );
        assert!(!report.cv_errors.is_empty());
    }

    #[test]
    fn piecewise_data_prefers_tree_like_model() {
        let mut d = Dataset::new();
        let mut rng = SimRng::seed(2);
        for _ in 0..120 {
            let x = rng.uniform(0.0, 10.0);
            d.push(vec![x], if x < 5.0 { 1.0 } else { 9.0 });
        }
        let report = select_best_model(&d, 4, &mut rng).unwrap();
        // The winner must capture the step; linear regression cannot.
        assert!(report.model.predict(&[1.0]) < 3.5);
        assert!(report.model.predict(&[9.0]) > 6.5);
        assert_ne!(report.kind, RegressorKind::Ridge);
    }

    #[test]
    fn tiny_dataset_falls_back() {
        let mut d = Dataset::new();
        d.push(vec![1.0], 2.0);
        d.push(vec![2.0], 4.0);
        let mut rng = SimRng::seed(3);
        let report = select_best_model(&d, 5, &mut rng).unwrap();
        assert!(report.cv_errors.is_empty());
        let _ = report.model.predict(&[1.5]);
    }

    #[test]
    fn nan_target_ranks_only_finite_errors() {
        let mut d = Dataset::new();
        for i in 0..24 {
            d.push(vec![i as f64, (i % 3) as f64], i as f64 * 0.5);
        }
        d.targets[7] = f64::NAN;
        let mut rng = SimRng::seed(6);
        let report = select_best_model(&d, 4, &mut rng).expect("a kind still trains");
        assert!(
            report.cv_errors.iter().all(|(_, e)| e.is_finite()),
            "{:?}",
            report.cv_errors
        );

        // No finite error at all: fall back as for a tiny dataset.
        d.targets.fill(f64::NAN);
        let report = select_best_model(&d, 4, &mut rng).expect("a kind still trains");
        assert!(report.cv_errors.is_empty(), "{:?}", report.cv_errors);
    }

    #[test]
    fn cv_ties_go_to_the_first_kind() {
        // A constant zero target, like BERT's and RoBERTa's Δ0 at seed
        // 1: every learner fits it exactly, so the first kind wins.
        let mut d = Dataset::new();
        for i in 0..20 {
            d.push(vec![i as f64, (i % 4) as f64], 0.0);
        }
        let report = select_best_model(&d, 4, &mut SimRng::seed(7)).unwrap();
        let errors: Vec<f64> = report.cv_errors.iter().map(|&(_, e)| e).collect();
        assert_eq!(errors, [0.0; RegressorKind::ALL.len()]);
        assert_eq!(report.kind, RegressorKind::RandomForest);
    }

    #[test]
    fn empty_dataset_rejected() {
        let mut rng = SimRng::seed(4);
        assert!(select_best_model(&Dataset::new(), 3, &mut rng).is_none());
    }

    #[test]
    fn cv_errors_cover_all_kinds_on_adequate_data() {
        let mut d = Dataset::new();
        for i in 0..50 {
            d.push(vec![i as f64, (i * i) as f64 * 0.01], (i % 5) as f64);
        }
        let mut rng = SimRng::seed(5);
        let report = select_best_model(&d, 5, &mut rng).unwrap();
        assert_eq!(report.cv_errors.len(), RegressorKind::ALL.len());
    }
}
