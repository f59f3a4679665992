//! Common interface for the Interference Modeler's lightweight learners.
//!
//! The paper (§4.1.2) trains "lightweight models such as random forest
//! (RF), support vector regression (SVR), etc." and picks the best one
//! per output metric. [`Regressor`] is the shared training/prediction
//! interface; [`RegressorKind`] enumerates and constructs them.

use simcore::SimRng;

use crate::forest::RandomForest;
use crate::knn::KnnRegressor;
use crate::linear::RidgeRegression;
use crate::svr::SvrRegressor;

/// A supervised regression dataset: one feature row per target value.
#[derive(Clone, Debug, Default)]
pub struct Dataset {
    /// Feature rows (all the same length).
    pub features: Vec<Vec<f64>>,
    /// Target values, one per row.
    pub targets: Vec<f64>,
}

impl Dataset {
    /// Creates an empty dataset.
    pub fn new() -> Self {
        Dataset::default()
    }

    /// Appends one example.
    ///
    /// # Panics
    ///
    /// Panics if the feature width differs from previous rows.
    pub fn push(&mut self, features: Vec<f64>, target: f64) {
        if let Some(first) = self.features.first() {
            assert_eq!(first.len(), features.len(), "inconsistent feature width");
        }
        self.features.push(features);
        self.targets.push(target);
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Returns `true` when there are no examples.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Feature dimensionality (0 when empty).
    pub fn width(&self) -> usize {
        self.features.first().map_or(0, Vec::len)
    }

    /// Selects a subset of examples by index.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        Dataset {
            features: indices.iter().map(|&i| self.features[i].clone()).collect(),
            targets: indices.iter().map(|&i| self.targets[i]).collect(),
        }
    }
}

/// A trained regression model.
pub trait Regressor: Send + Sync {
    /// Predicts the target for one feature row.
    fn predict(&self, features: &[f64]) -> f64;

    /// A short human-readable name, e.g. for Fig. 11's per-metric labels.
    fn name(&self) -> &'static str;
}

/// The lightweight learners the Interference Modeler tries. Not MLP:
/// it cost most of the fit's CV CPU for a handful of wins
/// (EXPERIMENTS.md, "Dropping MLP from the fit").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RegressorKind {
    /// Random forest regression.
    RandomForest,
    /// Support-vector regression (kernel ridge form, RBF kernel).
    Svr,
    /// k-nearest-neighbors regression.
    Knn,
    /// Ridge linear regression.
    Ridge,
}

impl RegressorKind {
    /// All kinds, in the order candidates are tried and CV ties broken.
    pub const ALL: [RegressorKind; 4] = [
        RegressorKind::RandomForest,
        RegressorKind::Svr,
        RegressorKind::Knn,
        RegressorKind::Ridge,
    ];

    /// Short name as displayed in Fig. 11.
    pub fn name(self) -> &'static str {
        match self {
            RegressorKind::RandomForest => "RF",
            RegressorKind::Svr => "SVR",
            RegressorKind::Knn => "kNN",
            RegressorKind::Ridge => "Ridge",
        }
    }

    /// Trains this kind of model on the dataset.
    ///
    /// Returns `None` when the dataset is too small for the model class.
    /// Whether a kind trains depends on the data alone, never on `rng`.
    pub fn train(self, data: &Dataset, rng: &mut SimRng) -> Option<Box<dyn Regressor>> {
        match self {
            RegressorKind::RandomForest => {
                RandomForest::train(data, 40, 3, rng).map(|m| Box::new(m) as Box<dyn Regressor>)
            }
            RegressorKind::Svr => {
                SvrRegressor::train(data, 1.0, 1e-2).map(|m| Box::new(m) as Box<dyn Regressor>)
            }
            RegressorKind::Knn => {
                KnnRegressor::train(data, 3).map(|m| Box::new(m) as Box<dyn Regressor>)
            }
            RegressorKind::Ridge => {
                RidgeRegression::train(data, 1e-3).map(|m| Box::new(m) as Box<dyn Regressor>)
            }
        }
    }
}

/// Standardization statistics for feature columns.
///
/// Distance- and gradient-based learners (kNN, SVR, MLP, GP) need their
/// inputs on a common scale; [`Standardizer`] remembers per-column mean
/// and standard deviation from training data and applies them at
/// prediction time.
#[derive(Clone, Debug, Default)]
pub struct Standardizer {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl Standardizer {
    /// Fits column statistics on the dataset's features.
    pub fn fit(rows: &[Vec<f64>]) -> Self {
        let width = rows.first().map_or(0, Vec::len);
        let n = rows.len().max(1) as f64;
        let mut means = vec![0.0; width];
        for row in rows {
            for (m, &x) in means.iter_mut().zip(row) {
                *m += x / n;
            }
        }
        let mut stds = vec![0.0; width];
        for row in rows {
            for ((s, &m), &x) in stds.iter_mut().zip(&means).zip(row) {
                *s += (x - m) * (x - m) / n;
            }
        }
        for s in &mut stds {
            *s = s.sqrt().max(1e-9);
        }
        Standardizer { means, stds }
    }

    /// Reserves per-feature buffers for refits up to `width` features.
    pub fn reserve(&mut self, width: usize) {
        self.means.reserve(width.saturating_sub(self.means.len()));
        self.stds.reserve(width.saturating_sub(self.stds.len()));
    }

    /// Refits the column statistics in place from flat row-major data
    /// with `width` columns, reusing the existing buffers. Replays the
    /// exact [`Standardizer::fit`] arithmetic (same accumulation
    /// order), so the results are bit-identical to a fresh fit on the
    /// equivalent nested rows.
    pub fn refit_flat(&mut self, xs: &[f64], width: usize) {
        self.means.clear();
        self.means.resize(width, 0.0);
        self.stds.clear();
        self.stds.resize(width, 0.0);
        if width == 0 {
            return;
        }
        let n = (xs.len() / width).max(1) as f64;
        for row in xs.chunks_exact(width) {
            for (m, &x) in self.means.iter_mut().zip(row) {
                *m += x / n;
            }
        }
        for row in xs.chunks_exact(width) {
            for ((s, &m), &x) in self.stds.iter_mut().zip(&self.means).zip(row) {
                *s += (x - m) * (x - m) / n;
            }
        }
        for s in &mut self.stds {
            *s = s.sqrt().max(1e-9);
        }
    }

    /// Standardizes flat row-major data (`width` columns) into a
    /// caller-supplied buffer, row by row.
    pub fn apply_flat_into(&self, xs: &[f64], width: usize, out: &mut Vec<f64>) {
        out.clear();
        if width == 0 {
            return;
        }
        for row in xs.chunks_exact(width) {
            out.extend(
                row.iter()
                    .zip(self.means.iter().zip(&self.stds))
                    .map(|(&x, (&m, &s))| (x - m) / s),
            );
        }
    }

    /// Standardizes one row into a caller-supplied buffer.
    pub fn apply_into(&self, row: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.extend(
            row.iter()
                .zip(self.means.iter().zip(&self.stds))
                .map(|(&x, (&m, &s))| (x - m) / s),
        );
    }

    /// Standardizes one row.
    pub fn apply(&self, row: &[f64]) -> Vec<f64> {
        row.iter()
            .zip(self.means.iter().zip(&self.stds))
            .map(|(&x, (&m, &s))| (x - m) / s)
            .collect()
    }

    /// Standardizes many rows.
    pub fn apply_all(&self, rows: &[Vec<f64>]) -> Vec<Vec<f64>> {
        rows.iter().map(|r| self.apply(r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_dataset() -> Dataset {
        let mut d = Dataset::new();
        for i in 0..30 {
            let x = i as f64 / 3.0;
            d.push(vec![x, (x * 0.7).sin()], 2.0 * x + 1.0);
        }
        d
    }

    #[test]
    fn dataset_push_and_subset() {
        let d = toy_dataset();
        assert_eq!(d.len(), 30);
        assert_eq!(d.width(), 2);
        let s = d.subset(&[0, 5, 10]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.targets[1], d.targets[5]);
    }

    #[test]
    #[should_panic(expected = "inconsistent feature width")]
    fn dataset_rejects_ragged_rows() {
        let mut d = Dataset::new();
        d.push(vec![1.0, 2.0], 0.0);
        d.push(vec![1.0], 0.0);
    }

    #[test]
    fn all_kinds_train_and_predict() {
        let d = toy_dataset();
        let mut rng = SimRng::seed(1);
        for kind in RegressorKind::ALL {
            let model = kind.train(&d, &mut rng).unwrap_or_else(|| {
                panic!("{} failed to train", kind.name());
            });
            let pred = model.predict(&[5.0, (5.0f64 * 0.7).sin()]);
            assert!(
                (pred - 11.0).abs() < 4.0,
                "{} predicted {pred}, expected ~11",
                kind.name()
            );
        }
    }

    #[test]
    fn kinds_refuse_empty_data() {
        let mut rng = SimRng::seed(2);
        for kind in RegressorKind::ALL {
            assert!(kind.train(&Dataset::new(), &mut rng).is_none());
        }
    }

    #[test]
    fn standardizer_centers_and_scales() {
        let rows = vec![vec![0.0, 10.0], vec![2.0, 30.0], vec![4.0, 50.0]];
        let s = Standardizer::fit(&rows);
        let z = s.apply_all(&rows);
        // Column means should be ~0 after standardization.
        let mean0: f64 = z.iter().map(|r| r[0]).sum::<f64>() / 3.0;
        let mean1: f64 = z.iter().map(|r| r[1]).sum::<f64>() / 3.0;
        assert!(mean0.abs() < 1e-12 && mean1.abs() < 1e-12);
    }
}
