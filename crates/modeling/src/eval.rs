//! Error metrics and dataset-splitting helpers.

/// Mean absolute percentage error over `(predicted, actual)` pairs, in
/// percent. Pairs whose actual value is (near) zero are skipped.
pub fn mape(pairs: impl IntoIterator<Item = (f64, f64)>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0u32;
    for (pred, actual) in pairs {
        if actual.abs() < 1e-12 {
            continue;
        }
        sum += ((pred - actual) / actual).abs();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        100.0 * sum / n as f64
    }
}

/// The paper's prediction-error metric (§7.3):
/// `|y_pred − y_true| / |y_true|`, as a fraction (not percent).
pub fn relative_error(pred: f64, actual: f64) -> f64 {
    if actual.abs() < 1e-12 {
        pred.abs()
    } else {
        (pred - actual).abs() / actual.abs()
    }
}

/// Mean absolute error over `(predicted, actual)` pairs.
pub fn mae(pairs: impl IntoIterator<Item = (f64, f64)>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0u32;
    for (pred, actual) in pairs {
        sum += (pred - actual).abs();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Yields `(train_indices, test_indices)` for `k`-fold cross validation
/// over `n` items, in deterministic order.
///
/// # Panics
///
/// Panics if `k < 2` or `n < k`.
pub fn kfold_indices(n: usize, k: usize) -> Vec<(Vec<usize>, Vec<usize>)> {
    assert!(k >= 2, "k-fold needs k >= 2");
    assert!(n >= k, "k-fold needs n >= k");
    let mut folds = Vec::with_capacity(k);
    for fold in 0..k {
        let test: Vec<usize> = (0..n).filter(|i| i % k == fold).collect();
        let train: Vec<usize> = (0..n).filter(|i| i % k != fold).collect();
        folds.push((train, test));
    }
    folds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mape_basic() {
        let m = mape([(110.0, 100.0), (90.0, 100.0)]);
        assert!((m - 10.0).abs() < 1e-12);
    }

    #[test]
    fn mape_skips_zero_actuals() {
        let m = mape([(5.0, 0.0), (110.0, 100.0)]);
        assert!((m - 10.0).abs() < 1e-12);
        assert_eq!(mape([(5.0, 0.0)]), 0.0);
    }

    #[test]
    fn relative_error_basic() {
        assert!((relative_error(1.2, 1.0) - 0.2).abs() < 1e-12);
        assert_eq!(relative_error(0.5, 0.0), 0.5);
    }

    #[test]
    fn mae_basic() {
        let pairs = [(1.0, 0.0), (0.0, 1.0)];
        assert!((mae(pairs) - 1.0).abs() < 1e-12);
        assert_eq!(mae([]), 0.0);
    }

    #[test]
    fn kfold_partitions_everything() {
        let folds = kfold_indices(10, 3);
        assert_eq!(folds.len(), 3);
        for (train, test) in &folds {
            assert_eq!(train.len() + test.len(), 10);
            let mut all: Vec<usize> = train.iter().chain(test.iter()).copied().collect();
            all.sort_unstable();
            assert_eq!(all, (0..10).collect::<Vec<_>>());
        }
    }

    #[test]
    #[should_panic(expected = "k-fold needs n >= k")]
    fn kfold_rejects_small_n() {
        let _ = kfold_indices(2, 3);
    }
}
