//! Random-forest regression: bootstrap-aggregated CART trees with
//! feature subsampling.
//!
//! The Interference Modeler (§4.1.2) frequently selects RF as the best
//! learner for slope prediction, so this implementation is a faithful
//! small-scale CART: variance-reduction splits, minimum leaf size, and
//! per-split random feature subsets.

use simcore::SimRng;

use crate::regressor::{Dataset, Regressor};

/// One node of a regression tree.
#[derive(Clone, Debug)]
enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

impl Node {
    fn predict(&self, x: &[f64]) -> f64 {
        match self {
            Node::Leaf { value } => *value,
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                if x[*feature] <= *threshold {
                    left.predict(x)
                } else {
                    right.predict(x)
                }
            }
        }
    }

    fn depth(&self) -> usize {
        match self {
            Node::Leaf { .. } => 1,
            Node::Split { left, right, .. } => 1 + left.depth().max(right.depth()),
        }
    }
}

/// A bagged ensemble of regression trees.
#[derive(Clone, Debug)]
pub struct RandomForest {
    trees: Vec<Node>,
}

impl RandomForest {
    /// Trains `n_trees` trees with `min_leaf` minimum samples per leaf.
    ///
    /// Returns `None` for an empty dataset.
    pub fn train(
        data: &Dataset,
        n_trees: usize,
        min_leaf: usize,
        rng: &mut SimRng,
    ) -> Option<Self> {
        if data.is_empty() || n_trees == 0 {
            return None;
        }
        let n = data.len();
        let width = data.width();
        // Regression forests use all features per split by default (the
        // sklearn convention); diversity comes from bagging alone, which
        // matters for the small feature vectors used here.
        let mtry = width.max(1);
        let mut builder = TreeBuilder {
            data,
            min_leaf: min_leaf.max(1),
            mtry,
            features: Vec::with_capacity(width),
            values: Vec::with_capacity(n),
            spill: Vec::with_capacity(n),
        };
        let mut idx = Vec::with_capacity(n);
        let trees = (0..n_trees)
            .map(|t| {
                let mut tree_rng = rng.fork_indexed("tree", t);
                // Bootstrap sample.
                idx.clear();
                idx.extend((0..n).map(|_| tree_rng.uniform_usize(0, n)));
                builder.build(&mut idx, 0, &mut tree_rng)
            })
            .collect();
        Some(RandomForest { trees })
    }

    /// Number of trees in the ensemble.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Maximum depth across trees (diagnostics).
    pub fn max_depth(&self) -> usize {
        self.trees.iter().map(Node::depth).max().unwrap_or(0)
    }
}

impl Regressor for RandomForest {
    fn predict(&self, features: &[f64]) -> f64 {
        let sum: f64 = self.trees.iter().map(|t| t.predict(features)).sum();
        sum / self.trees.len() as f64
    }

    fn name(&self) -> &'static str {
        "RF"
    }
}

const MAX_DEPTH: usize = 12;

fn mean_of(data: &Dataset, idx: &[usize]) -> f64 {
    idx.iter().map(|&i| data.targets[i]).sum::<f64>() / idx.len() as f64
}

fn sse_of(data: &Dataset, idx: &[usize], mean: f64) -> f64 {
    idx.iter()
        .map(|&i| (data.targets[i] - mean).powi(2))
        .sum::<f64>()
}

/// Grows one forest's trees. Every node refills the buffers before it
/// recurses, so one set serves the whole forest.
struct TreeBuilder<'a> {
    data: &'a Dataset,
    min_leaf: usize,
    mtry: usize,
    features: Vec<usize>,
    /// `(feature value, target)` per sample at the current node.
    values: Vec<(f64, f64)>,
    /// The right child's indices while a node partitions.
    spill: Vec<usize>,
}

impl TreeBuilder<'_> {
    /// Grows the subtree over the samples `idx`, which it reorders in
    /// place: the left child's samples first, then the right child's,
    /// each in their original order, so every sum visits the same
    /// samples in the same order a freshly collected child would.
    fn build(&mut self, idx: &mut [usize], depth: usize, rng: &mut SimRng) -> Node {
        let data = self.data;
        let min_leaf = self.min_leaf;
        let mean = mean_of(data, idx);
        if idx.len() < 2 * min_leaf || depth >= MAX_DEPTH {
            return Node::Leaf { value: mean };
        }
        let parent_sse = sse_of(data, idx, mean);
        if parent_sse < 1e-12 {
            return Node::Leaf { value: mean };
        }

        // Random feature subset for this split.
        self.features.clear();
        self.features.extend(0..data.width());
        rng.shuffle(&mut self.features);
        self.features.truncate(self.mtry);

        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, sse)
        for &f in &self.features {
            let values = &mut self.values;
            values.clear();
            values.extend(idx.iter().map(|&i| (data.features[i][f], data.targets[i])));
            values.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite features"));

            // Prefix sums for O(n) split evaluation.
            let n = values.len();
            let total: f64 = values.iter().map(|v| v.1).sum();
            let total_sq: f64 = values.iter().map(|v| v.1 * v.1).sum();
            let mut left_sum = 0.0;
            let mut left_sq = 0.0;
            for (pos, window) in values.windows(2).enumerate() {
                left_sum += window[0].1;
                left_sq += window[0].1 * window[0].1;
                let left_n = pos + 1;
                let right_n = n - left_n;
                if window[0].0 == window[1].0 {
                    continue; // No split between equal feature values.
                }
                if left_n < min_leaf || right_n < min_leaf {
                    continue;
                }
                let left_mean = left_sum / left_n as f64;
                let right_sum = total - left_sum;
                let right_mean = right_sum / right_n as f64;
                let sse = (left_sq - left_n as f64 * left_mean * left_mean)
                    + ((total_sq - left_sq) - right_n as f64 * right_mean * right_mean);
                let threshold = (window[0].0 + window[1].0) / 2.0;
                if best.is_none_or(|(_, _, b)| sse < b) {
                    best = Some((f, threshold, sse));
                }
            }
        }

        match best {
            Some((feature, threshold, sse)) if sse < parent_sse - 1e-12 => {
                let split = partition_stable(idx, &mut self.spill, |i| {
                    data.features[i][feature] <= threshold
                });
                let (left_idx, right_idx) = idx.split_at_mut(split);
                Node::Split {
                    feature,
                    threshold,
                    left: Box::new(self.build(left_idx, depth + 1, rng)),
                    right: Box::new(self.build(right_idx, depth + 1, rng)),
                }
            }
            _ => Node::Leaf { value: mean },
        }
    }
}

/// Moves the entries of `idx` that satisfy `left` to its front and the
/// rest behind them, both groups keeping their order. Returns the size
/// of the front group; `spill` is scratch for the back one.
fn partition_stable(
    idx: &mut [usize],
    spill: &mut Vec<usize>,
    left: impl Fn(usize) -> bool,
) -> usize {
    spill.clear();
    let mut front = 0;
    for k in 0..idx.len() {
        let i = idx[k];
        if left(i) {
            idx[front] = i;
            front += 1;
        } else {
            spill.push(i);
        }
    }
    idx[front..].copy_from_slice(spill);
    front
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_dataset() -> Dataset {
        // A piecewise-constant target: trees should nail this.
        let mut d = Dataset::new();
        for i in 0..200 {
            let x = i as f64 / 20.0;
            let y = if x < 3.0 {
                1.0
            } else if x < 7.0 {
                5.0
            } else {
                2.0
            };
            d.push(vec![x, (i % 7) as f64], y);
        }
        d
    }

    #[test]
    fn fits_step_function() {
        let mut rng = SimRng::seed(1);
        let m = RandomForest::train(&step_dataset(), 30, 2, &mut rng).unwrap();
        assert!((m.predict(&[1.0, 0.0]) - 1.0).abs() < 0.3);
        assert!((m.predict(&[5.0, 3.0]) - 5.0).abs() < 0.3);
        assert!((m.predict(&[9.0, 6.0]) - 2.0).abs() < 0.3);
    }

    #[test]
    fn fits_multifeature_interaction() {
        let mut d = Dataset::new();
        let mut rng = SimRng::seed(2);
        for _ in 0..400 {
            let a = rng.uniform(0.0, 1.0);
            let b = rng.uniform(0.0, 1.0);
            d.push(vec![a, b], if a > 0.5 && b > 0.5 { 10.0 } else { 0.0 });
        }
        let m = RandomForest::train(&d, 40, 2, &mut rng).unwrap();
        assert!(m.predict(&[0.8, 0.8]) > 7.0);
        assert!(m.predict(&[0.2, 0.8]) < 3.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let d = step_dataset();
        let a = RandomForest::train(&d, 10, 2, &mut SimRng::seed(7)).unwrap();
        let b = RandomForest::train(&d, 10, 2, &mut SimRng::seed(7)).unwrap();
        assert_eq!(a.predict(&[4.2, 1.0]), b.predict(&[4.2, 1.0]));
    }

    #[test]
    fn depth_is_bounded() {
        let mut rng = SimRng::seed(3);
        let m = RandomForest::train(&step_dataset(), 5, 1, &mut rng).unwrap();
        assert!(m.max_depth() <= MAX_DEPTH + 1);
        assert_eq!(m.n_trees(), 5);
    }

    #[test]
    fn empty_dataset_rejected() {
        let mut rng = SimRng::seed(4);
        assert!(RandomForest::train(&Dataset::new(), 10, 2, &mut rng).is_none());
        assert!(RandomForest::train(&step_dataset(), 0, 2, &mut rng).is_none());
    }

    #[test]
    fn constant_target_gives_constant_prediction() {
        let mut d = Dataset::new();
        for i in 0..20 {
            d.push(vec![i as f64], 4.0);
        }
        let mut rng = SimRng::seed(5);
        let m = RandomForest::train(&d, 10, 2, &mut rng).unwrap();
        assert!((m.predict(&[10.0]) - 4.0).abs() < 1e-9);
    }
}
