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
    ///
    /// # Panics
    ///
    /// Panics if a feature value is NaN.
    pub fn train(
        data: &Dataset,
        n_trees: usize,
        min_leaf: usize,
        rng: &mut SimRng,
    ) -> Option<Self> {
        Self::grow(data, n_trees, min_leaf, rng, TreeBuilder::build)
    }

    /// Bags `n_trees` trees, each grown by `build` from its own
    /// bootstrap sample.
    fn grow<'d>(
        data: &'d Dataset,
        n_trees: usize,
        min_leaf: usize,
        rng: &mut SimRng,
        build: fn(&mut TreeBuilder<'d>, &mut [usize], usize, &mut SimRng) -> Node,
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
        let ranked = Ranked::new(data);
        let max_levels = ranked.levels.iter().copied().max().unwrap_or(0);
        let mut builder = TreeBuilder {
            data,
            ranked,
            min_leaf: min_leaf.max(1),
            mtry,
            features: Vec::with_capacity(width),
            starts: vec![0; max_levels + 1],
            values: vec![(0.0, 0.0); n],
            spill: Vec::with_capacity(n),
        };
        let mut idx = Vec::with_capacity(n);
        let trees = (0..n_trees)
            .map(|t| {
                let mut tree_rng = rng.fork_indexed("tree", t);
                // Bootstrap sample.
                idx.clear();
                idx.extend((0..n).map(|_| tree_rng.uniform_usize(0, n)));
                build(&mut builder, &mut idx, 0, &mut tree_rng)
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

/// One dataset's features ranked once, so a node can order its
/// samples by a feature without comparing values. Both tables are
/// column-major: entry `f * n + i` belongs to row `i` and feature `f`.
struct Ranked {
    n: usize,
    /// The feature values.
    columns: Vec<f64>,
    /// Each value's rank among its feature's distinct values: ranks
    /// rise with the value, and equal values (`-0.0` and `0.0` too)
    /// share one.
    ranks: Vec<usize>,
    /// Distinct values per feature.
    levels: Vec<usize>,
}

impl Ranked {
    fn new(data: &Dataset) -> Self {
        let n = data.len();
        let width = data.width();
        let mut ranked = Ranked {
            n,
            columns: Vec::with_capacity(n * width),
            ranks: vec![0; n * width],
            levels: Vec::with_capacity(width),
        };
        let mut order: Vec<usize> = Vec::with_capacity(n);
        for f in 0..width {
            let start = f * n;
            ranked
                .columns
                .extend(data.features.iter().map(|row| row[f]));
            let column = &ranked.columns[start..];
            order.clear();
            order.extend(0..n);
            order.sort_by(|&a, &b| column[a].partial_cmp(&column[b]).expect("finite features"));
            let mut rank = 0;
            for (k, &i) in order.iter().enumerate() {
                if k > 0 && column[i] != column[order[k - 1]] {
                    rank += 1;
                }
                ranked.ranks[start + i] = rank;
            }
            ranked.levels.push(rank + 1);
        }
        ranked
    }

    /// Writes to `out[..idx.len()]` the `(feature f value, target)` of
    /// the samples `idx` in ascending value order, equal values in
    /// `idx` order: a stable counting sort over the ranks, with
    /// `starts` (at least one entry more than `f` has levels) as
    /// scratch. That is exactly the sequence a stable comparison sort
    /// of the same pairs by value gives. Returns `false`, and writes
    /// nothing, when the samples all share one value, so no split
    /// exists.
    fn order(
        &self,
        f: usize,
        idx: &[usize],
        targets: &[f64],
        starts: &mut [usize],
        out: &mut [(f64, f64)],
    ) -> bool {
        let levels = self.levels[f];
        let column = f * self.n..(f + 1) * self.n;
        let (values, ranks) = (&self.columns[column.clone()], &self.ranks[column]);
        let starts = &mut starts[..=levels];
        starts.fill(0);
        for &i in idx {
            starts[ranks[i] + 1] += 1;
        }
        if starts.contains(&idx.len()) {
            return false;
        }
        for r in 1..starts.len() {
            starts[r] += starts[r - 1];
        }
        for &i in idx {
            let slot = &mut starts[ranks[i]];
            out[*slot] = (values[i], targets[i]);
            *slot += 1;
        }
        true
    }
}

/// Grows one forest's trees. Every node refills the buffers before it
/// recurses, so one set serves the whole forest.
struct TreeBuilder<'a> {
    data: &'a Dataset,
    ranked: Ranked,
    min_leaf: usize,
    mtry: usize,
    features: Vec<usize>,
    /// Each rank's next slot while a node orders its samples.
    starts: Vec<usize>,
    /// `(feature value, target)` per sample at the current node, in
    /// the first `idx.len()` entries.
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
            if !self
                .ranked
                .order(f, idx, &data.targets, &mut self.starts, &mut self.values)
            {
                continue;
            }
            let values = &self.values[..idx.len()];

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

    /// The split search as it was before the rank table: each node
    /// sorts its `(value, target)` pairs with a stable comparison sort.
    /// The oracle for [`TreeBuilder::build`].
    fn sorted_build(
        b: &mut TreeBuilder,
        idx: &mut [usize],
        depth: usize,
        rng: &mut SimRng,
    ) -> Node {
        let data = b.data;
        let min_leaf = b.min_leaf;
        let mean = mean_of(data, idx);
        if idx.len() < 2 * min_leaf || depth >= MAX_DEPTH {
            return Node::Leaf { value: mean };
        }
        let parent_sse = sse_of(data, idx, mean);
        if parent_sse < 1e-12 {
            return Node::Leaf { value: mean };
        }

        b.features.clear();
        b.features.extend(0..data.width());
        rng.shuffle(&mut b.features);
        b.features.truncate(b.mtry);

        let mut best: Option<(usize, f64, f64)> = None;
        for &f in &b.features {
            let values = &mut b.values;
            values.clear();
            values.extend(idx.iter().map(|&i| (data.features[i][f], data.targets[i])));
            values.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite features"));

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
                    continue;
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
                let split = partition_stable(idx, &mut b.spill, |i| {
                    data.features[i][feature] <= threshold
                });
                let (left_idx, right_idx) = idx.split_at_mut(split);
                Node::Split {
                    feature,
                    threshold,
                    left: Box::new(sorted_build(b, left_idx, depth + 1, rng)),
                    right: Box::new(sorted_build(b, right_idx, depth + 1, rng)),
                }
            }
            _ => Node::Leaf { value: mean },
        }
    }

    /// A tree in preorder: `(feature, threshold bits)` per split and
    /// `(usize::MAX, value bits)` per leaf.
    fn preorder(node: &Node, out: &mut Vec<(usize, u64)>) {
        match node {
            Node::Leaf { value } => out.push((usize::MAX, value.to_bits())),
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                out.push((*feature, threshold.to_bits()));
                preorder(left, out);
                preorder(right, out);
            }
        }
    }

    fn nodes(forest: &RandomForest) -> Vec<Vec<(usize, u64)>> {
        forest
            .trees
            .iter()
            .map(|tree| {
                let mut out = Vec::new();
                preorder(tree, &mut out);
                out
            })
            .collect()
    }

    /// A dataset whose columns are single-valued, few-level integer,
    /// signed-zero or continuous, whose targets often tie, and whose
    /// rows often repeat an earlier row.
    fn tricky_dataset(rows: usize, width: usize, rng: &mut SimRng) -> Dataset {
        let kinds: Vec<usize> = (0..width).map(|_| rng.uniform_usize(0, 4)).collect();
        let levels: Vec<usize> = (0..width).map(|_| rng.uniform_usize(2, 7)).collect();
        let mut d = Dataset::new();
        for r in 0..rows {
            if r > 0 && rng.chance(0.3) {
                let copy = rng.uniform_usize(0, r);
                d.push(d.features[copy].clone(), d.targets[copy]);
                continue;
            }
            let row = (0..width)
                .map(|f| match kinds[f] {
                    0 => 3.5,
                    1 => rng.uniform_usize(0, levels[f]) as f64,
                    2 => *rng.pick(&[-0.0, 0.0, 1.0, -1.5]),
                    _ => rng.uniform(-2.0, 2.0),
                })
                .collect();
            let target = if rng.chance(0.5) {
                rng.uniform_usize(0, 3) as f64
            } else {
                rng.uniform(-1.0, 1.0)
            };
            d.push(row, target);
        }
        d
    }

    proptest::proptest! {
        /// Growing trees by the rank table's counting sort gives the
        /// forest the stable comparison sort gives, node for node and
        /// bit for bit: the same features, thresholds and leaf values.
        #[test]
        fn ranked_split_search_matches_the_sorted_one(
            seed in proptest::prelude::any::<u64>(),
            rows in 1usize..81,
            width in 1usize..17,
            min_leaf in 1usize..5,
            n_trees in 1usize..7,
        ) {
            let data = tricky_dataset(rows, width, &mut SimRng::seed(seed));
            let rng = SimRng::seed(seed).fork("forest");
            let ranked = RandomForest::train(&data, n_trees, min_leaf, &mut rng.clone());
            let sorted = RandomForest::grow(&data, n_trees, min_leaf, &mut rng.clone(), sorted_build);
            let (ranked, sorted) = (ranked.expect("non-empty"), sorted.expect("non-empty"));
            proptest::prop_assert_eq!(nodes(&ranked), nodes(&sorted));
        }
    }

    #[test]
    fn signed_zeros_share_a_rank() {
        let mut d = Dataset::new();
        for (x, y) in [(0.0, 1.0), (-0.0, 2.0), (1.0, 3.0), (-0.0, 4.0)] {
            d.push(vec![x, 7.0], y);
        }
        let ranked = Ranked::new(&d);
        assert_eq!(ranked.ranks[..4], [0, 0, 1, 0]);
        assert_eq!(ranked.levels, [2, 1]);
        let (mut starts, mut out) = ([0; 3], [(0.0, 0.0); 4]);
        assert!(!ranked.order(1, &[2, 1, 0, 3], &d.targets, &mut starts, &mut out));
        assert!(!ranked.order(0, &[1, 0, 3], &d.targets, &mut starts, &mut out));
        assert!(ranked.order(0, &[2, 1, 0, 3], &d.targets, &mut starts, &mut out));
        let bits: Vec<(u64, f64)> = out.iter().map(|&(x, y)| (x.to_bits(), y)).collect();
        let (neg, pos) = ((-0.0f64).to_bits(), 0.0f64.to_bits());
        assert_eq!(
            bits,
            [(neg, 2.0), (pos, 1.0), (neg, 4.0), (1.0f64.to_bits(), 3.0)]
        );
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
