//! A small multi-layer perceptron regressor trained with Adam.
//!
//! The "MLP fitting" baseline of Tab. 2. The network is fully
//! connected with tanh activations and a linear output; inputs and the
//! target are standardized internally.
//!
//! The Interference Modeler no longer cross-validates it: it cost most
//! of the fit's CV CPU for a handful of wins (EXPERIMENTS.md, "Dropping
//! MLP from the fit"). Training keeps its fast form: the steady state
//! allocates nothing, weights are stored flat, and activations,
//! gradients and deltas live in scratch buffers allocated once per
//! [`MlpRegressor::train`]. Every sum still adds its terms in the order
//! of the naive nested-`Vec` formulation, starting from `-0.0` as std's
//! `Sum for f64` does, so the trained weights are bit-identical to it.

use simcore::SimRng;

use crate::regressor::{Dataset, Regressor, Standardizer};

/// One dense layer: `y = W x + b` with optional tanh.
#[derive(Clone, Debug)]
struct Layer {
    outputs: usize,
    /// Column-major: the weight from input `j` to output `o` is
    /// `weights[j * outputs + o]`, so one input's fan-out is contiguous.
    weights: Vec<f64>,
    biases: Vec<f64>,
    tanh: bool,
}

impl Layer {
    fn new(inputs: usize, outputs: usize, tanh: bool, rng: &mut SimRng) -> Self {
        // Xavier-style initialization, drawn output by output.
        let scale = (2.0 / (inputs + outputs) as f64).sqrt();
        let mut weights = vec![0.0; inputs * outputs];
        for o in 0..outputs {
            for j in 0..inputs {
                weights[j * outputs + o] = (rng.f64() * 2.0 - 1.0) * scale;
            }
        }
        Layer {
            outputs,
            weights,
            biases: vec![0.0; outputs],
            tanh,
        }
    }

    /// Writes the layer's activations for input `x` into `out`.
    ///
    /// All outputs accumulate in one pass over the inputs; each output
    /// still adds its products in ascending input order from `-0.0`,
    /// exactly as a per-output `dot(...).sum()` would.
    fn forward_into(&self, x: &[f64], out: &mut [f64]) {
        out.fill(-0.0);
        for (&xj, column) in x.iter().zip(self.weights.chunks_exact(self.outputs)) {
            for (acc, &w) in out.iter_mut().zip(column) {
                *acc += w * xj;
            }
        }
        for (y, &b) in out.iter_mut().zip(&self.biases) {
            let z = *y + b;
            *y = if self.tanh { z.tanh() } else { z };
        }
    }
}

/// Adam optimizer state for one parameter tensor.
#[derive(Clone, Debug)]
struct Adam {
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
}

impl Adam {
    fn new(len: usize) -> Self {
        Adam {
            m: vec![0.0; len],
            v: vec![0.0; len],
            t: 0,
        }
    }

    fn step(&mut self, params: &mut [f64], grads: &[f64], lr: f64) {
        const B1: f64 = 0.9;
        const B2: f64 = 0.999;
        const EPS: f64 = 1e-8;
        self.t += 1;
        let bc1 = 1.0 - B1.powi(self.t as i32);
        let bc2 = 1.0 - B2.powi(self.t as i32);
        let moments = self.m.iter_mut().zip(self.v.iter_mut());
        for ((p, &g), (m, v)) in params.iter_mut().zip(grads).zip(moments) {
            *m = B1 * *m + (1.0 - B1) * g;
            *v = B2 * *v + (1.0 - B2) * g * g;
            let mhat = *m / bc1;
            let vhat = *v / bc2;
            *p -= lr * mhat / (vhat.sqrt() + EPS);
        }
    }
}

/// Per-[`MlpRegressor::train`] buffers, zeroed and reused every batch.
/// The two delta buffers reach their widest layer's size on the first
/// sample and keep that capacity.
struct Scratch {
    /// `acts[l]`: layer `l`'s output activations for the current sample.
    acts: Vec<Vec<f64>>,
    /// Per-layer weight gradients, laid out like [`Layer::weights`].
    w_grads: Vec<Vec<f64>>,
    b_grads: Vec<Vec<f64>>,
    /// Gradient with respect to the current layer's outputs, and the
    /// buffer its propagation to the layer's inputs is written into.
    delta: Vec<f64>,
    delta_prev: Vec<f64>,
}

impl Scratch {
    fn new(layers: &[Layer]) -> Self {
        Scratch {
            acts: layers.iter().map(|l| vec![0.0; l.outputs]).collect(),
            w_grads: layers.iter().map(|l| vec![0.0; l.weights.len()]).collect(),
            b_grads: layers.iter().map(|l| vec![0.0; l.outputs]).collect(),
            delta: Vec::new(),
            delta_prev: Vec::new(),
        }
    }
}

/// A trained MLP regressor.
#[derive(Clone, Debug)]
pub struct MlpRegressor {
    layers: Vec<Layer>,
    standardizer: Standardizer,
    target_mean: f64,
    target_std: f64,
}

impl MlpRegressor {
    /// Trains an MLP with the given hidden-layer widths.
    ///
    /// `epochs` full passes of mini-batch (size 8) Adam at learning rate
    /// `lr`. Returns `None` for an empty dataset.
    pub fn train(
        data: &Dataset,
        hidden: &[usize],
        epochs: usize,
        lr: f64,
        rng: &mut SimRng,
    ) -> Option<Self> {
        if data.is_empty() {
            return None;
        }
        let standardizer = Standardizer::fit(&data.features);
        let xs = standardizer.apply_all(&data.features);
        let target_mean = data.targets.iter().sum::<f64>() / data.len() as f64;
        let target_std = (data
            .targets
            .iter()
            .map(|&t| (t - target_mean).powi(2))
            .sum::<f64>()
            / data.len() as f64)
            .sqrt()
            .max(1e-9);
        let ys: Vec<f64> = data
            .targets
            .iter()
            .map(|&t| (t - target_mean) / target_std)
            .collect();

        let mut net_rng = rng.fork("mlp-init");
        let mut dims = vec![data.width()];
        dims.extend_from_slice(hidden);
        dims.push(1);
        let mut layers: Vec<Layer> = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| Layer::new(w[0], w[1], i + 2 < dims.len(), &mut net_rng))
            .collect();

        let mut adams: Vec<(Adam, Adam)> = layers
            .iter()
            .map(|l| (Adam::new(l.weights.len()), Adam::new(l.outputs)))
            .collect();
        let mut scratch = Scratch::new(&layers);
        let mut order: Vec<usize> = (0..xs.len()).collect();
        let mut shuffle_rng = rng.fork("mlp-shuffle");
        const BATCH: usize = 8;

        for _ in 0..epochs {
            shuffle_rng.shuffle(&mut order);
            for chunk in order.chunks(BATCH) {
                train_batch(&mut layers, &mut adams, &mut scratch, &xs, &ys, chunk, lr);
            }
        }

        Some(MlpRegressor {
            layers,
            standardizer,
            target_mean,
            target_std,
        })
    }
}

fn train_batch(
    layers: &mut [Layer],
    adams: &mut [(Adam, Adam)],
    s: &mut Scratch,
    xs: &[Vec<f64>],
    ys: &[f64],
    batch: &[usize],
    lr: f64,
) {
    // Accumulate gradients over the batch, sample by sample.
    for g in s.w_grads.iter_mut().chain(&mut s.b_grads) {
        g.fill(0.0);
    }
    let last = layers.len() - 1;
    for &i in batch {
        // Forward pass, caching activations.
        let x = xs[i].as_slice();
        for (l, layer) in layers.iter().enumerate() {
            let (done, rest) = s.acts.split_at_mut(l);
            let input = done.last().map_or(x, Vec::as_slice);
            layer.forward_into(input, &mut rest[0]);
        }
        // d(MSE)/d(pred), per-example.
        s.delta.clear();
        s.delta
            .push(2.0 * (s.acts[last][0] - ys[i]) / batch.len() as f64);

        // Backward pass.
        for (l, layer) in layers.iter().enumerate().rev() {
            // Through the activation: tanh' = 1 - tanh², from the
            // stored output rather than a second tanh.
            if layer.tanh {
                for (d, &a) in s.delta.iter_mut().zip(&s.acts[l]) {
                    *d *= 1.0 - a.powi(2);
                }
            }
            let input = if l == 0 { x } else { &s.acts[l - 1] };
            for (gb, &dz) in s.b_grads[l].iter_mut().zip(&s.delta) {
                *gb += dz;
            }
            for (&xj, g_column) in input
                .iter()
                .zip(s.w_grads[l].chunks_exact_mut(layer.outputs))
            {
                for (g, &dz) in g_column.iter_mut().zip(&s.delta) {
                    *g += dz * xj;
                }
            }
            // Propagate to the previous layer.
            if l > 0 {
                s.delta_prev.clear();
                s.delta_prev
                    .extend(layer.weights.chunks_exact(layer.outputs).map(|column| {
                        s.delta
                            .iter()
                            .zip(column)
                            .map(|(&dz, &w)| dz * w)
                            .sum::<f64>()
                    }));
                std::mem::swap(&mut s.delta, &mut s.delta_prev);
            }
        }
    }

    // Apply Adam updates in place.
    let grads = s.w_grads.iter().zip(&s.b_grads);
    for ((layer, (w_adam, b_adam)), (w_grad, b_grad)) in layers.iter_mut().zip(adams).zip(grads) {
        w_adam.step(&mut layer.weights, w_grad, lr);
        b_adam.step(&mut layer.biases, b_grad, lr);
    }
}

impl Regressor for MlpRegressor {
    fn predict(&self, features: &[f64]) -> f64 {
        let mut x = self.standardizer.apply(features);
        let mut y = Vec::new();
        for layer in &self.layers {
            y.clear();
            y.resize(layer.outputs, 0.0);
            layer.forward_into(&x, &mut y);
            std::mem::swap(&mut x, &mut y);
        }
        x[0] * self.target_std + self.target_mean
    }

    fn name(&self) -> &'static str {
        "MLP"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_linear_function() {
        let mut d = Dataset::new();
        for i in 0..60 {
            let x = i as f64 / 10.0;
            d.push(vec![x], 3.0 * x - 2.0);
        }
        let mut rng = SimRng::seed(1);
        let m = MlpRegressor::train(&d, &[8], 300, 0.01, &mut rng).unwrap();
        for probe in [0.5, 2.5, 5.0] {
            let truth = 3.0 * probe - 2.0;
            let pred = m.predict(&[probe]);
            assert!(
                (pred - truth).abs() < 0.8,
                "at {probe}: pred {pred}, truth {truth}"
            );
        }
    }

    #[test]
    fn learns_nonlinear_function() {
        let mut d = Dataset::new();
        for i in 0..80 {
            let x = i as f64 / 8.0;
            d.push(vec![x], (x).sin() * 2.0);
        }
        let mut rng = SimRng::seed(2);
        let m = MlpRegressor::train(&d, &[16, 16], 500, 0.01, &mut rng).unwrap();
        let mut err = 0.0;
        for i in 0..20 {
            let x = 0.25 + i as f64 / 2.0;
            err += (m.predict(&[x]) - x.sin() * 2.0).abs();
        }
        assert!(err / 20.0 < 0.35, "mean abs err {}", err / 20.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut d = Dataset::new();
        for i in 0..20 {
            d.push(vec![i as f64], i as f64 * 2.0);
        }
        let a = MlpRegressor::train(&d, &[4], 50, 0.01, &mut SimRng::seed(9)).unwrap();
        let b = MlpRegressor::train(&d, &[4], 50, 0.01, &mut SimRng::seed(9)).unwrap();
        assert_eq!(a.predict(&[3.0]), b.predict(&[3.0]));
    }

    #[test]
    fn empty_dataset_rejected() {
        let mut rng = SimRng::seed(1);
        assert!(MlpRegressor::train(&Dataset::new(), &[4], 10, 0.01, &mut rng).is_none());
    }
}
