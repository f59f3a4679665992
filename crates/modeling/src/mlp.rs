//! A small multi-layer perceptron regressor trained with Adam.
//!
//! The "MLP fitting" baseline of Tab. 2. The network is fully
//! connected with tanh activations and a linear output; inputs and the
//! target are standardized internally. The Interference Modeler does
//! not cross-validate it (EXPERIMENTS.md, "Dropping MLP from the fit"),
//! so training is written plainly, one row at a time, not for speed.

use simcore::SimRng;

use crate::linalg::dot;
use crate::regressor::{Dataset, Regressor, Standardizer};

/// One dense layer: `y = W x + b` with optional tanh.
#[derive(Clone, Debug)]
struct Layer {
    weights: Vec<Vec<f64>>, // [out][in]
    biases: Vec<f64>,
    tanh: bool,
}

impl Layer {
    fn new(inputs: usize, outputs: usize, tanh: bool, rng: &mut SimRng) -> Self {
        // Xavier-style initialization.
        let scale = (2.0 / (inputs + outputs) as f64).sqrt();
        Layer {
            weights: (0..outputs)
                .map(|_| {
                    (0..inputs)
                        .map(|_| (rng.f64() * 2.0 - 1.0) * scale)
                        .collect()
                })
                .collect(),
            biases: vec![0.0; outputs],
            tanh,
        }
    }

    /// The layer's activations for input `x`.
    fn forward(&self, x: &[f64]) -> Vec<f64> {
        self.weights
            .iter()
            .zip(&self.biases)
            .map(|(w, &b)| {
                let z = dot(w, x) + b;
                if self.tanh {
                    z.tanh()
                } else {
                    z
                }
            })
            .collect()
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

    fn step<'a>(
        &mut self,
        params: impl Iterator<Item = &'a mut f64>,
        grads: impl Iterator<Item = &'a f64>,
        lr: f64,
    ) {
        const B1: f64 = 0.9;
        const B2: f64 = 0.999;
        const EPS: f64 = 1e-8;
        self.t += 1;
        let bc1 = 1.0 - B1.powi(self.t as i32);
        let bc2 = 1.0 - B2.powi(self.t as i32);
        let moments = self.m.iter_mut().zip(self.v.iter_mut());
        for ((p, &g), (m, v)) in params.zip(grads).zip(moments) {
            *m = B1 * *m + (1.0 - B1) * g;
            *v = B2 * *v + (1.0 - B2) * g * g;
            let mhat = *m / bc1;
            let vhat = *v / bc2;
            *p -= lr * mhat / (vhat.sqrt() + EPS);
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

        let mut adams: Vec<(Adam, Adam)> = dims
            .windows(2)
            .map(|w| (Adam::new(w[0] * w[1]), Adam::new(w[1])))
            .collect();
        let mut order: Vec<usize> = (0..xs.len()).collect();
        let mut shuffle_rng = rng.fork("mlp-shuffle");
        const BATCH: usize = 8;

        for _ in 0..epochs {
            shuffle_rng.shuffle(&mut order);
            for chunk in order.chunks(BATCH) {
                train_batch(&mut layers, &mut adams, &xs, &ys, chunk, lr);
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
    xs: &[Vec<f64>],
    ys: &[f64],
    batch: &[usize],
    lr: f64,
) {
    // Accumulate gradients over the batch, shaped like each layer's
    // weights and biases.
    let mut grads: Vec<(Vec<Vec<f64>>, Vec<f64>)> = layers
        .iter()
        .map(|l| {
            let w = l.weights.iter().map(|row| vec![0.0; row.len()]).collect();
            (w, vec![0.0; l.biases.len()])
        })
        .collect();

    for &i in batch {
        // Forward pass: `acts[l]` is layer `l`'s input.
        let mut acts = vec![xs[i].clone()];
        for layer in layers.iter() {
            let y = layer.forward(acts.last().expect("nonempty"));
            acts.push(y);
        }
        let pred = acts.last().expect("output layer")[0];
        // d(MSE)/d(pred), per-example.
        let mut delta = vec![2.0 * (pred - ys[i]) / batch.len() as f64];

        // Backward pass.
        for (l, layer) in layers.iter().enumerate().rev() {
            // Through the activation: tanh' = 1 - tanh².
            if layer.tanh {
                for (d, &a) in delta.iter_mut().zip(&acts[l + 1]) {
                    *d *= 1.0 - a.powi(2);
                }
            }
            let input = &acts[l];
            let (w_grad, b_grad) = &mut grads[l];
            for ((&dz, g_row), gb) in delta.iter().zip(w_grad).zip(b_grad) {
                *gb += dz;
                for (g, &xj) in g_row.iter_mut().zip(input) {
                    *g += dz * xj;
                }
            }
            // Propagate to the previous layer.
            if l > 0 {
                delta = (0..input.len())
                    .map(|j| {
                        delta
                            .iter()
                            .zip(&layer.weights)
                            .map(|(&dz, w)| dz * w[j])
                            .sum()
                    })
                    .collect();
            }
        }
    }

    // Apply Adam updates.
    for ((layer, (w_adam, b_adam)), (w_grad, b_grad)) in layers.iter_mut().zip(adams).zip(&grads) {
        w_adam.step(
            layer.weights.iter_mut().flatten(),
            w_grad.iter().flatten(),
            lr,
        );
        b_adam.step(layer.biases.iter_mut(), b_grad.iter(), lr);
    }
}

impl Regressor for MlpRegressor {
    fn predict(&self, features: &[f64]) -> f64 {
        let mut x = self.standardizer.apply(features);
        for layer in &self.layers {
            x = layer.forward(&x);
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
    fn tab02_shaped_fit_is_pinned_bit_for_bit() {
        // One feature, seven points of a convex latency curve, and
        // Tab. 2's settings: one hidden layer of 8, 300 epochs, lr 0.02.
        let mut d = Dataset::new();
        for i in 0..7 {
            let x = 0.1 + 0.8 * i as f64 / 6.0;
            d.push(vec![x], 12.0 + 3.0 / x + 0.5 * (7.0 * x).sin());
        }
        let m = MlpRegressor::train(&d, &[8], 300, 0.02, &mut SimRng::seed(42)).unwrap();
        let bits: Vec<u64> = [0.1, 0.35, 0.6, 0.9]
            .iter()
            .map(|&x| m.predict(&[x]).to_bits())
            .collect();
        // Recorded from the flat column-major loop this per-row form
        // replaced: ≈ 41.90, 20.30, 16.58, 15.29.
        let pinned = [
            0x4044_f365_955e_a1b0,
            0x4034_4c22_7e86_e62f,
            0x4030_93db_a6a4_23c6,
            0x402e_95bb_8f20_160a,
        ];
        assert_eq!(bits, pinned, "{bits:#x?}");
    }

    #[test]
    fn empty_dataset_rejected() {
        let mut rng = SimRng::seed(1);
        assert!(MlpRegressor::train(&Dataset::new(), &[4], 10, 0.01, &mut rng).is_none());
    }
}
