//! GP-LCB Bayesian optimization — the Tuner's adaptive-batching search
//! (§5.3.1, Eq. 3).
//!
//! The objective (training mini-batch iteration time as a function of
//! the inference batching size) is a black box observed with noise, so
//! the Tuner fits a Gaussian-process surrogate to the sampled iteration
//! times and explores with the lower-confidence-bound acquisition
//!
//! ```text
//! A(b) = μ(b) − βₙ^½ · sqrt(σ(b)),   βₙ = 2 log(|R| / n²)
//! ```
//!
//! over the discrete candidate set `R` of batching sizes, skipping
//! candidates that violate the SLO constraint (the first constraint of
//! Eq. 2, checked through a caller-supplied feasibility oracle).

use simcore::SimRng;

use crate::gp::{GaussianProcess, GpScratch};

mod memo;

use memo::Proposal;
pub use memo::{DecisionMemo, Memos, SearchCounts};

/// Reusable buffers for [`GpLcbTuner::run_with`]: the candidate masks,
/// the observation log, the GP surrogate with its prediction scratch,
/// and each candidate's posterior under the current fit. A long-lived
/// workspace makes repeated searches allocation-free once every buffer
/// has grown to the candidate count.
#[derive(Clone, Debug, Default)]
pub struct BoWorkspace {
    feasible: Vec<bool>,
    tried: Vec<bool>,
    /// Observed candidates, flat (the GP input is one-dimensional).
    observed_x: Vec<f64>,
    observed_y: Vec<f64>,
    to_try: Vec<usize>,
    gp: GaussianProcess,
    scratch: GpScratch,
    /// Posterior `(μ, σ)` per candidate under the current fit; valid for
    /// the candidates that were untried and feasible when it was fitted.
    posterior: Vec<(f64, f64)>,
    /// Observation count of the current fit, and whether it succeeded.
    fitted_on: Option<usize>,
    fitted: bool,
}

impl BoWorkspace {
    /// Pre-sizes every buffer for searches over `candidates` candidates.
    /// Each candidate is tried at most once per run (the `tried` mask),
    /// which bounds the observation count and hence the GP size — after
    /// this call, [`GpLcbTuner::run_with`] never allocates.
    pub fn reserve(&mut self, candidates: usize) {
        self.feasible.reserve(candidates);
        self.tried.reserve(candidates);
        self.observed_x.reserve(candidates);
        self.observed_y.reserve(candidates);
        self.to_try.reserve(2);
        self.posterior.reserve(candidates);
        self.gp.reserve(candidates, 1);
        self.scratch.reserve(candidates, 1);
    }
}

/// Result of one GP-LCB search.
#[derive(Clone, Debug, PartialEq)]
pub struct BoResult {
    /// The best feasible candidate found.
    pub best: f64,
    /// Observed objective at `best`.
    pub best_objective: f64,
    /// Number of objective evaluations performed.
    pub iterations: usize,
    /// Whether the search converged (proposed an already-tried point)
    /// before hitting the iteration cap.
    pub converged: bool,
}

/// A GP-LCB tuner over a discrete candidate set.
///
/// # Examples
///
/// ```
/// use modeling::GpLcbTuner;
/// use simcore::SimRng;
///
/// let candidates = vec![16.0, 32.0, 64.0, 128.0, 256.0, 512.0];
/// let mut rng = SimRng::seed(1);
/// let tuner = GpLcbTuner::new(candidates, 25);
/// // Quadratic bowl with minimum at 128.
/// let result = tuner
///     .run(&mut rng, |b| Some((b - 128.0).powi(2) * 1e-4 + 1.0))
///     .unwrap();
/// assert_eq!(result.best, 128.0);
/// ```
#[derive(Clone, Debug)]
pub struct GpLcbTuner {
    candidates: Vec<f64>,
    max_iters: usize,
    gamma: f64,
    noise: f64,
}

impl GpLcbTuner {
    /// Creates a tuner over `candidates` with an evaluation budget.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty or `max_iters` is zero.
    pub fn new(candidates: Vec<f64>, max_iters: usize) -> Self {
        assert!(!candidates.is_empty(), "need at least one candidate");
        assert!(max_iters > 0, "need a positive iteration budget");
        GpLcbTuner {
            candidates,
            max_iters,
            gamma: 2.0,
            noise: 1e-4,
        }
    }

    /// The exploration coefficient βₙ of Eq. 3, clamped non-negative
    /// (the paper's βₙ = 2 log(|R|/n²) goes negative once n² > |R|,
    /// which would *reward* uncertainty avoidance; clamping yields pure
    /// exploitation instead, matching the fast-convergence intent).
    fn beta(&self, n: usize) -> f64 {
        let r = self.candidates.len() as f64;
        (2.0 * (r / (n * n) as f64).ln()).max(0.0)
    }

    /// Runs the search.
    ///
    /// `objective(candidate)` returns the observed objective, or `None`
    /// when the candidate is infeasible (violates the SLO constraint);
    /// infeasible candidates are excluded from further consideration.
    ///
    /// Returns `None` if every candidate is infeasible.
    pub fn run(
        &self,
        rng: &mut SimRng,
        objective: impl FnMut(f64) -> Option<f64>,
    ) -> Option<BoResult> {
        self.run_with(
            &mut BoWorkspace::default(),
            &mut DecisionMemo::default(),
            rng,
            objective,
        )
    }

    /// [`GpLcbTuner::run`] through a caller-owned [`BoWorkspace`] and a
    /// proposal memo ([`Memos`]; a `&mut DecisionMemo` converts) —
    /// identical search (same RNG draws, same proposals), but repeated
    /// runs reuse the workspace buffers instead of allocating, and skip
    /// the proposal work the memo already holds.
    ///
    /// The search steps the memo's trie after every evaluation. At a
    /// proposal point it reads the decision stored for its exact probe
    /// history; on a miss it fits the GP, scores the candidates and,
    /// unless it only reads the memo, records the decision it computed.
    pub fn run_with<'m>(
        &self,
        ws: &mut BoWorkspace,
        memos: impl Into<Memos<'m>>,
        rng: &mut SimRng,
        mut objective: impl FnMut(f64) -> Option<f64>,
    ) -> Option<BoResult> {
        let len = self.candidates.len();
        ws.feasible.clear();
        ws.feasible.resize(len, true);
        ws.tried.clear();
        ws.tried.resize(len, false);
        ws.posterior.clear();
        ws.posterior.resize(len, (0.0, 0.0));
        ws.observed_x.clear();
        ws.observed_y.clear();
        ws.fitted_on = None;
        ws.fitted = false;
        let mut evals = 0usize;
        let mut best: Option<(f64, f64)> = None;
        let mut converged = false;
        let mut memos = memos.into();
        let mut node = memos.start(&self.candidates, self.gamma, self.noise);

        // Seed with two quasi-random distinct candidates for a usable GP.
        let first = rng.uniform_usize(0, len);
        let second = (first + len / 2) % len;
        ws.to_try.clear();
        ws.to_try.push(first);
        if second != first {
            ws.to_try.push(second);
        }

        for n in 1..=self.max_iters {
            let idx = match ws.to_try.pop() {
                Some(i) => i,
                None => {
                    memos.counts().proposals += 1;
                    let proposal = match node.and_then(|nd| memos.decision(nd)) {
                        Some(p) => {
                            memos.counts().hits += 1;
                            p
                        }
                        None => {
                            let incumbent = best.map(|(_, y)| y);
                            let p = self.propose(ws, n, incumbent, &mut memos.counts().refits);
                            if let Some(nd) = node {
                                memos.record(nd, p);
                            }
                            p
                        }
                    };
                    match proposal {
                        Proposal::Probe(i) => i,
                        Proposal::Stop => {
                            converged = true;
                            break;
                        }
                    }
                }
            };

            if ws.tried[idx] {
                continue;
            }
            ws.tried[idx] = true;
            let candidate = self.candidates[idx];
            evals += 1;
            let outcome = objective(candidate);
            match outcome {
                Some(y) => {
                    ws.observed_x.push(candidate);
                    ws.observed_y.push(y);
                    if best.is_none_or(|(_, by)| y < by) {
                        best = Some((candidate, y));
                    }
                }
                None => ws.feasible[idx] = false,
            }
            node = node.and_then(|nd| memos.step(nd, idx, outcome));
        }

        best.map(|(x, y)| BoResult {
            best: x,
            best_objective: y,
            iterations: evals,
            converged,
        })
    }

    /// The proposal at step `n`: fit the GP (unless the data are
    /// unchanged), pick the LCB-minimizing untried feasible candidate,
    /// and stop if it cannot beat the `incumbent` objective or none is
    /// left. Counts each fit in `refits`.
    ///
    /// The GP is refitted only when an observation arrived since the
    /// last fit. An infeasible probe adds none, and the fit and every
    /// posterior are pure functions of the observations, so the next
    /// proposal reuses them and recomputes only the LCB under the new
    /// βₙ: the proposals are exactly those of refitting every time. A
    /// memo hit skips this call and leaves the fit stale; the next miss
    /// then refits on the same observations, which gives the same bits.
    fn propose(
        &self,
        ws: &mut BoWorkspace,
        n: usize,
        incumbent: Option<f64>,
        refits: &mut u64,
    ) -> Proposal {
        let len = self.candidates.len();
        if ws.fitted_on != Some(ws.observed_y.len()) {
            ws.fitted_on = Some(ws.observed_y.len());
            *refits += 1;
            ws.fitted = ws
                .gp
                .refit(&ws.observed_x, 1, &ws.observed_y, self.gamma, self.noise);
            if ws.fitted {
                for (i, &c) in self.candidates.iter().enumerate() {
                    if ws.feasible[i] && !ws.tried[i] {
                        let (mu, var) = ws.gp.predict_with(&[c], &mut ws.scratch);
                        ws.posterior[i] = (mu, var.sqrt());
                    }
                }
            }
        }
        let beta_sqrt = self.beta(n).sqrt();
        let mut best_idx = None;
        let mut best_acq = f64::INFINITY;
        for i in 0..len {
            if !ws.feasible[i] || ws.tried[i] {
                continue;
            }
            let acq = if ws.fitted {
                let (mu, sd) = ws.posterior[i];
                mu - beta_sqrt * sd
            } else {
                0.0
            };
            if acq < best_acq {
                best_acq = acq;
                best_idx = Some(i);
            }
        }
        let Some(i) = best_idx else {
            return Proposal::Stop; // All feasible candidates tried.
        };
        // Exploit check: if the GP's LCB at the best untried point
        // cannot beat the incumbent, declare convergence. A minimum
        // number of *successful* observations guards against a
        // miscalibrated GP built from too few points (infeasible probes
        // carry no information about the objective's shape).
        let min_obs = len.min(5);
        if incumbent.is_some_and(|y| best_acq >= y - 1e-12 && ws.observed_y.len() >= min_obs) {
            return Proposal::Stop;
        }
        Proposal::Probe(i)
    }

    /// The candidate set.
    pub fn candidates(&self) -> &[f64] {
        &self.candidates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch_candidates() -> Vec<f64> {
        vec![16.0, 32.0, 64.0, 128.0, 256.0, 512.0]
    }

    #[test]
    fn finds_minimum_of_smooth_objective() {
        let tuner = GpLcbTuner::new(batch_candidates(), 25);
        for seed in 0..10 {
            let mut rng = SimRng::seed(seed);
            let r = tuner
                .run(&mut rng, |b| Some(((b.log2() - 6.0).powi(2)) + 0.5))
                .unwrap();
            assert_eq!(r.best, 64.0, "seed {seed}");
        }
    }

    #[test]
    fn respects_infeasible_candidates() {
        let tuner = GpLcbTuner::new(batch_candidates(), 25);
        let mut rng = SimRng::seed(3);
        // Larger batches are better but everything above 64 is infeasible.
        let r = tuner
            .run(&mut rng, |b| (b <= 64.0).then(|| 1000.0 / b))
            .unwrap();
        assert_eq!(r.best, 64.0);
    }

    #[test]
    fn all_infeasible_returns_none() {
        let tuner = GpLcbTuner::new(batch_candidates(), 25);
        let mut rng = SimRng::seed(4);
        assert!(tuner.run(&mut rng, |_| None).is_none());
    }

    #[test]
    fn converges_within_paper_budget() {
        // §7.5: GP-LCB converges within 25 iterations, typically ~17.
        let tuner = GpLcbTuner::new(batch_candidates(), 25);
        let mut total = 0usize;
        for seed in 0..20 {
            let mut rng = SimRng::seed(seed);
            let r = tuner
                .run(&mut rng, |b| {
                    Some((b / 100.0 - 1.0).powi(2) + (b / 37.0).sin().abs() * 0.1)
                })
                .unwrap();
            assert!(r.iterations <= 25);
            total += r.iterations;
        }
        assert!(total / 20 <= 8, "mean iterations {}", total / 20);
    }

    #[test]
    fn noisy_objective_still_lands_near_optimum() {
        let tuner = GpLcbTuner::new(batch_candidates(), 25);
        let mut hits = 0;
        for seed in 0..20 {
            let mut rng = SimRng::seed(100 + seed);
            let mut noise_rng = SimRng::seed(200 + seed);
            let r = tuner
                .run(&mut rng, |b| {
                    let noise = 1.0 + 0.05 * (noise_rng.f64() - 0.5);
                    Some(((b.log2() - 7.0).powi(2) + 0.2) * noise)
                })
                .unwrap();
            if r.best == 128.0 || r.best == 64.0 || r.best == 256.0 {
                hits += 1;
            }
        }
        assert!(hits >= 18, "only {hits}/20 near optimum");
    }

    #[test]
    fn beta_schedule_decreases_and_clamps() {
        let tuner = GpLcbTuner::new(batch_candidates(), 25);
        assert!(tuner.beta(1) > tuner.beta(2));
        assert_eq!(tuner.beta(10), 0.0); // 2 log(6/100) < 0 -> clamped.
    }

    #[test]
    #[should_panic(expected = "need at least one candidate")]
    fn empty_candidates_rejected() {
        let _ = GpLcbTuner::new(vec![], 10);
    }

    #[test]
    fn reused_workspace_replays_fresh_run_exactly() {
        let tuner = GpLcbTuner::new(batch_candidates(), 25);
        let mut ws = BoWorkspace::default();
        for seed in 0..12 {
            let objective = |b: f64| (b <= 256.0).then(|| (b.log2() - 5.0).powi(2) + 0.25);
            let fresh = tuner.run(&mut SimRng::seed(seed), objective);
            let reused = tuner.run_with(
                &mut ws,
                &mut DecisionMemo::default(),
                &mut SimRng::seed(seed),
                objective,
            );
            assert_eq!(fresh, reused, "seed {seed}");
        }
    }

    /// The search as it stood before the fit was reused across
    /// infeasible probes: refit and re-predict on every proposal. Kept
    /// as the oracle [`GpLcbTuner::run_with`] must match; it also logs
    /// every evaluated candidate in order.
    fn refit_every_proposal(
        tuner: &GpLcbTuner,
        rng: &mut SimRng,
        mut objective: impl FnMut(f64) -> Option<f64>,
    ) -> (Option<BoResult>, Vec<f64>) {
        let len = tuner.candidates.len();
        let mut feasible = vec![true; len];
        let mut tried = vec![false; len];
        let (mut xs, mut ys) = (Vec::new(), Vec::new());
        let mut gp = GaussianProcess::default();
        let mut scratch = GpScratch::default();
        let mut evaluated = Vec::new();
        let mut best: Option<(f64, f64)> = None;
        let mut converged = false;
        let first = rng.uniform_usize(0, len);
        let second = (first + len / 2) % len;
        let mut to_try = vec![first];
        if second != first {
            to_try.push(second);
        }
        for n in 1..=tuner.max_iters {
            let idx = match to_try.pop() {
                Some(i) => i,
                None => {
                    let fitted = gp.refit(&xs, 1, &ys, tuner.gamma, tuner.noise);
                    let beta_sqrt = tuner.beta(n).sqrt();
                    let mut best_idx = None;
                    let mut best_acq = f64::INFINITY;
                    for (i, &c) in tuner.candidates.iter().enumerate() {
                        if !feasible[i] || tried[i] {
                            continue;
                        }
                        let acq = if fitted {
                            let (mu, var) = gp.predict_with(&[c], &mut scratch);
                            mu - beta_sqrt * var.sqrt()
                        } else {
                            0.0
                        };
                        if acq < best_acq {
                            best_acq = acq;
                            best_idx = Some(i);
                        }
                    }
                    match best_idx {
                        Some(i) => {
                            if let Some((_, incumbent)) = best {
                                if best_acq >= incumbent - 1e-12 && ys.len() >= len.min(5) {
                                    converged = true;
                                    break;
                                }
                            }
                            i
                        }
                        None => {
                            converged = true;
                            break;
                        }
                    }
                }
            };
            if tried[idx] {
                continue;
            }
            tried[idx] = true;
            let candidate = tuner.candidates[idx];
            evaluated.push(candidate);
            match objective(candidate) {
                Some(y) => {
                    xs.push(candidate);
                    ys.push(y);
                    if best.is_none_or(|(_, by)| y < by) {
                        best = Some((candidate, y));
                    }
                }
                None => feasible[idx] = false,
            }
        }
        let result = best.map(|(x, y)| BoResult {
            best: x,
            best_objective: y,
            iterations: evaluated.len(),
            converged,
        });
        (result, evaluated)
    }

    #[test]
    fn no_feasible_observation_leaves_the_gp_unfitted() {
        // Only 512 is feasible. Both seeds miss it, the GP has no data
        // to fit, every LCB is 0, and the scan walks the untried
        // candidates in index order until it reaches 512.
        let tuner = GpLcbTuner::new(batch_candidates(), 25);
        let mut evaluated = Vec::new();
        let r = tuner
            .run(&mut SimRng::seed(0), |b| {
                evaluated.push(b);
                (b == 512.0).then_some(3.0)
            })
            .unwrap();
        assert_eq!(r.best, 512.0);
        let seeds = &evaluated[..2];
        assert!(!seeds.contains(&512.0), "seeds {seeds:?}");
        let rest: Vec<f64> = batch_candidates()
            .into_iter()
            .filter(|c| !seeds.contains(c))
            .collect();
        assert_eq!(&evaluated[2..], &rest[..], "evaluated {evaluated:?}");
    }

    proptest::proptest! {
        /// The reused fit proposes exactly what refitting on every
        /// proposal does: same result, same candidates evaluated in the
        /// same order, same RNG draws — over random candidate sets,
        /// infeasibility masks, budgets and objectives. Constant
        /// objectives tie every posterior mean; masks that make both
        /// seeds infeasible leave the GP unfitted (every LCB 0).
        #[test]
        fn reused_fit_matches_refit_every_proposal(
            seed in proptest::prelude::any::<u64>(),
            raw in proptest::collection::vec(1u32..600, 1..13),
            mask in proptest::prelude::any::<u64>(),
            max_iters in 1usize..30,
            shape in 0u32..4,
        ) {
            let candidates: Vec<f64> = raw.iter().map(|&c| c as f64).collect();
            let tuner = GpLcbTuner::new(candidates, max_iters);
            let objective = |b: f64| -> Option<f64> {
                let i = tuner.candidates.iter().position(|&c| c == b).unwrap();
                if mask >> (i % 64) & 1 == 1 && shape != 3 {
                    return None;
                }
                Some(match shape {
                    0 => (b.log2() - 6.0).powi(2) + 0.5,
                    1 => ((b * 0.37).sin() + 1.1) * (1.0 + (seed % 7) as f64),
                    _ => 2.5,
                })
            };
            let want = refit_every_proposal(&tuner, &mut SimRng::seed(seed), objective);
            // Twice through one workspace: a run must not read the
            // previous run's posteriors.
            let mut ws = BoWorkspace::default();
            for _ in 0..2 {
                let mut evaluated = Vec::new();
                let got = tuner.run_with(
                    &mut ws,
                    &mut DecisionMemo::default(),
                    &mut SimRng::seed(seed),
                    |b| {
                        evaluated.push(b);
                        objective(b)
                    },
                );
                proptest::prop_assert_eq!((got, evaluated), want.clone());
            }
        }

        /// Runs that share one memo, warmed by the runs before them,
        /// propose exactly what refitting on every proposal does — both
        /// runs that record into it and runs that only read it, counting
        /// their traffic apart. The objectives draw from four levels (0.0
        /// among them, whose bits equal an infeasible probe's) and a
        /// few infeasibility masks, so histories repeat, and the memo
        /// sizes run from none through a few slots that fill mid-run to
        /// roomy.
        #[test]
        fn memoized_runs_match_refit_every_proposal(
            raw in proptest::collection::vec(1u32..600, 1..13),
            runs in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..16),
            mask in proptest::prelude::any::<u64>(),
            max_iters in 1usize..30,
            slots in 0usize..80,
        ) {
            let tuner = GpLcbTuner::new(raw.iter().map(|&c| c as f64).collect(), max_iters);
            let mut ws = BoWorkspace::default();
            let mut memo = DecisionMemo::with_slots(slots);
            let mut read = SearchCounts::default();
            for &run in &runs {
                let (seed, variant) = (run % 6, run >> 8 & 3);
                let objective = quantized(&tuner, mask, variant);
                let want = refit_every_proposal(&tuner, &mut SimRng::seed(seed), &objective);
                let memos = if run >> 16 & 1 == 0 {
                    Memos::from(&mut memo)
                } else {
                    Memos::Read { memo: &memo, counts: &mut read }
                };
                let mut evaluated = Vec::new();
                let got = tuner.run_with(&mut ws, memos, &mut SimRng::seed(seed), |b| {
                    evaluated.push(b);
                    objective(b)
                });
                proptest::prop_assert_eq!((got, evaluated), want);
            }
            let counts = memo.counts();
            proptest::prop_assert_eq!(counts.searches + read.searches, runs.len() as u64);
            proptest::prop_assert!(counts.hits <= counts.proposals);
            proptest::prop_assert!(read.hits <= read.proposals);
            proptest::prop_assert_eq!(read.full, 0);
            proptest::prop_assert!(2 * memo.len() <= memo.slots());
        }
    }

    /// Objective `variant` over `tuner`'s candidates: one of four levels
    /// per candidate index, infeasible where the variant's rotation of
    /// `mask` has the index's bit set.
    fn quantized(tuner: &GpLcbTuner, mask: u64, variant: u64) -> impl Fn(f64) -> Option<f64> + '_ {
        const LEVELS: [f64; 4] = [0.0, 0.5, 1.25, 2.0];
        move |b| {
            let i = tuner.candidates.iter().position(|&c| c == b).unwrap() as u64;
            if mask.rotate_left(21 * variant as u32) >> (i % 64) & 1 == 1 {
                return None;
            }
            Some(LEVELS[((i * 7 + variant) % 4) as usize])
        }
    }

    #[test]
    fn repeated_history_is_answered_from_the_memo() {
        let tuner = GpLcbTuner::new(batch_candidates(), 25);
        let objective = |b: f64| (b <= 256.0).then(|| (b.log2() - 5.0).powi(2) + 0.25);
        let (mut ws, mut memo) = (BoWorkspace::default(), DecisionMemo::with_slots(256));
        let first = tuner.run_with(&mut ws, &mut memo, &mut SimRng::seed(3), objective);
        let cold = memo.counts();
        assert!(cold.proposals > 0 && cold.refits > 0);
        assert_eq!((cold.hits, cold.full), (0, 0));
        let second = tuner.run_with(&mut ws, &mut memo, &mut SimRng::seed(3), objective);
        assert_eq!(first, second);
        let warm = memo.counts();
        assert_eq!(warm.searches, 2);
        // Every proposal point of the replay is a hit, and no GP is fit.
        assert_eq!(warm.proposals, 2 * cold.proposals);
        assert_eq!(warm.hits, cold.proposals);
        assert_eq!(warm.refits, cold.refits);
        assert!((warm.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn read_only_search_answers_from_a_memo_it_leaves_unchanged() {
        let tuner = GpLcbTuner::new(batch_candidates(), 25);
        let objective = |b: f64| (b >= 32.0).then(|| (b.log2() - 7.0).powi(2) + 0.5);
        let mut ws = BoWorkspace::default();
        let mut filled = DecisionMemo::with_slots(256);
        let want = tuner.run_with(&mut ws, &mut filled, &mut SimRng::seed(8), objective);
        let (len, counts) = (filled.len(), filled.counts());
        // A read-only run leaves the memo as it was and counts its
        // traffic in the caller's counts.
        let read_only = |t: &GpLcbTuner, ws: &mut BoWorkspace| {
            let mut read = SearchCounts::default();
            let memos = Memos::Read {
                memo: &filled,
                counts: &mut read,
            };
            (t.run_with(ws, memos, &mut SimRng::seed(8), objective), read)
        };
        // Every proposal is answered by the memo.
        let (got, read) = read_only(&tuner, &mut ws);
        assert_eq!(got, want);
        let p = counts.proposals;
        let all = |r: SearchCounts| (r.searches, r.proposals, r.hits, r.refits, r.full);
        assert_eq!(all(read), (1, p, p, 0, 0));
        assert!(p > 0);
        // A memo filled for another tuner is ignored: every proposal is
        // computed, and a full memo is never counted.
        let other = GpLcbTuner::new(vec![8.0, 16.0, 32.0, 64.0, 128.0, 256.0], 25);
        let (got, read) = read_only(&other, &mut ws);
        assert_eq!(got, other.run(&mut SimRng::seed(8), objective));
        assert_eq!((read.searches, read.hits, read.full), (1, 0, 0));
        assert!(read.refits > 0, "{read:?}");
        assert_eq!((filled.len(), filled.counts()), (len, counts));
    }

    #[test]
    fn infeasible_and_zero_outcomes_are_different_histories() {
        // An infeasible probe stores outcome bits 0, the bits of an
        // observed 0.0: only the feasibility flag tells the two apart.
        // Each pair of runs differs in one candidate alone, infeasible
        // in the first run and observed at 0.0 in the second, and the
        // second run reads a memo the first one filled.
        let tuner = GpLcbTuner::new(batch_candidates(), 25);
        let shape = |b: f64| (b.log2() - 6.0).powi(2) + 0.5;
        let mut diverged = 0;
        for k in batch_candidates() {
            let infeasible = |b: f64| (b != k).then(|| shape(b));
            let zero = |b: f64| Some(if b == k { 0.0 } else { shape(b) });
            for seed in 0..4 {
                let (want_a, seq_a) =
                    refit_every_proposal(&tuner, &mut SimRng::seed(seed), infeasible);
                let (want_b, seq_b) = refit_every_proposal(&tuner, &mut SimRng::seed(seed), zero);
                diverged += usize::from(seq_a != seq_b);
                let (mut ws, mut memo) = (BoWorkspace::default(), DecisionMemo::with_slots(1024));
                let got_a = tuner.run_with(&mut ws, &mut memo, &mut SimRng::seed(seed), infeasible);
                let got_b = tuner.run_with(&mut ws, &mut memo, &mut SimRng::seed(seed), zero);
                assert_eq!((got_a, got_b), (want_a, want_b), "k {k}, seed {seed}");
            }
        }
        assert!(diverged > 0, "no pair of runs probed differently");
    }

    #[test]
    fn tiny_memo_fills_mid_run_and_the_search_goes_on_without_it() {
        // Four slots hold two nodes: the two seed probes. The first
        // proposal is stored at the second seed's node; the third probe
        // finds the table half full and the search finishes unmemoized.
        let tuner = GpLcbTuner::new(batch_candidates(), 25);
        let objective = |b: f64| Some((b.log2() - 6.0).powi(2) + 0.5);
        let (want, evaluated) = refit_every_proposal(&tuner, &mut SimRng::seed(5), objective);
        assert!(evaluated.len() > 3, "evaluated {evaluated:?}");
        let (mut ws, mut memo) = (BoWorkspace::default(), DecisionMemo::with_slots(4));
        for run in 1..=2u64 {
            let got = tuner.run_with(&mut ws, &mut memo, &mut SimRng::seed(5), objective);
            assert_eq!(got, want, "run {run}");
            let counts = memo.counts();
            assert_eq!(memo.len(), 2);
            assert_eq!(counts.full, run, "run {run}");
            assert_eq!(counts.hits, run - 1, "run {run}");
        }
    }

    #[test]
    fn memo_filled_for_another_tuner_is_cleared() {
        // Same candidate count and the same outcome per candidate index,
        // so the probe histories are index-for-index equal; only the
        // candidate values (or γ) differ, and with them the decisions.
        let a = GpLcbTuner::new(batch_candidates(), 25);
        let mut reversed = batch_candidates();
        reversed.reverse();
        let gamma = GpLcbTuner {
            gamma: 0.5,
            ..a.clone()
        };
        let by_index = |t: &GpLcbTuner, b: f64| {
            let i = t.candidates.iter().position(|&c| c == b).unwrap();
            Some([3.0, 1.0, 2.5, 0.5, 2.0, 1.5][i])
        };
        for b in [GpLcbTuner::new(reversed, 25), gamma] {
            let mut memo = DecisionMemo::with_slots(1024);
            let mut ws = BoWorkspace::default();
            let seeds = 0..6;
            let mut differs = false;
            for seed in seeds.clone() {
                let rng = &mut SimRng::seed(seed);
                let (want_a, seq_a) = refit_every_proposal(&a, rng, |x| by_index(&a, x));
                let (want_b, seq_b) =
                    refit_every_proposal(&b, &mut SimRng::seed(seed), |x| by_index(&b, x));
                let idx = |t: &GpLcbTuner, seq: &[f64]| -> Vec<usize> {
                    seq.iter()
                        .map(|&x| t.candidates.iter().position(|&c| c == x).unwrap())
                        .collect()
                };
                differs |= idx(&a, &seq_a) != idx(&b, &seq_b);
                let got = a.run_with(&mut ws, &mut memo, &mut SimRng::seed(seed), |x| {
                    by_index(&a, x)
                });
                assert_eq!(got, want_a, "seed {seed}");
                let filled = memo.len();
                let got = b.run_with(&mut ws, &mut memo, &mut SimRng::seed(seed), |x| {
                    by_index(&b, x)
                });
                assert_eq!(got, want_b, "seed {seed}");
                assert!(memo.len() <= filled.max(seq_b.len()), "seed {seed}");
            }
            assert!(differs, "the two tuners must decide differently somewhere");
            // Every switch cleared the memo, so no search ever hit.
            assert_eq!(memo.counts().hits, 0);
        }
    }
}
