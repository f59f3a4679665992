//! Learning and optimization substrates for the Mudi reproduction.
//!
//! The paper's pipeline needs several classical models, all implemented
//! here from first principles (no external ML dependencies):
//!
//! * **Piece-wise linear latency fitting** (§4.1.1, Eq. 1): knee-point
//!   detection by lowest curvature / kneedle ([`fit::kneedle`]) plus
//!   segment-wise least squares ([`fit::piecewise`]).
//! * **Alternative fits for Tab. 2**: polynomial least squares
//!   ([`fit::poly`]) and a small MLP ([`mlp`]).
//! * **Interference modeling** (§4.1.2): lightweight regressors —
//!   random forest ([`forest`]), SVR in kernel-ridge form ([`svr`]),
//!   k-nearest-neighbors ([`knn`]), ridge linear regression
//!   ([`linear`]) — behind a common [`Regressor`] trait with
//!   cross-validated model selection ([`select`]).
//! * **Adaptive batching** (§5.3.1, Eq. 3): Gaussian-process regression
//!   ([`gp`]) and GP-LCB Bayesian optimization ([`bo`]).
//! * **Dynamic resource scaling** (§5.3.2, Eq. 4): an exact analytic
//!   minimizer over the piece-wise latency model ([`solver`]), standing
//!   in for the paper's CVXPY/ECOS call.

#![forbid(unsafe_code)]

pub mod bo;
pub mod eval;
pub mod fit;
pub mod forest;
pub mod gp;
pub mod knn;
pub mod linalg;
pub mod linear;
pub mod mlp;
pub mod regressor;
pub mod select;
pub mod solver;
pub mod svr;

pub use bo::{BoResult, BoWorkspace, GpLcbTuner};
pub use fit::kneedle::find_knee;
pub use fit::piecewise::{fit_piecewise, PiecewiseLinear};
pub use fit::poly::Polynomial;
pub use gp::{GaussianProcess, GpScratch};
pub use regressor::{Dataset, Regressor, RegressorKind};
pub use select::{select_best_model, SelectionReport};
pub use solver::min_gpu_fraction;
