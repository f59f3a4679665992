//! MLP training must not allocate per epoch.
//!
//! `MlpRegressor::train` is Tab. 2's "MLP fitting" baseline. It was
//! the Interference Modeler's hottest loop until the Modeler stopped
//! cross-validating it (EXPERIMENTS.md, "Dropping MLP from the fit"),
//! and it keeps its allocation-free form. Its scratch — activations,
//! weight and bias gradients, deltas and the Adam moments — is
//! allocated once per call and reused for every
//! mini-batch, so the number of allocations a call makes does not
//! depend on how many epochs it runs. This file pins that with a
//! counting global allocator: the same fit at 60 and at 240 epochs
//! must allocate exactly as often.
//!
//! The counter is per thread, so allocations by the test harness's
//! other threads never leak into a measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use modeling::mlp::MlpRegressor;
use modeling::Dataset;
use simcore::SimRng;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator may run while this thread's locals are
    // being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A modeler-shaped fit: 30 rows of 15 features, as one service's
/// profile gives each target.
fn dataset() -> Dataset {
    let mut rng = SimRng::seed(11);
    let mut d = Dataset::new();
    for _ in 0..30 {
        let row: Vec<f64> = (0..15).map(|_| rng.uniform(0.0, 8.0)).collect();
        let y = row.iter().sum::<f64>().sin();
        d.push(row, y);
    }
    d
}

fn allocations_to_train(data: &Dataset, epochs: usize) -> usize {
    let before = allocations();
    let model = MlpRegressor::train(data, &[16, 16], epochs, 0.02, &mut SimRng::seed(5));
    let delta = allocations() - before;
    assert!(model.is_some(), "non-empty data must train");
    delta
}

#[test]
fn training_allocations_do_not_grow_with_epochs() {
    // Sanity-check the counter before trusting the comparison below.
    let before = allocations();
    let v: Vec<u64> = (0..64).collect();
    assert!(
        allocations() > before && v.len() == 64,
        "counting allocator failed to observe a plain Vec allocation"
    );

    let data = dataset();
    let short = allocations_to_train(&data, 60);
    let long = allocations_to_train(&data, 240);
    assert!(short > 0, "a fit allocates its model and scratch");
    assert_eq!(
        short, long,
        "MlpRegressor::train allocated {short} times at 60 epochs but \
         {long} at 240: the training loop allocates per epoch"
    );
}
