//! The lane-packed batch engine, end to end: 64 independent matmul
//! instances in the bit-lanes of a `u64`, one compiled schedule walk per
//! word.
//!
//! Every signal in the paper's expanded bit-level arrays carries a single
//! bit, so the compiled backend's per-cycle bookkeeping is pure overhead
//! amortised over one payload bit per signal. `SimBackend::CompiledBatch`
//! packs up to 64 whole *problem instances* into each machine word instead:
//! the same walk, the same bookkeeping, 64 simulations. This example runs a
//! 64-instance batch through `DesignFlow::evaluate_batch` at widths 1 and
//! 64 on both paper designs, verifies every product against native
//! arithmetic, and prints the measured amortisation.
//!
//! Run with: `cargo run --release --example batch_throughput`

use bitlevel::{BitMatmulArray, DesignFlow, PaperDesign, SimBackend};
use std::time::Instant;

const INSTANCES: usize = 64;

fn main() {
    let (u, p) = (3usize, 4usize);
    let cap = BitMatmulArray::new(u, p).max_safe_entry();
    let mut state = 0x1CC7_1993u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as u128) % (cap + 1)
    };
    let mut mat =
        move || -> Vec<Vec<u128>> { (0..u).map(|_| (0..u).map(|_| next()).collect()).collect() };
    let xs: Vec<Vec<Vec<u128>>> = (0..INSTANCES).map(|_| mat()).collect();
    let ys: Vec<Vec<Vec<u128>>> = (0..INSTANCES).map(|_| mat()).collect();

    println!("batch of {INSTANCES} independent {u}x{u} matmuls, p = {p} bit words\n");
    for design in [PaperDesign::TimeOptimal, PaperDesign::NearestNeighbour] {
        let mut throughput = Vec::new();
        for width in [1usize, 64] {
            let flow =
                DesignFlow::matmul(u as i64, p).with_backend(SimBackend::CompiledBatch { width });
            let t0 = Instant::now();
            let report = flow.evaluate_batch(design, &xs, &ys);
            let secs = t0.elapsed().as_secs_f64();
            assert!(report.legal, "illegal run on {}", report.design);
            for (k, (x, y)) in xs.iter().zip(&ys).enumerate() {
                let want: Vec<Vec<u128>> = (0..u)
                    .map(|i| {
                        (0..u)
                            .map(|j| (0..u).map(|l| x[i][l] * y[l][j]).sum())
                            .collect()
                    })
                    .collect();
                assert_eq!(report.products[k], want, "lane {k}");
            }
            throughput.push(INSTANCES as f64 / secs);
            println!(
                "{}: width {:>2} -> {:>2} walk(s) of {} cycles, {:>10.0} instances/sec  [{}]",
                report.design,
                report.width,
                report.walks,
                report.cycles,
                INSTANCES as f64 / secs,
                report.backend_used,
            );
        }
        println!(
            "  word-parallel amortisation: {:.1}x\n",
            throughput[1] / throughput[0].max(f64::MIN_POSITIVE)
        );
    }
    println!("every product of every lane verified against native arithmetic.");
}
