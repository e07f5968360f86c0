//! Tiled matrix multiplication — the paper's MM benchmark.
//!
//! ```sh
//! cargo run --example matmul
//! ```
//!
//! Demonstrates per-dimension selects (`[[block.Y]]`, `[[thread.X]]`),
//! mutable thread-private accumulators, two shared-memory tiles, and the
//! double-barrier pipeline pattern.

use descend::benchmarks::{reference, sources};
use descend::compiler::Compiler;
use descend::sim::{Gpu, LaunchConfig};

fn main() {
    let n = 128usize;
    let nb = (n / 32) as u64;
    let src = sources::matmul(n);

    let compiled = Compiler::new()
        .compile_source(&src)
        .unwrap_or_else(|e| panic!("compilation failed:\n{e}"));
    println!(
        "=== Generated CUDA kernel (first 40 lines) ===\n{}",
        compiled.kernels[0]
            .cuda()
            .lines()
            .take(40)
            .collect::<Vec<_>>()
            .join("\n")
    );

    let ir = &compiled.kernels[0].ir;
    let a: Vec<f64> = (0..n * n).map(|i| ((i * 7) % 5) as f64).collect();
    let b: Vec<f64> = (0..n * n).map(|i| ((i * 3) % 4) as f64).collect();
    let mut gpu = Gpu::new();
    let da = gpu.alloc_f64(&a);
    let db = gpu.alloc_f64(&b);
    let dc = gpu.alloc_f64(&vec![0.0; n * n]);
    let cfg = LaunchConfig {
        detect_races: true,
        ..LaunchConfig::default()
    };
    let stats = gpu
        .launch(ir, [nb, nb, 1], [32, 32, 1], &[da, db, dc], &cfg)
        .expect("matmul runs clean");

    let c = gpu.read_f64(dc);
    let expect = reference::matmul(&a, &b, n);
    assert_eq!(c, expect);
    println!("\n=== Execution ===");
    println!("{n}x{n} matrix product verified against the scalar reference");
    println!(
        "modeled cycles: {}, global transactions: {}, instructions: {}",
        stats.cycles, stats.global_transactions, stats.instructions
    );
}
