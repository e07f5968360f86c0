//! Block-wide parallel tree reduction — the paper's first benchmark.
//!
//! ```sh
//! cargo run --example reduce
//! ```
//!
//! Shows `split` refining the execution hierarchy (the active half of the
//! block shrinks each round), the `halving` for-nat range, and barrier
//! placement — all statically verified.

use descend::benchmarks::{reference, sources};
use descend::compiler::Compiler;
use descend::sim::{Gpu, LaunchConfig};

fn main() {
    let n = 8192usize;
    let bs = sources::BLOCK_SIZE;
    let nb = n / bs;
    let src = sources::reduce(n);
    println!("=== Descend source ===\n{src}");

    let compiled = Compiler::new()
        .compile_source(&src)
        .unwrap_or_else(|e| panic!("compilation failed:\n{e}"));
    let ir = &compiled.kernels[0].ir;

    let data: Vec<f64> = (0..n).map(|i| ((i % 13) as f64) * 0.5).collect();
    let mut gpu = Gpu::new();
    let inp = gpu.alloc_f64(&data);
    let out = gpu.alloc_f64(&vec![0.0; nb]);
    let cfg = LaunchConfig {
        detect_races: true,
        ..LaunchConfig::default()
    };
    let stats = gpu
        .launch(ir, [nb as u64, 1, 1], [bs as u64, 1, 1], &[inp, out], &cfg)
        .expect("reduction runs clean");

    let sums = gpu.read_f64(out);
    let expect = reference::block_sums(&data, bs);
    for b in 0..nb {
        assert!((sums[b] - expect[b]).abs() < 1e-9);
    }
    println!("=== Execution ===");
    println!("{nb} block sums computed correctly over {n} elements");
    println!("first sums: {:?}", &sums[..4.min(nb)]);
    println!(
        "modeled cycles: {}, barriers: {}, shared replays: {}",
        stats.cycles, stats.barriers, stats.shared_replays
    );
}
