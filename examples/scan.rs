//! Two-kernel inclusive scan — the paper's Scan benchmark.
//!
//! ```sh
//! cargo run --example scan
//! ```
//!
//! Kernel 1 performs a per-block Hillis-Steele scan with explicit double
//! buffering (each doubling stride is a `split` + `sync` round); the host
//! scans the block sums; kernel 2 adds the block offsets. The paper
//! measures both kernels together, as does the Figure 8 harness.

use descend::benchmarks::{reference, sources};
use descend::compiler::Compiler;
use descend::sim::{Gpu, LaunchConfig};

fn main() {
    let n = 4096usize;
    let bs = sources::BLOCK_SIZE;
    let nb = n / bs;
    let src = format!(
        "{}{}",
        sources::scan_blocks(n),
        sources::scan_add_offsets(n)
    );

    let compiled = Compiler::new()
        .compile_source(&src)
        .unwrap_or_else(|e| panic!("compilation failed:\n{e}"));
    assert_eq!(compiled.kernels.len(), 2);

    let k1 = &compiled.kernels[0].ir;
    let k2 = &compiled.kernels[1].ir;

    let data: Vec<f64> = (0..n).map(|i| ((i % 7) as f64) - 3.0).collect();
    let mut gpu = Gpu::new();
    let io = gpu.alloc_f64(&data);
    let sums = gpu.alloc_f64(&vec![0.0; nb]);
    let cfg = LaunchConfig {
        detect_races: true,
        ..LaunchConfig::default()
    };
    let s1 = gpu
        .launch(k1, [nb as u64, 1, 1], [bs as u64, 1, 1], &[io, sums], &cfg)
        .expect("kernel 1 runs clean");

    // Host-side exclusive scan of the block sums.
    let block_sums = gpu.read_f64(sums);
    let mut offsets = vec![0.0; nb];
    for b in 1..nb {
        offsets[b] = offsets[b - 1] + block_sums[b - 1];
    }
    let offs = gpu.alloc_f64(&offsets);
    let s2 = gpu
        .launch(k2, [nb as u64, 1, 1], [bs as u64, 1, 1], &[io, offs], &cfg)
        .expect("kernel 2 runs clean");

    let result = gpu.read_f64(io);
    let expect = reference::inclusive_scan(&data);
    for i in 0..n {
        assert!((result[i] - expect[i]).abs() < 1e-9, "prefix {i}");
    }
    println!("inclusive scan of {n} elements verified");
    println!(
        "kernel 1: {} cycles ({} barriers); kernel 2: {} cycles; total {}",
        s1.cycles,
        s1.barriers,
        s2.cycles,
        s1.cycles + s2.cycles
    );
}
