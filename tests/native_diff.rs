//! The corpus-wide differential execution oracle: for every pass-corpus
//! program, the *natively executed* C backend output, the *simulated*
//! execution, and a hand-written *sequential Rust reference* must agree
//! on every CPU buffer, value for value.
//!
//! Three-way, because each pair catches a different failure class:
//! native vs simulator catches C-backend miscompilation (wrong phase
//! fission, wrong atomic spelling, wrong shuffle staging); simulator vs
//! reference catches a simulator bug that the backend faithfully
//! reproduces; native vs reference closes the triangle.
//!
//! Inputs are deterministic and integer-valued, so every f32/f64 sum in
//! every association order is exact and the comparison can demand
//! bitwise equality — reassociation bugs still show up as wrong
//! *values* because the references compute the same integers.
//!
//! When no host C compiler is installed the native leg is skipped with
//! a notice (once), and the simulator-vs-reference leg still runs — the
//! oracle degrades to two-way rather than vanishing.

use descend::compiler::Compiler;
use descend::native::Toolchain;
use descend::sim::LaunchConfig;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::OnceLock;

fn toolchain() -> Option<&'static Toolchain> {
    static TC: OnceLock<Option<Toolchain>> = OnceLock::new();
    TC.get_or_init(|| {
        let tc = Toolchain::detect();
        if tc.is_none() {
            eprintln!(
                "SKIP: no host C compiler found (tried $CC, cc, gcc, clang); \
                 running the simulator-vs-reference legs only"
            );
        }
        tc
    })
    .as_ref()
}

fn corpus_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("examples/descend")
        .join(file)
}

/// Deterministic integer-valued data in `[lo, hi]` (SplitMix-style; no
/// external RNG, stable across runs and platforms).
fn gen(n: usize, seed: u64, lo: i64, hi: i64) -> Vec<f64> {
    let mut s = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(0xD1B5);
    let span = (hi - lo + 1) as u64;
    (0..n)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (lo + ((s >> 33) % span) as i64) as f64
        })
        .collect()
}

fn buffers(entries: &[(&str, Vec<f64>)]) -> HashMap<String, Vec<f64>> {
    entries
        .iter()
        .map(|(n, v)| (n.to_string(), v.clone()))
        .collect()
}

/// One corpus program: its seeded inputs and the sequential reference
/// for every CPU buffer after `main` runs (buffers the program does not
/// write must come back unchanged — the oracle checks them too).
struct Case {
    file: &'static str,
    inputs: HashMap<String, Vec<f64>>,
    expected: HashMap<String, Vec<f64>>,
}

fn block_sums(h: &[f64], block: usize) -> Vec<f64> {
    h.chunks(block).map(|c| c.iter().sum()).collect()
}

fn catalog() -> Vec<Case> {
    let mut cases = Vec::new();

    // scale: h *= 3, in place.
    let h = gen(256, 1, -50, 50);
    cases.push(Case {
        file: "scale.descend",
        inputs: buffers(&[("h", h.clone())]),
        expected: buffers(&[("h", h.iter().map(|v| v * 3.0).collect())]),
    });

    // block_split_3d: planes overwrite h with 1.0 / 2.0 halves.
    cases.push(Case {
        file: "block_split_3d.descend",
        inputs: buffers(&[("h", gen(256, 2, -9, 9))]),
        expected: buffers(&[(
            "h",
            (0..256).map(|i| if i < 128 { 1.0 } else { 2.0 }).collect(),
        )]),
    });

    // fill_generic: both buffers become all-ones.
    cases.push(Case {
        file: "fill_generic.descend",
        inputs: buffers(&[("h1", gen(64, 3, -9, 9)), ("h2", gen(128, 4, -9, 9))]),
        expected: buffers(&[("h1", vec![1.0; 64]), ("h2", vec![1.0; 128])]),
    });

    // dot: hout[b] = Σ ha·hb over the block's 512-element partition.
    let ha = gen(2048, 5, -8, 8);
    let hb = gen(2048, 6, -8, 8);
    let prod: Vec<f64> = ha.iter().zip(&hb).map(|(a, b)| a * b).collect();
    cases.push(Case {
        file: "dot.descend",
        inputs: buffers(&[("ha", ha.clone()), ("hb", hb.clone())]),
        expected: buffers(&[("ha", ha), ("hb", hb), ("hout", block_sums(&prod, 512))]),
    });

    // reduce_tree / reduce_warp_shuffle: per-block sums of a 512
    // partition (the shuffle version finishes the last 32 with a
    // butterfly; same values).
    for (file, seed) in [
        ("reduce_tree.descend", 7),
        ("reduce_warp_shuffle.descend", 8),
    ] {
        let h = gen(2048, seed, -32, 32);
        cases.push(Case {
            file,
            inputs: buffers(&[("h", h.clone())]),
            expected: buffers(&[("sums", block_sums(&h, 512)), ("h", h)]),
        });
    }

    // reduce_atomic: one global f32 total via cross-block atomic_add
    // (small non-negative integers keep every partial sum exact in f32).
    let h = gen(1024, 9, 0, 32);
    cases.push(Case {
        file: "reduce_atomic.descend",
        inputs: buffers(&[("h", h.clone())]),
        expected: buffers(&[("total", vec![h.iter().sum()]), ("h", h)]),
    });

    // histogram: bins[v % 32] += 1 over non-negative values.
    let h = gen(512, 10, 0, 1000);
    let mut bins = vec![0.0; 32];
    for v in &h {
        bins[(*v as i64 % 32) as usize] += 1.0;
    }
    cases.push(Case {
        file: "histogram.descend",
        inputs: buffers(&[("h", h.clone())]),
        expected: buffers(&[("bins", bins), ("h", h)]),
    });

    // argmin_shared: res[0] = min over i of h[i]*256 + ids[i].
    let h = gen(256, 11, 0, 100);
    let ids = gen(256, 12, 0, 255);
    let key = h
        .iter()
        .zip(&ids)
        .map(|(v, i)| v * 256.0 + i)
        .fold(f64::INFINITY, f64::min);
    cases.push(Case {
        file: "argmin_shared.descend",
        inputs: buffers(&[("h", h.clone()), ("ids", ids.clone())]),
        expected: buffers(&[("res", vec![key]), ("h", h), ("ids", ids)]),
    });

    // reverse_shared: every 256-element block of h reversed in place.
    let h = gen(2048, 13, -99, 99);
    let rev: Vec<f64> = h
        .chunks(256)
        .flat_map(|c| c.iter().rev().copied())
        .collect();
    cases.push(Case {
        file: "reverse_shared.descend",
        inputs: buffers(&[("h", h)]),
        expected: buffers(&[("h", rev)]),
    });

    // saxpy_zip: hout = ha * 2 + hb, elementwise f32.
    let ha = gen(2048, 14, -64, 64);
    let hb = gen(2048, 15, -64, 64);
    let hout: Vec<f64> = ha.iter().zip(&hb).map(|(a, b)| a * 2.0 + b).collect();
    cases.push(Case {
        file: "saxpy_zip.descend",
        inputs: buffers(&[("ha", ha.clone()), ("hb", hb.clone())]),
        expected: buffers(&[("ha", ha), ("hb", hb), ("hout", hout)]),
    });

    // scale_stage_f32: h = 2*h + 1 through a staged shared tmp.
    let h = gen(512, 16, -100, 100);
    cases.push(Case {
        file: "scale_stage_f32.descend",
        inputs: buffers(&[("h", h.clone())]),
        expected: buffers(&[("h", h.iter().map(|v| 2.0 * v + 1.0).collect())]),
    });

    // stencil1d_windows: hout[i] = h[i] + h[i+1] + h[i+2].
    let h = gen(2050, 17, -50, 50);
    let hout: Vec<f64> = (0..2048).map(|i| h[i] + h[i + 1] + h[i + 2]).collect();
    cases.push(Case {
        file: "stencil1d_windows.descend",
        inputs: buffers(&[("h", h.clone())]),
        expected: buffers(&[("hout", hout), ("h", h)]),
    });

    // symmetrize_shared: per 256-block, hout[t] = h[t] + h[255 - t].
    let h = gen(1024, 18, -70, 70);
    let hout: Vec<f64> = (0..1024)
        .map(|i| {
            let (b, t) = (i / 256, i % 256);
            h[b * 256 + t] + h[b * 256 + 255 - t]
        })
        .collect();
    cases.push(Case {
        file: "symmetrize_shared.descend",
        inputs: buffers(&[("h", h.clone())]),
        expected: buffers(&[("hout", hout), ("h", h)]),
    });

    cases
}

fn assert_buffers_eq(got: &HashMap<String, Vec<f64>>, want: &HashMap<String, Vec<f64>>, ctx: &str) {
    let mut got_names: Vec<_> = got.keys().collect();
    let mut want_names: Vec<_> = want.keys().collect();
    got_names.sort();
    want_names.sort();
    assert_eq!(got_names, want_names, "{ctx}: buffer sets differ");
    for (name, want_vals) in want {
        let got_vals = &got[name];
        assert_eq!(
            got_vals.len(),
            want_vals.len(),
            "{ctx}: `{name}` length differs"
        );
        for (i, (g, w)) in got_vals.iter().zip(want_vals).enumerate() {
            assert!(g == w, "{ctx}: `{name}`[{i}] differs: got {g}, want {w}");
        }
    }
}

/// The oracle: reference == simulator == native, per program, per
/// buffer, per element. Exact equality throughout — the integer-valued
/// inputs make every floating-point intermediate exact.
#[test]
fn three_way_oracle_over_the_catalog() {
    let tc = toolchain();
    let compiler = Compiler::with_backends(&["c"]).expect("c backend registered");
    let cfg = LaunchConfig {
        detect_races: true,
        ..LaunchConfig::default()
    };
    let mut native_checked = 0;
    for case in catalog() {
        let src = std::fs::read_to_string(corpus_path(case.file)).expect("corpus file");
        let compiled = compiler
            .compile_source(&src)
            .unwrap_or_else(|e| panic!("{}: compile failed:\n{e}", case.file));

        // Leg 1: the simulator against the sequential reference.
        let sim = compiled
            .run_host("main", &case.inputs, &cfg)
            .unwrap_or_else(|e| panic!("{}: simulated run failed: {e}", case.file));
        assert_buffers_eq(
            &sim.cpu,
            &case.expected,
            &format!("{}: simulator vs reference", case.file),
        );

        // Legs 2+3: native execution against both.
        if let Some(tc) = tc {
            let c_source = compiled.target_source("c").expect("c selected");
            let exe = tc
                .compile(c_source)
                .unwrap_or_else(|e| panic!("{}: {e}", case.file));
            let native = exe
                .run("main", &case.inputs)
                .unwrap_or_else(|e| panic!("{}: {e}", case.file));
            assert_buffers_eq(
                &native,
                &case.expected,
                &format!("{}: native vs reference", case.file),
            );
            assert_buffers_eq(
                &native,
                &sim.cpu,
                &format!("{}: native vs simulator", case.file),
            );
            native_checked += 1;
        }
    }
    if tc.is_some() {
        assert_eq!(
            native_checked, 14,
            "every host-carrying corpus program ran natively"
        );
    }
}

/// The catalog is the corpus: every pass-corpus program with a host
/// function appears exactly once above, so a new corpus program cannot
/// silently skip the oracle.
#[test]
fn catalog_covers_the_host_corpus() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/descend");
    let mut with_host: Vec<String> = std::fs::read_dir(&dir)
        .expect("corpus dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "descend"))
        .filter(|p| std::fs::read_to_string(p).unwrap().contains("cpu.thread"))
        .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    with_host.sort();
    let mut covered: Vec<String> = catalog().iter().map(|c| c.file.to_string()).collect();
    covered.sort();
    assert_eq!(covered, with_host, "oracle catalog out of sync with corpus");
}

/// Every emitted C translation unit in the pass corpus — host-carrying
/// or kernel-only — compiles under `-std=c11 -Wall -Werror` with the
/// host toolchain.
#[test]
fn whole_corpus_compiles_with_host_cc() {
    let Some(tc) = toolchain() else {
        return;
    };
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/descend");
    let compiler = Compiler::with_backends(&["c"]).expect("c backend registered");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("corpus dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "descend"))
        .collect();
    files.sort();
    assert!(files.len() >= 15, "expected the full corpus");
    for f in files {
        let name = f.file_name().unwrap().to_string_lossy().into_owned();
        let src = std::fs::read_to_string(&f).unwrap();
        let compiled = compiler
            .compile_source(&src)
            .unwrap_or_else(|e| panic!("{name}: compile failed:\n{e}"));
        let c_source = compiled.target_source("c").expect("c selected");
        let result = if descend::native::has_host_main(c_source) {
            tc.compile(c_source).map(|_| ())
        } else {
            tc.compile_object(c_source)
        };
        result.unwrap_or_else(|e| panic!("{name}: emitted C rejected by host cc:\n{e}"));
    }
}

/// The benchmark generators' kernel-only sources compile too — the
/// native-speed benchmark path depends on it.
#[test]
fn benchmark_sources_compile_with_host_cc() {
    let Some(tc) = toolchain() else {
        return;
    };
    let compiler = Compiler::with_backends(&["c"]).expect("c backend registered");
    for (name, src) in [
        ("reduce", descend::benchmarks::sources::reduce(2048)),
        ("transpose", descend::benchmarks::sources::transpose(256)),
        ("matmul", descend::benchmarks::sources::matmul(64)),
        ("scan", descend::benchmarks::sources::scan_blocks(1 << 12)),
        (
            "reduce_shuffle",
            descend::benchmarks::sources::reduce_shuffle(2048),
        ),
    ] {
        let compiled = compiler
            .compile_source(&src)
            .unwrap_or_else(|e| panic!("bench:{name}: compile failed:\n{e}"));
        let c_source = compiled.target_source("c").expect("c selected");
        let result = if descend::native::has_host_main(c_source) {
            tc.compile(c_source).map(|_| ())
        } else {
            tc.compile_object(c_source)
        };
        result.unwrap_or_else(|e| panic!("bench:{name}: emitted C rejected:\n{e}"));
    }
}

/// A host program whose kernel accumulates through rolled loops — one
/// nested pair reading a row in 2×4 tiles, one storing the row doubled —
/// runs natively from the emitted `for` loops: native == simulator ==
/// reference.
#[test]
fn rolled_loops_run_natively() {
    let src = r#"
fn rows(m: & gpu.global [f64; 512], sums: &uniq gpu.global [f64; 64],
        twice: &uniq gpu.global [f64; 512])
-[grid: gpu.grid<X<2>, X<32>>]-> () {
    sched(X) block in grid {
        sched(X) thread in block {
            let mut acc = 0.0;
            for j in [0..2] {
                for i in [0..4] {
                    acc = acc + (*m).group::<8>.group::<32>[[block]][[thread]].group::<4>[j][i];
                }
            }
            for k in [0..8] {
                (*twice).group::<8>.group::<32>[[block]][[thread]][k] =
                    (*m).group::<8>.group::<32>[[block]][[thread]][k] * 2.0;
            }
            (*sums).group::<32>[[block]][[thread]] = acc;
        }
    }
}

fn main() -[t: cpu.thread]-> () {
    let hm = alloc::<cpu.mem, [f64; 512]>();
    let hs = alloc::<cpu.mem, [f64; 64]>();
    let ht = alloc::<cpu.mem, [f64; 512]>();
    let dm = gpu_alloc_copy(&hm);
    let ds = gpu_alloc_copy(&hs);
    let dt = gpu_alloc_copy(&ht);
    rows<<<X<2>, X<32>>>>(&dm, &uniq ds, &uniq dt);
    copy_mem_to_host(&uniq hs, &ds);
    copy_mem_to_host(&uniq ht, &dt);
}
"#;
    let compiled = Compiler::with_backends(&["c"])
        .expect("c backend registered")
        .compile_source(src)
        .unwrap_or_else(|e| panic!("compile failed:\n{e}"));
    let c_source = compiled.target_source("c").expect("c selected");
    for header in [
        "for (int j = 0; j < 2; j++) {",
        "for (int i = 0; i < 4; i++) {",
        "for (int k = 0; k < 8; k++) {",
    ] {
        assert!(
            c_source.contains(header),
            "`{header}` not rolled:\n{c_source}"
        );
    }
    let hm = gen(512, 21, -9, 9);
    let inputs = buffers(&[("hm", hm.clone())]);
    let expected = buffers(&[
        ("hm", hm.clone()),
        ("hs", hm.chunks(8).map(|row| row.iter().sum()).collect()),
        ("ht", hm.iter().map(|v| v * 2.0).collect()),
    ]);
    let cfg = LaunchConfig {
        detect_races: true,
        ..LaunchConfig::default()
    };
    let sim = compiled
        .run_host("main", &inputs, &cfg)
        .unwrap_or_else(|e| panic!("simulated run failed: {e}"));
    assert_buffers_eq(&sim.cpu, &expected, "rolled loops: simulator vs reference");
    let Some(tc) = toolchain() else {
        return;
    };
    let native = tc
        .compile(c_source)
        .and_then(|exe| exe.run("main", &inputs))
        .unwrap_or_else(|e| panic!("rolled loops: {e}"));
    assert_buffers_eq(&native, &expected, "rolled loops: native vs reference");
    assert_buffers_eq(&native, &sim.cpu, "rolled loops: native vs simulator");
}
