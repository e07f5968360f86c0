//! The three input program sets (see README.md for why each was chosen).

use crate::util::{repo_root, Rng};
use descend::benchmarks::sources;
use descend::typeck::{HostStmt, ScalarKind};
use std::collections::HashMap;
use std::path::Path;

/// A named Descend program.
#[derive(Clone)]
pub struct Program {
    pub name: String,
    pub src: String,
}

/// A program the checker must reject, with the answer its hand-written
/// golden (`conformance/*.expected`) or `//~` marker pins.
#[derive(Clone)]
pub struct Reject {
    pub program: Program,
    /// `code:` of the `.expected` file (conformance programs only).
    pub code: Option<String>,
    /// `span:` of the `.expected` file as (line, column).
    pub span: Option<(u64, u64)>,
    /// The `//~` marker: the diagnostic's title (fail/ programs only).
    pub title: Option<String>,
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

fn descend_files(dir: &Path) -> Result<Vec<Program>, String> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_some_and(|e| e == "descend") {
            let name = path
                .file_stem()
                .unwrap_or_default()
                .to_string_lossy()
                .into_owned();
            out.push(Program {
                name,
                src: read(&path)?,
            });
        }
    }
    out.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(out)
}

/// corpus-pass: the `examples/descend/*.descend` programs.
pub fn pass_programs() -> Result<Vec<Program>, String> {
    descend_files(&repo_root()?.join("examples/descend"))
}

/// The corpus-pass programs that carry a host `main`.
pub fn host_programs() -> Result<Vec<Program>, String> {
    let mut all = pass_programs()?;
    all.retain(|p| p.src.contains("fn main"));
    Ok(all)
}

/// corpus-reject: conformance programs, then the `fail/` programs.
pub fn reject_programs() -> Result<Vec<Reject>, String> {
    let root = repo_root()?;
    let mut out = Vec::new();
    for program in descend_files(&root.join("conformance"))? {
        let golden = read(
            &root
                .join("conformance")
                .join(format!("{}.expected", program.name)),
        )?;
        let field = |key: &str| {
            golden
                .lines()
                .find_map(|l| l.strip_prefix(key))
                .map(|v| v.trim().to_string())
        };
        let span = field("span:").and_then(|s| {
            let (l, c) = s.split_once(':')?;
            Some((l.parse().ok()?, c.parse().ok()?))
        });
        out.push(Reject {
            code: field("code:"),
            span,
            title: None,
            program,
        });
    }
    for program in descend_files(&root.join("examples/descend/fail"))? {
        let title = program
            .src
            .lines()
            .next()
            .and_then(|l| l.strip_prefix("//~"))
            .map(|t| t.trim().to_string());
        out.push(Reject {
            code: None,
            span: None,
            title,
            program,
        });
    }
    Ok(out)
}

/// Names of the eight Figure-8 kernels, in the order used everywhere.
pub const FIG8: [&str; 8] = [
    "reduce",
    "reduce_shfl",
    "scan_blocks",
    "scan_add",
    "histogram",
    "stencil",
    "transpose",
    "mm",
];

/// Size parameter of each Figure-8 kernel at paper scale.
pub const FIG8_PAPER: [usize; 8] = [
    1 << 20,
    1 << 20,
    1 << 20,
    1 << 20,
    1 << 20,
    1 << 20,
    1024,
    256,
];

/// Size parameters matching `descend::benchmarks::trace_param`: the
/// footprints small enough for `launch_traced` and the reference
/// executor.
pub const FIG8_TRACE: [usize; 8] = [8192, 8192, 4096, 4096, 1 << 13, 8192, 128, 64];

/// fig8: the Descend source of each Figure-8 kernel at the given sizes.
pub fn fig8_programs(params: &[usize; 8]) -> Vec<Program> {
    let gen: [fn(usize) -> String; 8] = [
        sources::reduce,
        sources::reduce_shuffle,
        sources::scan_blocks,
        sources::scan_add_offsets,
        sources::histogram,
        sources::stencil,
        sources::transpose,
        sources::matmul,
    ];
    FIG8.iter()
        .zip(gen)
        .zip(params)
        .map(|((name, gen), &n)| Program {
            name: (*name).to_string(),
            src: gen(n),
        })
        .collect()
}

/// The seven programs `bench_native` runs.
pub const NATIVE: [&str; 7] = [
    "scale",
    "dot",
    "histogram",
    "reduce_tree",
    "reduce_warp_shuffle",
    "reduce_atomic",
    "stencil1d_windows",
];

/// Seeded inputs for every CPU allocation of a host function: small
/// non-negative integers, so every f32/f64 sum is exact in any
/// association order and outputs can be compared bitwise (the scheme of
/// `tests/native_diff.rs`).
pub fn host_inputs(stmts: &[HostStmt], rng: &mut Rng) -> HashMap<String, Vec<f64>> {
    let mut inputs = HashMap::new();
    for s in stmts {
        if let HostStmt::AllocCpu { name, elem, len } = s {
            let hi = if matches!(elem, ScalarKind::Bool) {
                2
            } else {
                17
            };
            let data = (0..*len).map(|_| rng.below(hi) as f64).collect();
            inputs.insert(name.clone(), data);
        }
    }
    inputs
}
