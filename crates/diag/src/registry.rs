//! The stable error-code registry.
//!
//! Every diagnostic the pipeline emits carries a stable `E0xxx` code:
//!
//! - `E00xx` — lexical and syntax errors (`descend_parser`),
//! - `E01xx` — type system and extended borrow checker
//!   (`descend_typeck::ErrorKind`, one code per variant),
//! - `E02xx` — lowering/emission failures (`descend_codegen`,
//!   `descend_backends`).
//!
//! Codes are append-only: a code is never renumbered, reused, or given a
//! different meaning — tools and golden files may key on them forever.
//! Each entry carries the headline `title` (exactly the rendered
//! diagnostic's headline) and a one-paragraph `explanation` served by
//! `descendc explain E0xxx` and indexed in `docs/DIAGNOSTICS.md`.

/// One registry entry: a stable code, its headline, and the long-form
/// explanation `descendc explain` prints.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CodeInfo {
    /// The stable code, e.g. `"E0104"`.
    pub code: &'static str,
    /// The diagnostic headline, e.g. `"barrier not allowed here"`.
    pub title: &'static str,
    /// A one-paragraph explanation of what the error means and how to
    /// fix it.
    pub explanation: &'static str,
}

/// Lexical error: a character or literal outside the language.
pub const INVALID_TOKEN: &str = "E0001";
/// Syntax error: the token stream does not form a program.
pub const SYNTAX_ERROR: &str = "E0002";
/// Lowering or backend emission failed (no source construct to blame).
pub const LOWERING_FAILED: &str = "E0201";

/// Every registered code, in code order. The registry is the single
/// source of truth: `ErrorKind::code` in `descend_typeck` maps into it,
/// `descendc explain` reads it, and `docs/DIAGNOSTICS.md` must index all
/// of it (enforced by `tests/doc_coverage.rs`).
pub const REGISTRY: &[CodeInfo] = &[
    CodeInfo {
        code: INVALID_TOKEN,
        title: "invalid token",
        explanation: "The lexer hit a character or malformed literal that is not part of \
                      the Descend language (for example a stray `#`, an unterminated \
                      comment, or a numeric literal that does not fit its type). The \
                      diagnostic points at the first offending byte. Remove or fix the \
                      token; `docs/LANGUAGE.md` lists the full surface syntax.",
    },
    CodeInfo {
        code: SYNTAX_ERROR,
        title: "syntax error",
        explanation: "The source lexed into tokens but they do not form a grammatical \
                      Descend program. The message names the token the parser found and \
                      what it expected instead, and the span points at the offending \
                      token. Syntax errors are reported one at a time: fix the first and \
                      re-check.",
    },
    CodeInfo {
        code: "E0101",
        title: "mismatched types",
        explanation: "Two types that must agree do not. This also covers memory-space \
                      mismatches such as passing a GPU buffer where `cpu.mem` is required \
                      (the paper's swapped-`cudaMemcpy` example): in Descend the memory \
                      space is part of the reference type, so `copy_mem_to_host` with \
                      swapped arguments is a type error rather than a runtime crash. \
                      Check the annotated types on both sides of the reported span.",
    },
    CodeInfo {
        code: "E0102",
        title: "conflicting memory access",
        explanation: "Two execution resources may touch the same memory in the same \
                      barrier interval and at least one of them writes: a potential data \
                      race, rejected at compile time. The primary span is the later \
                      access; a secondary span marks the prior conflicting one. Make the \
                      accesses disjoint (select per-thread parts with views and \
                      `[[...]]` selects), order them with a block-wide `sync`, or use an \
                      atomic RMW if concurrent updates are intended.",
    },
    CodeInfo {
        code: "E0103",
        title: "narrowing violated",
        explanation: "A unique (writable) access is visible to more execution resources \
                      than it is narrowed to: some scheduling level — named in the \
                      message with its extent — has no select distributing the memory, \
                      so every instance at that level would hold the same unique access \
                      simultaneously. Insert the missing `[[...]]` select (usually via a \
                      `group::<..>` view matching the level's extent) so each instance \
                      owns a distinct part, or make the access shared (read-only), or \
                      use an atomic RMW for concurrent updates.",
    },
    CodeInfo {
        code: "E0104",
        title: "barrier not allowed here",
        explanation: "A `sync` appears at a point not all threads of the block reach — \
                      under a thread-space `split`, only one branch's threads would \
                      arrive and the block would deadlock (the paper's Section 2.2 \
                      example). Hoist the `sync` out of the split so every thread of the \
                      block executes it, or restructure so the exchange happens outside \
                      the divergent region.",
    },
    CodeInfo {
        code: "E0105",
        title: "wrong execution context",
        explanation: "A construct ran on the wrong side of the host/device boundary: \
                      dereferencing `cpu.mem` inside a kernel, `sync` or shared-memory \
                      allocation on the CPU, a warp shuffle in host code. Descend types \
                      every function with its execution resource (`cpu.thread`, \
                      `gpu.grid<..>`), so these are caught statically. Move the \
                      operation to the right side, or copy data across with \
                      `gpu_alloc_copy` / `copy_mem_to_host` first.",
    },
    CodeInfo {
        code: "E0106",
        title: "launch configuration mismatch",
        explanation: "A kernel launch's `<<<Grid, Block>>>` shape differs from the \
                      kernel's `-[grid: gpu.grid<G, B>]->` annotation after substituting \
                      generic nats. The kernel's scheduling and safety analysis are \
                      verified against the annotated shape, so launching with any other \
                      shape is rejected. Fix the launch operands or the annotation.",
    },
    CodeInfo {
        code: "E0107",
        title: "unknown name",
        explanation: "A variable, function, kernel, view, or execution resource name is \
                      not in scope at the use site. The message names the missing \
                      identifier. Check spelling, and that kernels are defined in the \
                      same program they are launched from.",
    },
    CodeInfo {
        code: "E0108",
        title: "use of moved value",
        explanation: "Host buffers are affine values: assigning one to a new binding or \
                      passing it by value moves it, and the original name becomes \
                      unusable. This diagnostic points at a use after such a move. \
                      Borrow (`&h` / `&uniq h`) instead of moving, or reorder so the \
                      move happens last.",
    },
    CodeInfo {
        code: "E0109",
        title: "conflicting borrows",
        explanation: "A new borrow overlaps an existing one in an incompatible way: two \
                      `&uniq` borrows of the same place, or a `&uniq` overlapping a \
                      live shared borrow (Rust's aliasing-xor-mutation rule, applied on \
                      CPU and GPU alike). Drop or scope the first borrow before taking \
                      the second, or make both shared if neither writes.",
    },
    CodeInfo {
        code: "E0110",
        title: "cannot write to this place",
        explanation: "A write targets a place that is not writable: through a shared \
                      (non-`uniq`) reference, or to an immutable `let` binding. Take the \
                      reference as `&uniq`, or declare the binding `let mut`.",
    },
    CodeInfo {
        code: "E0111",
        title: "view cannot be applied",
        explanation: "A view combinator was applied to a shape it does not fit: a \
                      `group::<k>` that does not divide the array length, a `transpose` \
                      of a non-2-D view, `windows::<w, s>` with a tail the stride does \
                      not cover exactly, an unprojected `zip` used as memory. The \
                      message names the view and the offending shape. Adjust the view \
                      parameters to the array's actual extent.",
    },
    CodeInfo {
        code: "E0112",
        title: "select size mismatch",
        explanation: "A `[[...]]` select distributes an array over an execution level, \
                      which requires the array extent to equal the level's extent — \
                      otherwise some instances would have no element or elements would \
                      be left over. Reshape with `group::<..>` (or `split`) until the \
                      selected dimension matches the number of blocks/threads/lanes \
                      selecting it.",
    },
    CodeInfo {
        code: "E0113",
        title: "where clause violated",
        explanation: "Instantiating a generic function with concrete nats falsified one \
                      of its `where` constraints (for example `n == nb * 512` with \
                      `n = 100, nb = 2`). The constraints are exactly what makes the \
                      function's internal scheduling sound, so the instantiation is \
                      rejected. Pass nat arguments satisfying the clause, or generalize \
                      the clause if it is stricter than the body needs.",
    },
    CodeInfo {
        code: "E0114",
        title: "invalid schedule",
        explanation: "A `sched`/`split`/`to_warps` misuses the execution hierarchy: \
                      scheduling a dimension the resource does not have, scheduling the \
                      same dimension twice, splitting at a point outside the extent, \
                      `to_warps` on a 2-D or non-warp-multiple block, or scheduling on \
                      the CPU. The message names the dimension and resource. Consult the \
                      grid → blocks → warps → lanes hierarchy in `docs/LANGUAGE.md`.",
    },
    CodeInfo {
        code: "E0115",
        title: "invalid shuffle",
        explanation: "A warp shuffle (`shfl_down`/`shfl_xor`) is used outside its narrow \
                      validity window: outside warp-level scheduling, with unscheduled \
                      warp/lane dimensions, under a lane-space split (a divergent warp \
                      cannot exchange), with distance 0, or with a distance reaching \
                      across the 32-lane warp boundary — the message names the offending \
                      distance. Keep exchanges within one warp and stage anything wider \
                      through shared memory and a `sync`.",
    },
    CodeInfo {
        code: "E0116",
        title: "shadowing is not allowed",
        explanation: "A binding re-uses a name already bound in scope. Descend rejects \
                      shadowing so that every place expression has a unique root — the \
                      conflict and narrowing analyses identify memory by those roots, \
                      and shadowed roots would let two different buffers alias one name \
                      (including shadowing introduced through views). Rename the new \
                      binding.",
    },
    CodeInfo {
        code: "E0117",
        title: "wrong number of arguments",
        explanation: "A call site's argument or generic-argument count differs from the \
                      callee's signature: kernel launches must supply every declared \
                      parameter and nat, and builtins have fixed arities. The message \
                      names the callee and both counts.",
    },
    CodeInfo {
        code: "E0118",
        title: "unsupported construct",
        explanation: "The construct is outside the checked subset this compiler \
                      implements: non-`nat` generics, kernel parameters that are not \
                      references, host functions with parameters, moves out of arrays, \
                      unsupported scalar types, and similar. The message states the \
                      specific restriction. `docs/DESIGN.md` documents the intentional \
                      divergences from the paper.",
    },
    CodeInfo {
        code: "E0119",
        title: "index out of bounds",
        explanation: "A statically evaluable index provably escapes the array's bounds, \
                      like indexing element 9 of an 8-element shared array. Descend \
                      indexes are static (or select-derived) wherever possible, so this \
                      is caught at compile time rather than corrupting memory at \
                      runtime.",
    },
    CodeInfo {
        code: "E0120",
        title: "size is not statically known",
        explanation: "A nat that the checker must evaluate — an array extent, a view \
                      parameter, a launch shape, a `where` operand — could not be \
                      reduced to a literal: it references an undefined nat variable or \
                      an unsubstituted generic. All shapes in Descend are static; bind \
                      the value as a `const`, a generic nat argument, or a literal.",
    },
    CodeInfo {
        code: "E0121",
        title: "for-nat loop exceeds the iteration budget",
        explanation: "A for-nat loop's trip count is compile-time work: the checker \
                      checks a loop it cannot check once (a body with a barrier, a `let`, \
                      a `split`, a variable reaching a view or split position) once per \
                      iteration, and the IR lowering unrolls every iteration of every \
                      loop, however it was checked. Each kernel instance may run at most \
                      4096 for-nat iterations in total, nested loops drawing from the \
                      same count; a `[lo..hi]` loop whose trip count exceeds what is left \
                      is rejected at loop entry, before any iteration is checked. The \
                      message gives the trip count and the remaining budget.",
    },
    CodeInfo {
        code: "E0122",
        title: "function name collides with a generic instance",
        explanation: "A kernel instance is identified by its mangled name: the generic \
                      function's name, two underscores, and its nat arguments joined by \
                      single underscores, so `fill::<64, 2>` is `fill__64_2`. A \
                      non-generic function with such a name would be taken for the \
                      instance, or the instance for it, and one of the two bodies would \
                      go unchecked and uncompiled. Every function whose name one of the \
                      program's generic functions could mangle to is therefore rejected; \
                      rename it.",
    },
    CodeInfo {
        code: "E0123",
        title: "item defined twice",
        explanation: "Two functions, two views or two constants of one program share a \
                      name. Items are looked up by name, so the first definition would \
                      be used wherever the name appears and the second ignored — for a \
                      function, its body would go unchecked and uncompiled. The second \
                      definition is rejected, with the first marked; rename one of them. \
                      A function, a view and a constant may still share a name: they are \
                      looked up in different places.",
    },
    CodeInfo {
        code: LOWERING_FAILED,
        title: "lowering failed",
        explanation: "The type checker accepted the program but the IR lowering or a \
                      backend emitter could not translate it — for example an atomic \
                      scatter index whose bound is not a literal at emission time. These \
                      errors carry no source span (they arise from the elaborated form, \
                      not a single construct). They usually indicate a construct \
                      combination the backends do not support yet; the message has the \
                      details.",
    },
];

/// Looks up a code's registry entry.
pub fn lookup(code: &str) -> Option<&'static CodeInfo> {
    REGISTRY.iter().find(|i| i.code == code)
}

/// The registry title of `code`.
///
/// # Panics
///
/// On an unregistered code — diagnostics are only constructed through
/// [`crate::Diagnostic::coded`], so an unknown code is a compiler bug.
pub fn title(code: &str) -> &'static str {
    lookup(code)
        .unwrap_or_else(|| panic!("error code `{code}` is not in the registry"))
        .title
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_sorted_and_well_formed() {
        for w in REGISTRY.windows(2) {
            assert!(w[0].code < w[1].code, "{} !< {}", w[0].code, w[1].code);
        }
        for i in REGISTRY {
            assert!(
                i.code.len() == 5 && i.code.starts_with('E'),
                "malformed code {}",
                i.code
            );
            assert!(
                i.code[1..].bytes().all(|b| b.is_ascii_digit()),
                "malformed code {}",
                i.code
            );
            assert!(!i.title.is_empty() && !i.explanation.is_empty());
            assert!(
                i.explanation.split_whitespace().count() >= 20,
                "{}: explanation should be a real paragraph",
                i.code
            );
        }
    }

    #[test]
    fn lookup_finds_and_misses() {
        assert_eq!(lookup("E0104").unwrap().title, "barrier not allowed here");
        assert_eq!(lookup(SYNTAX_ERROR).unwrap().title, "syntax error");
        assert!(lookup("E9999").is_none());
    }
}
