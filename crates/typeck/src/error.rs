//! Type errors and their rendering as paper-style diagnostics.

use descend_ast::Span;
use descend_diag::Diagnostic;
use std::fmt;

/// The structured kind of a type error; tests match on this.
#[derive(Clone, Debug, PartialEq)]
pub enum ErrorKind {
    /// Two types that should match do not (also covers memory-space
    /// mismatches, reproducing the paper's `copy_mem_to_host` example).
    MismatchedTypes,
    /// A conflicting memory access (potential data race).
    ConflictingAccess,
    /// A unique access without proper narrowing selects.
    NarrowingViolation,
    /// `sync` under a thread-space split (paper Section 2.2).
    BarrierNotAllowed,
    /// Dereferencing memory in the wrong execution context
    /// (paper Section 2.3: `cpu.mem` on the GPU).
    WrongExecutionContext,
    /// Launch configuration does not match the kernel's annotation.
    LaunchConfigMismatch,
    /// Unknown variable, function, or view.
    UnknownName,
    /// Use of a moved value.
    MovedValue,
    /// Conflicting borrows.
    BorrowConflict,
    /// Writing through a shared reference or to an immutable binding.
    NotWritable,
    /// A view was misapplied (shape errors, arity, ...).
    ViewMisapplied,
    /// Select count mismatch: array extent differs from the execution
    /// resource extent.
    SelectSizeMismatch,
    /// A `where` clause was violated at instantiation.
    WhereClauseViolated,
    /// Scheduling error (missing dimension, double scheduling, ...).
    ScheduleError,
    /// An illegal warp shuffle: outside warp-level scheduling, under a
    /// lane-space split (warp divergence), or a distance that reaches
    /// across the warp boundary.
    ShuffleError,
    /// Shadowing is rejected to keep place roots unique.
    Shadowing,
    /// Arity mismatch in calls or generics.
    ArityMismatch,
    /// A feature the checker intentionally does not support.
    Unsupported,
    /// Index provably out of bounds.
    OutOfBounds,
    /// A nat that must be statically evaluated could not be.
    NonStaticNat,
    /// A for-nat loop whose trip count exceeds what is left of the
    /// kernel instance's iteration budget.
    LoopBudgetExceeded,
    /// A non-generic function named like an instance of a generic one
    /// (`fill__64_2` beside `fill<n, c>`): instances are identified by
    /// those names.
    InstanceNameCollision,
    /// Two items of one kind (functions, views or constants) share a
    /// name: a later definition would shadow the first, and a second
    /// function's body would go unchecked.
    DuplicateItem,
}

impl ErrorKind {
    /// Every variant, in declaration (= code) order. Coverage tests
    /// iterate this to demand a conformance program and a documentation
    /// entry per kind.
    pub const ALL: [ErrorKind; 23] = [
        ErrorKind::MismatchedTypes,
        ErrorKind::ConflictingAccess,
        ErrorKind::NarrowingViolation,
        ErrorKind::BarrierNotAllowed,
        ErrorKind::WrongExecutionContext,
        ErrorKind::LaunchConfigMismatch,
        ErrorKind::UnknownName,
        ErrorKind::MovedValue,
        ErrorKind::BorrowConflict,
        ErrorKind::NotWritable,
        ErrorKind::ViewMisapplied,
        ErrorKind::SelectSizeMismatch,
        ErrorKind::WhereClauseViolated,
        ErrorKind::ScheduleError,
        ErrorKind::ShuffleError,
        ErrorKind::Shadowing,
        ErrorKind::ArityMismatch,
        ErrorKind::Unsupported,
        ErrorKind::OutOfBounds,
        ErrorKind::NonStaticNat,
        ErrorKind::LoopBudgetExceeded,
        ErrorKind::InstanceNameCollision,
        ErrorKind::DuplicateItem,
    ];

    /// The stable error code of this kind, one per variant in
    /// declaration order (`descend_diag::registry` is the source of
    /// truth for titles and explanations; `descendc explain` serves
    /// them).
    pub fn code(&self) -> &'static str {
        match self {
            ErrorKind::MismatchedTypes => "E0101",
            ErrorKind::ConflictingAccess => "E0102",
            ErrorKind::NarrowingViolation => "E0103",
            ErrorKind::BarrierNotAllowed => "E0104",
            ErrorKind::WrongExecutionContext => "E0105",
            ErrorKind::LaunchConfigMismatch => "E0106",
            ErrorKind::UnknownName => "E0107",
            ErrorKind::MovedValue => "E0108",
            ErrorKind::BorrowConflict => "E0109",
            ErrorKind::NotWritable => "E0110",
            ErrorKind::ViewMisapplied => "E0111",
            ErrorKind::SelectSizeMismatch => "E0112",
            ErrorKind::WhereClauseViolated => "E0113",
            ErrorKind::ScheduleError => "E0114",
            ErrorKind::ShuffleError => "E0115",
            ErrorKind::Shadowing => "E0116",
            ErrorKind::ArityMismatch => "E0117",
            ErrorKind::Unsupported => "E0118",
            ErrorKind::OutOfBounds => "E0119",
            ErrorKind::NonStaticNat => "E0120",
            ErrorKind::LoopBudgetExceeded => "E0121",
            ErrorKind::InstanceNameCollision => "E0122",
            ErrorKind::DuplicateItem => "E0123",
        }
    }
}

impl fmt::Display for ErrorKind {
    /// Displays the registry title of the kind's code, so every user-
    /// facing surface (corpus markers, rendered headlines, docs) uses
    /// one canonical phrase per code.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", descend_diag::registry::title(self.code()))
    }
}

/// A type error: a structured kind plus a renderable diagnostic.
///
/// The diagnostic is boxed: `TResult<T>` flows through every checker
/// function, and keeping the `Err` variant pointer-sized keeps those
/// returns cheap (clippy's `result_large_err`).
#[derive(Clone, Debug)]
pub struct TypeError {
    /// The structured kind.
    pub kind: ErrorKind,
    /// The renderable diagnostic.
    pub diag: Box<Diagnostic>,
}

impl TypeError {
    /// Creates an error from a kind, span and primary message. The
    /// diagnostic carries the kind's stable code and registry title.
    pub fn new(kind: ErrorKind, span: Span, msg: impl Into<String>) -> TypeError {
        let code = kind.code();
        TypeError {
            kind,
            diag: Box::new(Diagnostic::coded(code, span, msg)),
        }
    }

    /// Attaches a secondary label.
    pub fn with_secondary(mut self, span: Span, msg: impl Into<String>) -> TypeError {
        self.diag = Box::new((*self.diag).with_secondary(span, msg));
        self
    }

    /// Attaches help text.
    pub fn with_help(mut self, msg: impl Into<String>) -> TypeError {
        self.diag = Box::new((*self.diag).with_help(msg));
        self
    }
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind, self.diag.primary.message)
    }
}

impl std::error::Error for TypeError {}

#[cfg(test)]
mod tests {
    use super::*;
    use descend_diag::registry;

    #[test]
    fn all_is_in_code_order_and_codes_are_dense() {
        for (i, k) in ErrorKind::ALL.iter().enumerate() {
            assert_eq!(k.code(), format!("E01{:02}", i + 1), "{k:?}");
        }
    }

    #[test]
    fn every_kind_is_registered_with_matching_title() {
        for k in ErrorKind::ALL {
            let info = registry::lookup(k.code())
                .unwrap_or_else(|| panic!("{k:?} ({}) missing from registry", k.code()));
            assert_eq!(info.title, k.to_string(), "{k:?}");
        }
    }

    #[test]
    fn type_error_diag_carries_the_code() {
        let e = TypeError::new(
            ErrorKind::BarrierNotAllowed,
            descend_ast::Span::new(0, 4),
            "`sync` here",
        );
        assert_eq!(e.diag.code, Some("E0104"));
        assert!(e.diag.render("sync;").starts_with("error[E0104]: "));
    }
}
