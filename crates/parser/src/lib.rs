//! Lexer and parser for the Descend surface syntax.
//!
//! The grammar follows the paper's listings: function definitions carry an
//! execution-resource annotation `-[name: exec]->`, GPU kernels are
//! launched with `f::<nats><<<GridDim, BlockDim>>>(args)`, computations are
//! scheduled with `sched(D,..) x in e { .. }` and `split(D) e at n { .. }`,
//! and place expressions compose views (`.group::<8>`), selects
//! (`[[thread]]`, `[[block.Y]]`) and indexing (`[i]`).
//!
//! # Examples
//!
//! ```
//! let src = r#"
//!     fn scale(v: &uniq gpu.global [f64; 1024])
//!     -[grid: gpu.grid<X<32>, X<32>>]-> () {
//!         sched(X) block in grid {
//!             sched(X) thread in block {
//!                 (*v).group::<32>[[block]][[thread]] =
//!                     (*v).group::<32>[[block]][[thread]] * 3.0;
//!             }
//!         }
//!     }
//! "#;
//! let program = descend_parser::parse(src).expect("parses");
//! assert_eq!(program.items.len(), 1);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod lexer;
mod parser;

pub use lexer::{tokenize, LexError, Token, TokenKind};
pub use parser::{parse, ParseError};
