//! # riot-rlang
//!
//! An interpreter for a practical subset of the R language, closing the
//! paper's transparency loop: **existing R code runs without modification
//! and automatically gains I/O-efficiency**.
//!
//! The paper achieves this by registering `dbvector`/`dbmatrix` methods
//! with R's generics; this reproduction achieves it by interpreting R
//! source directly and dispatching every vector and matrix operation onto
//! [`riot_core::Session`] — so the very same script text runs under Plain
//! R, Strawman, MatNamed, or full RIOT simply by switching the session's
//! engine.
//!
//! ```
//! use riot_core::{EngineConfig, EngineKind};
//! use riot_rlang::Interpreter;
//!
//! let mut interp = Interpreter::new(EngineConfig::new(EngineKind::Riot));
//! let out = interp
//!     .run("x <- 1:10\ny <- x^2\nprint(sum(y))")
//!     .unwrap();
//! assert_eq!(out.trim(), "[1] 385");
//! ```
//!
//! ## Supported subset
//!
//! * numeric literals (incl. `1e6`), `TRUE`, `FALSE`, string literals;
//! * operators `+ - * / ^ %% %*%`, comparisons, `! & |`, ranges `a:b`;
//! * assignment with `<-`, `=`, and `->`; indexed/masked assignment
//!   `x[i] <- v`;
//! * subscripts `x[i]` with numeric or logical index vectors;
//! * `if`/`else`, `for (v in seq)`, `{ }` blocks, `#` comments;
//! * builtins: `c`, `sqrt`, `abs`, `exp`, `log`, `length`, `sum`, `mean`,
//!   `min`, `max`, `pmin`, `pmax`, `sample`, `print`, `matrix`, `t`,
//!   `nrow`, `ncol`, `seq_len`, `numeric`, `head`, `ifelse`, `rvector`.
//!
//! Function definitions, lists, data frames, and NA semantics are out of
//! scope (see DESIGN.md).

#![deny(unsafe_code)]

pub mod ast;
pub mod interp;
pub mod lexer;
pub mod parser;

pub use ast::{Expr, Stmt};
pub use interp::{Interpreter, RError, RValue};
pub use lexer::{tokenize, Token, TokenKind};
pub use parser::parse_program;
