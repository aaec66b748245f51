//! A small JavaScript engine: lexer, parser, tree-walking interpreter.
//!
//! §4.1 of the paper: "JavaScript codes are much more complex than HTML or
//! CSS codes, and there is no simple approach to find out if they will
//! generate new data transmission without executing them." So the
//! energy-aware browser *executes* scripts during the transmission phase —
//! and this module is the interpreter that makes that meaningful: the
//! corpus scripts build their fetch URLs with string concatenation inside
//! loops, and only evaluation reveals them.
//!
//! The language subset: `var`, `function`/`return`, `if`/`else`, `while`,
//! numbers, strings, booleans, arithmetic, comparison, assignment, string
//! concatenation, and the host API `loadImage(url)`, `loadScript(url)`,
//! `document.write(html)`.
//!
//! Safety: execution is bounded by an operation budget (gas), so arbitrary
//! input — including infinite loops — always terminates.

mod ast;
mod interp;
mod lexer;

pub use ast::{
    parse_program, BinOp, Callee, Expr, Function, Name, ParseError, Program, Stmt, UnaryOp, Var,
};
pub use interp::{execute, JsEffect, JsOutcome, DEFAULT_GAS};
pub use lexer::{lex, JsToken};
