//! The lint rule families, each in its own module, all consuming the
//! shared source model ([`crate::lexer`] / [`crate::parser`] /
//! [`crate::callgraph`]) instead of raw text.
//!
//! Pattern rules (scoped by the *derived* coverage sets):
//! * [`panic`] — panicking constructs banned on the migration hot path.
//! * [`recovery`] — panicking constructs banned in recovery code:
//!   rollback/recover/degrade/abort functions anywhere, and the whole
//!   `mempod-faults` crate.
//! * [`print`] — ad-hoc printing banned in the simulation pipeline.
//! * [`cast`] — bare integer `as` casts banned in address arithmetic.
//! * [`api`] — doc/`Debug` coverage of the public API crates.
//!
//! Semantic rules the old line-scanner could not express:
//! * [`units`] — arithmetic mixing differently-suffixed time units.
//! * [`addr_arith`] — unchecked arithmetic on raw address integers.
//! * [`ignored_result`] — discarded `Result`/`#[must_use]` values.
//!
//! Determinism rules (scoped to the derived hot-path files; a sharded run
//! must reproduce a one-shard run):
//! * [`nondet`] — `nondet-iter`/`nondet-float-reduce`: HashMap/HashSet
//!   iteration (and float reductions over it) on simulation-visible state.
//! * [`clock`] — `nondet-clock`: wall-clock reads on the hot path.
//! * [`interior_mut`] — `interior-mut`: `static mut`, `thread_local!`,
//!   cells and locks that hide writes behind shared references.
//! * [`span`] — `unsampled-span`: span events built on the tick path
//!   without going through the sampling-aware helpers.
//!
//! Meta-lint:
//! * [`coverage`] — pipeline modules that escape the derived coverage.
//!
//! The concurrency rules (`lock-order-cycle`, `atomic-ordering-mismatch`)
//! live in [`crate::sync_pass`].

pub mod addr_arith;
pub mod api;
pub mod cast;
pub mod clock;
pub mod coverage;
pub mod ignored_result;
pub mod interior_mut;
pub mod nondet;
pub mod panic;
pub mod print;
pub mod recovery;
pub mod span;
pub mod units;

use crate::lint::Violation;
use crate::parser::ParsedFile;

/// Builds a violation anchored at byte offset `pos` of `pf`.
pub(crate) fn violation(
    rel: &str,
    pf: &ParsedFile,
    line: u32,
    pos: usize,
    rule: &str,
    message: String,
) -> Violation {
    Violation {
        file: rel.to_string(),
        line: line as usize,
        rule: rule.to_string(),
        message,
        snippet: pf.snippet_at(pos),
        allowed: false,
        baselined: false,
    }
}
