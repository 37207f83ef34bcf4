//! The experiment harness: every table and figure of the paper as a
//! runnable, deterministic experiment.
//!
//! Each experiment lives in [`experiments`] and renders its result as
//! plain text (the same rows/series the paper plots). The `repro`
//! binary dispatches on experiment ids (`table1` … `fig11`, `all`).
//!
//! ```
//! use sapa_repro::context::{Context, Scale};
//! use sapa_repro::experiments;
//!
//! let mut ctx = Context::new(Scale::Tiny);
//! let out = experiments::table3::run(&mut ctx);
//! assert!(out.contains("SSEARCH34"));
//! ```

#![forbid(unsafe_code)]

pub mod context;
pub mod experiments;
pub mod format;
pub mod sweep;
