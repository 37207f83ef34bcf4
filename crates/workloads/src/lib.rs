//! Instrumented sequence-alignment workloads.
//!
//! Each module in this crate is one of the paper's five applications
//! (Table I), implemented so that it **computes the real result** (the
//! scores are cross-checked against [`sapa_align`]'s reference
//! implementations in the test suite) while **emitting an instruction
//! trace** through [`sapa_isa::trace::Tracer`] that mirrors the dynamic
//! instruction stream of the original compiled code: the same loads
//! from the same data-structure layouts, the same data-dependent branch
//! outcomes, the same register dependence chains.
//!
//! | Module | Paper workload | Character |
//! |--------|----------------|-----------|
//! | [`ssearch`] | `SSEARCH34` | branchy scalar Smith-Waterman (lazy gap states) |
//! | [`sw_simd`] (L=8) | `SW_vmx128` | anti-diagonal Altivec SW |
//! | [`sw_simd`] (L=16) | `SW_vmx256` | 256-bit Altivec SW |
//! | [`fasta`] | `FASTA34` | k-tuple heuristic |
//! | [`blast`] | `BLAST` (blastp) | neighborhood-word heuristic |
//! | [`blastn`] | extension: blastn | packed-DNA scan (paper Listing 1) |
//!
//! [`registry::Workload`] ties them together behind one enum, and
//! [`registry::StandardInputs`] builds the suite's default query +
//! database (deterministic, Table II's Glutathione S-transferase
//! stand-in against the synthetic SwissProt-like database).
//!
//! ```
//! use sapa_workloads::registry::{StandardInputs, Workload};
//!
//! let inputs = StandardInputs::small(); // tiny inputs for doc tests
//! let bundle = Workload::Blast.trace(&inputs);
//! assert!(bundle.trace.len() > 0);
//! ```

#![forbid(unsafe_code)]

pub mod blast;
pub mod blastn;
pub mod fasta;
pub mod layout;
pub mod registry;
pub mod ssearch;
pub mod sw_simd;

pub use registry::{StandardInputs, TraceBundle, Workload};
