//! SAPA — Sequence Alignment Performance Analysis.
//!
//! A from-scratch Rust reproduction of *"Performance Analysis of
//! Sequence Alignment Applications"* (Sánchez, Salamí, Ramirez, Valero;
//! IISWC 2006): the five sequence-comparison workloads (SSEARCH,
//! SIMD Smith-Waterman at 128 and 256 bits, FASTA, BLAST), the
//! Turandot-like cycle-accurate out-of-order simulator they are
//! characterized on, and everything in between (sequences, scoring
//! matrices, synthetic databases, an Altivec emulation, a virtual ISA
//! with tracing).
//!
//! This crate is a facade: it re-exports the individual crates under
//! one roof so downstream users can depend on a single crate.
//!
//! # The 60-second tour
//!
//! Align two sequences:
//!
//! ```
//! use sapa_core::align::sw;
//! use sapa_core::bioseq::{Sequence, SubstitutionMatrix};
//! use sapa_core::bioseq::matrix::GapPenalties;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let a = Sequence::from_str("a", "HEAGAWGHEE")?;
//! let b = Sequence::from_str("b", "PAWHEAE")?;
//! let score = sw::score(
//!     a.residues(),
//!     b.residues(),
//!     &SubstitutionMatrix::blosum62(),
//!     GapPenalties::paper(),
//! );
//! assert_eq!(score, 17);
//! # Ok(())
//! # }
//! ```
//!
//! Trace a workload and simulate it:
//!
//! ```
//! use sapa_core::workloads::{StandardInputs, Workload};
//! use sapa_core::cpu::{SimConfig, Simulator};
//!
//! let inputs = StandardInputs::small();
//! let bundle = Workload::Blast.trace(&inputs);
//! let report = Simulator::new(SimConfig::four_way()).run(&bundle.trace);
//! assert!(report.ipc() > 0.0);
//! ```

#![forbid(unsafe_code)]

/// Biological sequences, FASTA I/O, scoring matrices, synthetic
/// databases (re-export of `sapa-bioseq`).
pub use sapa_bioseq as bioseq;

/// Reference alignment algorithms (re-export of `sapa-align`).
pub use sapa_align as align;

/// Emulated Altivec vectors (re-export of `sapa-vsimd`).
pub use sapa_vsimd as vsimd;

/// Virtual ISA and instruction traces (re-export of `sapa-isa`).
pub use sapa_isa as isa;

/// Instrumented traced workloads (re-export of `sapa-workloads`).
pub use sapa_workloads as workloads;

/// The cycle-accurate simulator (re-export of `sapa-cpu`).
pub use sapa_cpu as cpu;

pub mod fault;

#[cfg(test)]
mod tests {
    #[test]
    fn facade_paths_resolve() {
        let _ = crate::bioseq::SubstitutionMatrix::blosum62();
        let _ = crate::cpu::SimConfig::four_way();
        assert_eq!(crate::workloads::Workload::ALL.len(), 5);
        assert_eq!(crate::cpu::Trauma::COUNT, 56);
    }
}
