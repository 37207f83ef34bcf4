//! Biological sequence substrate for the SAPA workload-characterization
//! suite.
//!
//! This crate provides everything the alignment applications need that the
//! original paper took from the biology world:
//!
//! * a typed amino-acid [`alphabet`] (the 24-symbol NCBI protein alphabet),
//! * owned [`seq::Sequence`]s and streaming [`fasta`] I/O,
//! * substitution [`matrix::SubstitutionMatrix`] support including the
//!   canonical BLOSUM62 table used throughout the paper,
//! * a deterministic [`db`] generator that synthesizes a SwissProt-like
//!   protein database (background composition, log-normal lengths, planted
//!   homologs), and
//! * the paper's Table II [`queries`] reproduced at the same lengths.
//!
//! # Quick example
//!
//! ```
//! use sapa_bioseq::db::DatabaseBuilder;
//! use sapa_bioseq::queries::QuerySet;
//!
//! let queries = QuerySet::paper();
//! let gst = queries.by_family("Glutathione S-transferase").unwrap();
//! assert_eq!(gst.len(), 222);
//!
//! let db = DatabaseBuilder::new().seed(42).sequences(100).build();
//! assert_eq!(db.len(), 100);
//! assert!(db.total_residues() > 10_000);
//! ```

#![forbid(unsafe_code)]

pub mod alphabet;
pub mod compose;
pub mod db;
pub mod dna;
pub mod fasta;
pub mod index;
pub mod matrix;
pub mod profile;
pub mod queries;
pub mod rng;
pub mod seq;

pub use alphabet::AminoAcid;
pub use db::{Database, DatabaseBuilder};
pub use matrix::SubstitutionMatrix;
pub use profile::{ProfileCache, QueryProfile};
pub use seq::Sequence;

/// Errors produced by this crate.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// A byte could not be interpreted as an amino-acid code.
    InvalidResidue {
        /// The offending byte.
        byte: u8,
        /// Zero-based position in the input at which it occurred.
        position: usize,
    },
    /// A FASTA stream was structurally malformed.
    MalformedFasta {
        /// Human-readable description of the problem.
        reason: String,
        /// One-based line number of the problem, if known.
        line: Option<usize>,
    },
    /// An on-disk database index was corrupt or structurally invalid.
    InvalidIndex {
        /// Human-readable description of the inconsistency.
        reason: String,
    },
    /// An underlying I/O error.
    Io(std::io::Error),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::InvalidResidue { byte, position } => {
                write!(
                    f,
                    "invalid amino-acid byte {byte:#04x} ({:?}) at position {position}",
                    *byte as char
                )
            }
            Error::MalformedFasta { reason, line } => match line {
                Some(line) => write!(f, "malformed FASTA at line {line}: {reason}"),
                None => write!(f, "malformed FASTA: {reason}"),
            },
            Error::InvalidIndex { reason } => write!(f, "invalid database index: {reason}"),
            Error::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, Error>;
