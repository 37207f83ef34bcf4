//! Shared fixtures and harness for the SAPA benchmark suite.
//!
//! The actual benchmarks live in `benches/`; this library provides the
//! deterministic inputs they share so every bench measures the same
//! data, plus [`harness`] — a dependency-free Criterion-shaped timing
//! harness (the container the suite builds in has no crates.io access).

#![forbid(unsafe_code)]

pub mod harness;

use sapa_core::bioseq::db::DatabaseBuilder;
use sapa_core::bioseq::queries::QuerySet;
use sapa_core::bioseq::{AminoAcid, Sequence};

/// The default benchmark query (Glutathione S-transferase stand-in,
/// 222 residues — the paper's reporting query).
pub fn bench_query() -> Sequence {
    QuerySet::paper().default_query().clone()
}

/// A deterministic benchmark database of `n` sequences with planted
/// homologs of the benchmark query.
pub fn bench_db(n: usize) -> Vec<Sequence> {
    let query = bench_query();
    DatabaseBuilder::new()
        .seed(0xBE7C)
        .sequences(n)
        .homolog_template(query)
        .build()
        .sequences()
        .to_vec()
}

/// Residue slices of a database (the form the search APIs take).
pub fn slices(db: &[Sequence]) -> Vec<&[AminoAcid]> {
    db.iter().map(|s| s.residues()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_deterministic() {
        assert_eq!(bench_query().len(), 222);
        assert_eq!(bench_db(5), bench_db(5));
    }
}
