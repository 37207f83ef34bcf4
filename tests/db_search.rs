//! End-to-end tests for the on-disk database path: `dbbuild`-style
//! index construction to a real file, `IndexReader::open`, and
//! `Engine::search_indexed` across every exact engine, with and
//! without the k-mer seed prefilter.

use sapa_core::align::engine::{Engine, Prefilter, SearchRequest, SearchResponse};
use sapa_core::bioseq::db::DatabaseBuilder;
use sapa_core::bioseq::index::{IndexBuilder, IndexReader, DEFAULT_WORD_LEN};
use sapa_core::bioseq::matrix::GapPenalties;
use sapa_core::bioseq::queries::QuerySet;
use sapa_core::bioseq::{AminoAcid, Sequence, SubstitutionMatrix};

fn corpus(seed: u64, n: usize) -> Vec<Sequence> {
    let query = QuerySet::paper().default_query().clone();
    DatabaseBuilder::new()
        .seed(seed)
        .sequences(n)
        .homolog_template(query)
        .homolog_fraction(0.05)
        .build()
        .sequences()
        .to_vec()
}

/// Writes `seqs` to a throwaway index file and opens it, exercising
/// the same file-backed path `protein_search --db` uses.
fn open_on_disk(name: &str, seqs: &[Sequence]) -> IndexReader<std::io::BufReader<std::fs::File>> {
    let dir = std::env::temp_dir().join("sapa_db_search_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    IndexBuilder::new()
        .shard_residues(16 * 1024)
        .write_file(seqs, &path)
        .unwrap();
    IndexReader::open(&path).unwrap()
}

fn request<'a>(
    query: &'a [AminoAcid],
    matrix: &'a SubstitutionMatrix,
    prefilter: Prefilter,
) -> SearchRequest<'a> {
    SearchRequest {
        query,
        matrix,
        gaps: GapPenalties::paper(),
        top_k: 50,
        // The seed prefilter is exact only for hits that share an
        // exact 5-mer with the query; a word-free subject is pruned
        // whatever it scores, planted homologs included on some
        // corpora (see `sapa_align::indexed`'s tests). Equivalence
        // with the exhaustive scan is asserted above 60 on these fixed
        // corpora, whose hits above it all share a word.
        min_score: 60,
        deadline: None,
        report_alignments: false,
        prefilter,
    }
}

/// Every exact engine must produce the identical ranked hit list on
/// the file-backed indexed path: exhaustive matches the in-memory
/// reference, and the default seed prefilter matches exhaustive.
#[test]
fn every_exact_engine_agrees_on_disk_with_and_without_prefilter() {
    let seqs = corpus(71, 150);
    let query = QuerySet::paper().default_query().clone();
    let m = SubstitutionMatrix::blosum62();
    let mut db = open_on_disk("exact_engines.sapadb", &seqs);

    // In-memory reference over the reader's own (length-sorted) order.
    let sorted = db.read_all().unwrap();
    let slices: Vec<&[AminoAcid]> = sorted.iter().map(|s| s.residues()).collect();
    let off = request(query.residues(), &m, Prefilter::Off);
    let reference = Engine::Striped.search(&off, &slices, 1);
    assert!(
        !reference.hits.is_empty(),
        "corpus must contain significant hits"
    );

    for engine in Engine::ALL {
        if !engine.is_exact() {
            continue;
        }
        let exhaustive = engine.search_indexed(&off, &mut db, 1).unwrap();
        assert_eq!(
            exhaustive.hits,
            reference.hits,
            "{} exhaustive indexed scan differs from in-memory striped",
            engine.name()
        );

        let seeded_req = request(query.residues(), &m, Prefilter::DEFAULT_SEED);
        let seeded = engine.search_indexed(&seeded_req, &mut db, 1).unwrap();
        assert!(
            seeded.stats.pruned > 0,
            "{} prefilter must prune on this corpus",
            engine.name()
        );
        assert_eq!(
            seeded.hits,
            exhaustive.hits,
            "{} seed prefilter lost ranked hits",
            engine.name()
        );
    }
}

/// Subjects shorter than the seed word length can never share a word
/// with the query; the prefilter must admit them unconditionally
/// rather than silently drop them.
#[test]
fn short_subjects_survive_the_prefilter_on_disk() {
    let mut seqs = corpus(73, 60);
    // Plant a perfect short match for a short probe query.
    seqs.push(Sequence::from_str("tiny1", "MKW").unwrap());
    seqs.push(Sequence::from_str("tiny2", "WWWW").unwrap());
    let mut db = open_on_disk("short_subjects.sapadb", &seqs);
    assert!(
        (db.lengths()[0] as usize) < DEFAULT_WORD_LEN,
        "length-sorted order must put the short subjects first"
    );

    let query = QuerySet::paper().default_query().clone();
    let m = SubstitutionMatrix::blosum62();
    let mut req = request(query.residues(), &m, Prefilter::DEFAULT_SEED);
    req.min_score = 1; // count everything, even tiny scores
    let resp = Engine::Sw.search_indexed(&req, &mut db, 1).unwrap();
    // The short subjects were scored (attempted), not pruned.
    assert_eq!(
        resp.stats.subjects + resp.stats.pruned,
        seqs.len(),
        "every subject is scored or pruned"
    );
    assert!(resp.stats.subjects >= 2, "short subjects must be admitted");
}

/// The x-drop gated `SeedExtend` prefilter is a documented heuristic:
/// it may drop hits, but whatever it reports must be a subset of the
/// exhaustive ranking with identical scores.
#[test]
fn seed_extend_reports_a_subset_of_the_exhaustive_ranking() {
    let seqs = corpus(79, 150);
    let query = QuerySet::paper().default_query().clone();
    let m = SubstitutionMatrix::blosum62();
    let mut db = open_on_disk("seed_extend.sapadb", &seqs);

    let off = request(query.residues(), &m, Prefilter::Off);
    let exhaustive = Engine::Striped.search_indexed(&off, &mut db, 1).unwrap();
    let ext_req = request(
        query.residues(),
        &m,
        Prefilter::SeedExtend {
            min_diag_seeds: 1,
            x: 20,
            min_extended: 15,
        },
    );
    let extended = Engine::Striped
        .search_indexed(&ext_req, &mut db, 1)
        .unwrap();

    let mut exhaustive_iter = exhaustive.hits.iter();
    for hit in &extended.hits {
        assert!(
            exhaustive_iter.any(|h| h == hit),
            "SeedExtend produced a hit absent from the exhaustive ranking: {hit:?}"
        );
    }
    assert!(extended.stats.pruned >= exhaustive.stats.pruned);
}

/// The indexed path must be bit-for-bit deterministic in the worker
/// thread count, like the in-memory pipeline.
#[test]
fn indexed_file_search_is_thread_count_invariant() {
    let seqs = corpus(83, 100);
    let query = QuerySet::paper().default_query().clone();
    let m = SubstitutionMatrix::blosum62();
    let mut db = open_on_disk("threads.sapadb", &seqs);
    let req = request(query.residues(), &m, Prefilter::DEFAULT_SEED);

    let one = Engine::Vmx128.search_indexed(&req, &mut db, 1).unwrap();
    for threads in [2, 3] {
        let mut resp: SearchResponse = Engine::Vmx128
            .search_indexed(&req, &mut db, threads)
            .unwrap();
        assert_eq!(resp.stats.threads, threads);
        resp.stats.threads = one.stats.threads;
        assert_eq!(resp, one, "threads={threads}");
    }
}

/// Two builds of the same corpus are byte-identical, and the reported
/// survival statistics add up: scored + pruned = database size.
#[test]
fn build_is_deterministic_and_survival_accounting_is_closed() {
    let seqs = corpus(89, 80);
    let mut a = Vec::new();
    let mut b = Vec::new();
    IndexBuilder::new().write(&seqs, &mut a).unwrap();
    IndexBuilder::new().write(&seqs, &mut b).unwrap();
    assert_eq!(a, b, "index bytes must be deterministic");

    let query = QuerySet::paper().default_query().clone();
    let m = SubstitutionMatrix::blosum62();
    let mut db = open_on_disk("accounting.sapadb", &seqs);
    let req = request(query.residues(), &m, Prefilter::DEFAULT_SEED);
    let resp = Engine::Striped.search_indexed(&req, &mut db, 2).unwrap();
    assert_eq!(resp.stats.subjects + resp.stats.pruned, seqs.len());
    assert_eq!(resp.coverage, seqs.len());
    assert!(resp.completed);
}
