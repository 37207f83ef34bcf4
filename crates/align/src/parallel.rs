//! Multi-threaded database scoring, generic over any alignment engine.
//!
//! Database search is embarrassingly parallel across subjects — the
//! paper's related-work section notes that most prior art studies
//! exactly this axis (cluster/SMP scaling) while the paper itself
//! studies the single processor. Every parallel front end here runs
//! one private work-claiming loop: scoped workers grab `chunk`
//! consecutive items per atomic `fetch_add` on a shared cursor (batches
//! cut cursor contention on short subjects), keep one reusable
//! workspace each, and the merge restores item order.
//!
//! * [`engine_scores`] / [`engine_search`] / [`engine_search_bounded`]
//!   drive it through an [`AlignmentEngine`]: one shared engine (query
//!   index / profile) threaded through all workers, one reusable
//!   [`AlignmentEngine::Workspace`] per worker (zero per-subject
//!   allocation), per-engine statistics harvested from the workspaces,
//!   and deterministic, thread-count-independent results.
//! * [`align_hits`] drives it one hit at a time with a striped
//!   workspace per worker, to trace back the ranked hits.
//!
//! Determinism is enforced by tests that compare thread counts
//! {1, 2, 8}.
//!
//! ## Graceful degradation
//!
//! The engine layer additionally hardens the loop against two failure
//! modes a production scan must survive:
//!
//! * **Poisoned subjects** — every `score_one` call runs under
//!   [`std::panic::catch_unwind`]. A panicking subject is *quarantined*
//!   (its index and panic cause recorded in [`RunStats::quarantined`]),
//!   the worker discards its possibly-inconsistent workspace and builds
//!   a fresh one, and the batch completes with every non-faulted
//!   subject's score bit-identical to a fault-free run. Quarantine
//!   decisions depend only on the data, so reports are identical at any
//!   thread count.
//! * **Unbounded latency** — [`engine_search_bounded`] accepts a
//!   [`Deadline`]: a deterministic cell budget (resolved serially to an
//!   admitted subject prefix, so partial results are thread-count
//!   independent) or a best-effort wall-clock cutoff. Partial scans
//!   return ranked hits over the subjects actually scored plus an
//!   explicit `completed = false`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use sapa_bioseq::matrix::GapPenalties;
use sapa_bioseq::profile::QueryProfile;
use sapa_bioseq::{AminoAcid, SubstitutionMatrix};

use crate::engine::{AlignmentEngine, Deadline, DeadlineKind, Quarantined, RunStats};
use crate::result::{Alignment, Hit, SearchResults, TopK};
use crate::striped::Workspace;
use crate::traceback;

/// Subjects claimed per `fetch_add` when the caller does not choose:
/// large enough that the shared cursor is touched ~1/16th as often,
/// small enough that tail imbalance stays negligible for real database
/// sizes.
pub const DEFAULT_CHUNK: usize = 16;

/// Picks a claim-chunk size: [`DEFAULT_CHUNK`], shrunk so that every
/// thread still gets several claims (keeps small inputs balanced).
fn auto_chunk(subject_count: usize, threads: usize) -> usize {
    let fair = (subject_count / (threads * 4)).max(1);
    fair.min(DEFAULT_CHUNK)
}

/// What one worker hands back: scored pairs, quarantined pairs, and
/// every workspace it used (including ones discarded after a panic, so
/// per-workspace counters survive and totals stay deterministic).
struct WorkerYield<W, R> {
    scored: Vec<(usize, R)>,
    quarantined: Vec<(usize, String)>,
    workspaces: Vec<W>,
}

/// What the merged loop hands back to the front ends.
struct ChunkedOutcome<W, R> {
    /// Per-item outputs; `None` = quarantined or never attempted
    /// (wall-clock deadline hit before the item was claimed).
    scores: Vec<Option<R>>,
    /// Panicking subjects with causes, ascending by index.
    quarantined: Vec<(usize, String)>,
    /// Every workspace any worker used.
    workspaces: Vec<W>,
}

fn panic_cause(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The one chunked work-claiming loop behind every parallel front end.
///
/// Spawns up to `threads` scoped workers; each builds one workspace
/// with `make_ws`, claims `chunk` consecutive items per `fetch_add`
/// on a shared cursor, and records `(index, output)` pairs. The merge
/// restores item order — output is identical no matter how chunks
/// interleave — and the workspaces are returned so callers can harvest
/// per-worker statistics.
///
/// Every `score_fn` call runs under `catch_unwind`: a panicking item
/// is recorded in `quarantined` and its worker replaces the workspace
/// (the panic may have left it mid-update) while keeping the old one
/// for counter harvesting. With `wall` set, workers stop claiming new
/// chunks once the instant passes — a best-effort, non-deterministic
/// cutoff used only by [`Deadline::Wall`].
fn chunked_scores<W, R, M, F>(
    subject_count: usize,
    threads: usize,
    chunk: usize,
    wall: Option<Instant>,
    make_ws: M,
    score_fn: F,
) -> ChunkedOutcome<W, R>
where
    W: Send,
    R: Send,
    M: Fn() -> W + Sync,
    F: Fn(&mut W, usize) -> R + Sync,
{
    assert!(threads > 0, "need at least one thread");
    assert!(chunk > 0, "need a positive chunk size");
    let scores: Vec<Option<R>> = std::iter::repeat_with(|| None)
        .take(subject_count)
        .collect();
    if subject_count == 0 {
        return ChunkedOutcome {
            scores,
            quarantined: Vec::new(),
            workspaces: Vec::new(),
        };
    }
    let threads = threads.min(subject_count.div_ceil(chunk));
    let cursor = AtomicUsize::new(0);

    let mut partials: Vec<WorkerYield<W, R>> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let cursor = &cursor;
            let score_fn = &score_fn;
            let make_ws = &make_ws;
            handles.push(scope.spawn(move || {
                // Reused across every subject this worker scores.
                let mut ws = make_ws();
                let mut local = WorkerYield {
                    scored: Vec::new(),
                    quarantined: Vec::new(),
                    workspaces: Vec::new(),
                };
                loop {
                    if wall.is_some_and(|w| Instant::now() >= w) {
                        break;
                    }
                    let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                    if start >= subject_count {
                        break;
                    }
                    let end = (start + chunk).min(subject_count);
                    for i in start..end {
                        match catch_unwind(AssertUnwindSafe(|| score_fn(&mut ws, i))) {
                            Ok(s) => local.scored.push((i, s)),
                            Err(payload) => {
                                local.quarantined.push((i, panic_cause(payload)));
                                // The unwound workspace may be mid-update;
                                // retire it (counters intact) and continue
                                // on a fresh one.
                                local.workspaces.push(std::mem::replace(&mut ws, make_ws()));
                            }
                        }
                    }
                }
                local.workspaces.push(ws);
                local
            }));
        }
        for h in handles {
            partials.push(h.join().expect("worker panicked"));
        }
    });
    let mut out = ChunkedOutcome {
        scores,
        quarantined: Vec::new(),
        workspaces: Vec::new(),
    };
    for part in partials {
        for (i, s) in part.scored {
            out.scores[i] = Some(s);
        }
        out.quarantined.extend(part.quarantined);
        out.workspaces.extend(part.workspaces);
    }
    out.quarantined.sort_by_key(|&(i, _)| i);
    out
}

/// Sentinel stored in an [`engine_scores`] slot whose subject was
/// quarantined (its engine call panicked). The matching index/cause
/// pair is in [`RunStats::quarantined`].
pub const QUARANTINED_SCORE: i32 = i32::MIN;

/// Scores every subject through `engine` on `threads` worker threads.
///
/// This is the database-search hot path for every backend: workers
/// claim subjects in chunks and keep one reusable
/// [`AlignmentEngine::Workspace`] each (no per-subject allocation for
/// engines whose buffers depend only on the query). Scores come back in
/// subject order regardless of thread count; per-worker counters (e.g.
/// the striped engine's byte-overflow rescores) are summed into the
/// returned [`RunStats`].
///
/// A subject whose engine call panics does not abort the batch: its
/// slot holds [`QUARANTINED_SCORE`] and [`RunStats::quarantined`]
/// records the index and cause. All surviving scores are bit-identical
/// to a run without the faulting subjects.
///
/// # Panics
///
/// Panics if `threads` is 0.
pub fn engine_scores<E: AlignmentEngine>(
    engine: &E,
    subjects: &[&[AminoAcid]],
    threads: usize,
) -> (Vec<i32>, RunStats) {
    let chunk = auto_chunk(subjects.len(), threads.max(1));
    let out = chunked_scores(
        subjects.len(),
        threads,
        chunk,
        None,
        || engine.workspace(),
        |ws, i| engine.score_one(ws, subjects[i]),
    );
    let rescored = out.workspaces.iter().map(|ws| engine.rescored(ws)).sum();
    let stats = RunStats {
        subjects: subjects.len(),
        rescored,
        threads,
        quarantined: quarantine_report(out.quarantined),
        pruned: 0,
    };
    let scores = out
        .scores
        .into_iter()
        .map(|s| s.unwrap_or(QUARANTINED_SCORE))
        .collect();
    (scores, stats)
}

fn quarantine_report(pairs: Vec<(usize, String)>) -> Vec<Quarantined> {
    pairs
        .into_iter()
        .map(|(index, cause)| Quarantined { index, cause })
        .collect()
}

/// Ranked parallel search through any [`AlignmentEngine`]: the best
/// `keep` hits with scores of at least `min_score`, plus scan
/// statistics.
///
/// Hit ordering is deterministic and thread-count independent:
/// descending score, ties broken by ascending subject index.
/// Quarantined subjects (see [`engine_scores`]) never appear among the
/// hits.
///
/// # Panics
///
/// Panics if `threads` or `keep` is 0.
pub fn engine_search<E: AlignmentEngine>(
    engine: &E,
    subjects: &[&[AminoAcid]],
    threads: usize,
    keep: usize,
    min_score: i32,
) -> (SearchResults, RunStats) {
    let scan = engine_search_bounded(engine, subjects, threads, keep, min_score, None);
    (scan.results, scan.stats)
}

/// The outcome of a (possibly deadline-bounded) ranked scan.
#[derive(Debug, Clone)]
pub struct BoundedScan {
    /// Ranked hits over the subjects actually scored.
    pub results: SearchResults,
    /// Scan statistics; `stats.subjects` counts subjects *attempted*
    /// (scored or quarantined), not the database size.
    pub stats: RunStats,
    /// Whether every subject in the database was attempted.
    pub completed: bool,
    /// Which deadline kind cut the scan short — `Some` exactly when
    /// `completed` is `false`.
    pub truncated_by: Option<DeadlineKind>,
}

/// [`engine_search`] with graceful degradation under a [`Deadline`].
///
/// * `Deadline::Cells(budget)` — deterministic: the admitted subject
///   prefix is resolved serially up front (cumulative
///   [`AlignmentEngine::cost`] ≤ budget), so hits, coverage and the
///   `completed` flag are identical at any thread count.
/// * `Deadline::Wall(d)` — best-effort: workers stop claiming work once
///   the cutoff passes, but a subject claimed just before it still runs
///   to completion, so the scan may overshoot `d` by one subject's
///   scoring time. Coverage then depends on scheduling — two identical
///   requests may cover different prefixes — so only use this when
///   latency matters more than reproducibility.
///
/// Ranked hits cover exactly the attempted, non-quarantined subjects,
/// and [`BoundedScan::truncated_by`] reports which deadline kind (if
/// any) cut the scan short.
///
/// # Panics
///
/// Panics if `threads` or `keep` is 0.
pub fn engine_search_bounded<E: AlignmentEngine>(
    engine: &E,
    subjects: &[&[AminoAcid]],
    threads: usize,
    keep: usize,
    min_score: i32,
    deadline: Option<Deadline>,
) -> BoundedScan {
    let (admitted, wall) = match deadline {
        None => (subjects.len(), None),
        Some(Deadline::Cells(budget)) => {
            let mut spent = 0u64;
            let mut k = 0;
            for s in subjects {
                spent = spent.saturating_add(engine.cost(s));
                if spent > budget {
                    break;
                }
                k += 1;
            }
            (k, None)
        }
        Some(Deadline::Wall(d)) => (subjects.len(), Some(Instant::now() + d)),
    };

    let chunk = auto_chunk(admitted, threads.max(1));
    let out = chunked_scores(
        admitted,
        threads,
        chunk,
        wall,
        || engine.workspace(),
        |ws, i| engine.score_one(ws, subjects[i]),
    );

    let mut results = TopK::new(keep);
    let mut scored = 0usize;
    for (seq_index, slot) in out.scores.iter().enumerate() {
        if let Some(score) = *slot {
            scored += 1;
            if score >= min_score {
                results.push(Hit { seq_index, score });
            }
        }
    }
    let attempted = scored + out.quarantined.len();
    let stats = RunStats {
        subjects: attempted,
        rescored: out.workspaces.iter().map(|ws| engine.rescored(ws)).sum(),
        threads,
        quarantined: quarantine_report(out.quarantined),
        pruned: 0,
    };
    let completed = attempted == subjects.len();
    let truncated_by = match deadline {
        _ if completed => None,
        Some(Deadline::Cells(_)) => Some(DeadlineKind::Cells),
        Some(Deadline::Wall(_)) => Some(DeadlineKind::Wall),
        // Unreachable: without a deadline every subject is attempted.
        None => None,
    };
    BoundedScan {
        results: results.finish(),
        stats,
        completed,
        truncated_by,
    }
}

/// Reconstructs full alignments for a batch of ranked hits in
/// parallel, one [`traceback::align_hit`] call per hit.
///
/// Hits are few (top-k) but individually heavy (three extra passes per
/// hit), so workers claim one hit at a time. One query profile is built
/// and shared; each worker keeps a reusable striped workspace. A hit
/// whose traceback panics — an out-of-range `seq_index` included —
/// yields `None` in its slot (the scan-side quarantine policy) and the
/// worker's workspace is replaced. The output is indexed like `hits` —
/// deterministic and thread-count independent.
///
/// # Panics
///
/// Panics if `threads` is 0.
pub fn align_hits<const L: usize>(
    query: &[AminoAcid],
    matrix: &SubstitutionMatrix,
    gaps: GapPenalties,
    subjects: &[&[AminoAcid]],
    hits: &[Hit],
    threads: usize,
) -> Vec<Option<Alignment>> {
    assert!(threads > 0, "align_hits requires at least one thread");
    if hits.is_empty() {
        return Vec::new();
    }
    let profile = QueryProfile::build(query, matrix, L);
    let out = chunked_scores(
        hits.len(),
        threads,
        1,
        None,
        Workspace::<L>::new,
        |ws, i| {
            let hit = hits[i];
            traceback::align_hit::<L>(
                query,
                matrix,
                gaps,
                &profile,
                subjects[hit.seq_index],
                hit.score,
                ws,
            )
        },
    );
    out.scores.into_iter().map(Option::flatten).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::StripedEngine;
    use crate::sw;
    use sapa_bioseq::db::DatabaseBuilder;
    use sapa_bioseq::matrix::GapPenalties;
    use sapa_bioseq::profile::QueryProfile;
    use sapa_bioseq::queries::QuerySet;
    use sapa_bioseq::SubstitutionMatrix;

    /// Every output of the work-claiming loop over a pure function.
    fn claim_all<R: Send>(
        n: usize,
        threads: usize,
        chunk: usize,
        f: impl Fn(usize) -> R + Sync,
    ) -> Vec<R> {
        let out = chunked_scores(n, threads, chunk, None, || (), |_, i| f(i));
        assert!(out.quarantined.is_empty());
        out.scores
            .into_iter()
            .map(|s| s.expect("no deadline: every item claimed"))
            .collect()
    }

    #[test]
    fn scores_are_deterministic_across_thread_counts() {
        let queries = QuerySet::paper();
        let query = queries.by_accession("P02232").unwrap().clone();
        let db = DatabaseBuilder::new()
            .seed(3)
            .sequences(30)
            .median_length(80.0)
            .homolog_template(query.clone())
            .build();
        let m = SubstitutionMatrix::blosum62();
        let g = GapPenalties::paper();

        let run = |threads: usize| {
            let chunk = auto_chunk(db.len(), threads);
            claim_all(db.len(), threads, chunk, |i| {
                sw::score(query.residues(), db.sequences()[i].residues(), &m, g)
            })
        };
        let one = run(1);
        let four = run(4);
        let nine = run(9);
        assert_eq!(one, four);
        assert_eq!(one, nine);
        // And they equal the serial computation.
        for (i, s) in db.iter().enumerate() {
            assert_eq!(one[i], sw::score(query.residues(), s.residues(), &m, g));
        }
    }

    #[test]
    fn align_hits_replays_and_is_thread_count_invariant() {
        let queries = QuerySet::paper();
        let query = queries.by_accession("P02232").unwrap().clone();
        let db = DatabaseBuilder::new()
            .seed(11)
            .sequences(24)
            .median_length(90.0)
            .homolog_template(query.clone())
            .build();
        let m = SubstitutionMatrix::blosum62();
        let g = GapPenalties::paper();
        let slices: Vec<&[sapa_bioseq::AminoAcid]> = db.iter().map(|s| s.residues()).collect();

        // Rank hits with the scalar oracle, then trace them back.
        let hits: Vec<Hit> = slices
            .iter()
            .enumerate()
            .map(|(seq_index, s)| Hit {
                seq_index,
                score: sw::score(query.residues(), s, &m, g),
            })
            .filter(|h| h.score > 0)
            .collect();
        assert!(!hits.is_empty());

        let one = align_hits::<8>(query.residues(), &m, g, &slices, &hits, 1);
        let four = align_hits::<8>(query.residues(), &m, g, &slices, &hits, 4);
        assert_eq!(one, four);
        assert_eq!(one.len(), hits.len());
        for (hit, al) in hits.iter().zip(&one) {
            let al = al.as_ref().expect("positive-score hit must align");
            assert_eq!(
                al.replay_score(query.residues(), slices[hit.seq_index], &m, g),
                Some(hit.score),
                "subject {}",
                hit.seq_index
            );
        }
    }

    #[test]
    fn align_hits_quarantines_a_panicking_traceback_in_its_slot() {
        let m = SubstitutionMatrix::blosum62();
        let g = GapPenalties::paper();
        let query = QuerySet::paper().by_accession("P02232").unwrap().clone();
        let slices = [query.residues()];
        // The middle hit names a subject that does not exist, so its
        // traceback panics; its neighbours must still align in place.
        let score = sw::score(query.residues(), query.residues(), &m, g);
        let hits = [
            Hit {
                seq_index: 0,
                score,
            },
            Hit {
                seq_index: 7,
                score,
            },
            Hit {
                seq_index: 0,
                score,
            },
        ];
        for threads in [1, 2] {
            let out = align_hits::<8>(query.residues(), &m, g, &slices, &hits, threads);
            assert_eq!(out.len(), hits.len());
            assert!(out[1].is_none(), "threads {threads}");
            assert!(out[0].is_some() && out[0] == out[2], "threads {threads}");
        }
    }

    #[test]
    fn chunked_claiming_is_thread_count_invariant() {
        // The satellite regression: chunked claiming must return
        // identical results for threads ∈ {1, 2, 8}, at several chunk
        // sizes including ones that don't divide the subject count.
        let n = 103;
        let expect: Vec<i32> = (0..n).map(|i| (i * i % 97) as i32).collect();
        for chunk in [1usize, 3, 16, 64, 200] {
            for threads in [1usize, 2, 8] {
                let got = claim_all(n, threads, chunk, |i| (i * i % 97) as i32);
                assert_eq!(got, expect, "chunk {chunk} threads {threads}");
            }
        }
    }

    #[test]
    fn ranked_search_matches_serial_filtering() {
        // FlakyEngine scores each subject by its length.
        let owned = subjects_of_lengths(&[5, 40, 12, 40, 3, 99]);
        let slices: Vec<&[sapa_bioseq::AminoAcid]> = owned.iter().map(|s| &s[..]).collect();
        let engine = FlakyEngine { stride: usize::MAX };
        let (r, _) = engine_search(&engine, &slices, 3, 4, 10);
        let hits = r.hits();
        assert_eq!(hits[0].score, 99);
        assert_eq!(hits[1].score, 40);
        assert_eq!(hits[1].seq_index, 1); // tie broken by index
        assert_eq!(hits[2].seq_index, 3);
        assert_eq!(hits[3].score, 12);
        assert_eq!(hits.len(), 4);
    }

    #[test]
    fn empty_database_is_fine() {
        assert!(claim_all(0, 4, 1, |_| 0).is_empty());
        let m = SubstitutionMatrix::blosum62();
        let g = GapPenalties::paper();
        let engine = StripedEngine::<16, 8>::from_query(&[], &m, g);
        let (scores, stats) = engine_scores(&engine, &[], 4);
        assert!(scores.is_empty());
        assert_eq!(stats.subjects, 0);
        assert_eq!(stats.rescored, 0);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = claim_all(3, 0, 1, |_| 0);
    }

    #[test]
    #[should_panic(expected = "positive chunk")]
    fn zero_chunk_rejected() {
        let _ = claim_all(3, 1, 0, |_| 0);
    }

    #[test]
    fn more_threads_than_subjects_is_fine() {
        let v = claim_all(2, 16, 1, |i| i as i32);
        assert_eq!(v, vec![0, 1]);
    }

    #[test]
    fn striped_engine_scores_match_scalar_oracle() {
        let queries = QuerySet::paper();
        let query = queries.by_accession("P02232").unwrap().clone();
        let db = DatabaseBuilder::new()
            .seed(11)
            .sequences(40)
            .median_length(90.0)
            .homolog_template(query.clone())
            .homolog_fraction(0.2) // high-identity subjects overflow u8
            .build();
        let m = SubstitutionMatrix::blosum62();
        let g = GapPenalties::paper();
        let slices: Vec<&[sapa_bioseq::AminoAcid]> = db.iter().map(|s| s.residues()).collect();

        let engine = StripedEngine::<16, 8>::from_query(query.residues(), &m, g);
        let (scores, stats) = engine_scores(&engine, &slices, 4);
        assert_eq!(stats.subjects, db.len());
        for (i, s) in db.iter().enumerate() {
            assert_eq!(
                scores[i],
                sw::score(query.residues(), s.residues(), &m, g),
                "subject {i}"
            );
        }
    }

    #[test]
    fn striped_engine_is_thread_count_invariant() {
        let queries = QuerySet::paper();
        let query = queries.by_accession("P02232").unwrap().clone();
        let db = DatabaseBuilder::new()
            .seed(5)
            .sequences(25)
            .median_length(70.0)
            .homolog_template(query.clone())
            .build();
        let m = SubstitutionMatrix::blosum62();
        let g = GapPenalties::paper();
        let slices: Vec<&[sapa_bioseq::AminoAcid]> = db.iter().map(|s| s.residues()).collect();
        let engine = StripedEngine::<16, 8>::from_query(query.residues(), &m, g);

        let (one, s1) = engine_scores(&engine, &slices, 1);
        let (two, s2) = engine_scores(&engine, &slices, 2);
        let (eight, s8) = engine_scores(&engine, &slices, 8);
        assert_eq!(one, two);
        assert_eq!(one, eight);
        // The rescore count is a property of the data, not the threads.
        assert_eq!(s1.rescored, s2.rescored);
        assert_eq!(s1.rescored, s8.rescored);
    }

    #[test]
    fn striped_search_finds_planted_homolog_and_counts_rescores() {
        let queries = QuerySet::paper();
        let query = queries.by_accession("P02232").unwrap().clone();
        let db = DatabaseBuilder::new()
            .seed(9)
            .sequences(50)
            .median_length(100.0)
            .homolog_template(query.clone())
            .homolog_fraction(0.1)
            .build();
        let m = SubstitutionMatrix::blosum62();
        let g = GapPenalties::paper();
        let slices: Vec<&[sapa_bioseq::AminoAcid]> = db.iter().map(|s| s.residues()).collect();

        // A self-match subject guarantees at least one byte overflow.
        let mut with_self = slices.clone();
        with_self.push(query.residues());

        let engine = StripedEngine::<16, 8>::from_query(query.residues(), &m, g);
        let (results, stats) = engine_search(&engine, &with_self, 4, 10, 50);
        assert!(
            stats.rescored >= 1,
            "self-match must overflow the byte pass"
        );
        let best = results.hits()[0];
        assert_eq!(
            best.seq_index,
            with_self.len() - 1,
            "self-match ranks first"
        );
        assert_eq!(
            best.score,
            sw::score(query.residues(), query.residues(), &m, g)
        );
    }

    #[test]
    fn both_register_widths_agree() {
        let queries = QuerySet::paper();
        let query = queries.by_accession("P02232").unwrap().clone();
        let db = DatabaseBuilder::new()
            .seed(13)
            .sequences(20)
            .homolog_template(query.clone())
            .build();
        let m = SubstitutionMatrix::blosum62();
        let g = GapPenalties::paper();
        let slices: Vec<&[sapa_bioseq::AminoAcid]> = db.iter().map(|s| s.residues()).collect();

        let e128 = StripedEngine::<16, 8>::from_query(query.residues(), &m, g);
        let e256 = StripedEngine::<32, 16>::from_query(query.residues(), &m, g);
        let (a, _) = engine_scores(&e128, &slices, 3);
        let (b, _) = engine_scores(&e256, &slices, 3);
        assert_eq!(a, b);
    }

    /// Panics on any subject whose length is a multiple of `stride`;
    /// otherwise scores the subject's length. The workspace counts
    /// successful scores so counter-harvesting survives quarantine.
    struct FlakyEngine {
        stride: usize,
    }

    impl AlignmentEngine for FlakyEngine {
        type Workspace = usize;

        fn name(&self) -> &'static str {
            "flaky"
        }

        fn workspace(&self) -> usize {
            0
        }

        fn score_one(&self, ws: &mut usize, subject: &[sapa_bioseq::AminoAcid]) -> i32 {
            assert!(
                !subject.len().is_multiple_of(self.stride),
                "injected fault: subject len {}",
                subject.len()
            );
            *ws += 1;
            subject.len() as i32
        }

        fn rescored(&self, ws: &usize) -> usize {
            *ws
        }
    }

    fn subjects_of_lengths(lens: &[usize]) -> Vec<Vec<sapa_bioseq::AminoAcid>> {
        let aa = sapa_bioseq::AminoAcid::ALL[0];
        lens.iter().map(|&n| vec![aa; n]).collect()
    }

    #[test]
    fn panicking_subjects_are_quarantined_not_fatal() {
        let owned = subjects_of_lengths(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]);
        let slices: Vec<&[sapa_bioseq::AminoAcid]> = owned.iter().map(|s| &s[..]).collect();
        let engine = FlakyEngine { stride: 4 };

        let (scores, stats) = engine_scores(&engine, &slices, 2);
        assert_eq!(stats.subjects, slices.len());
        // Lengths 4, 8, 12 (indices 3, 7, 11) fault.
        let faulted: Vec<usize> = stats.quarantined.iter().map(|q| q.index).collect();
        assert_eq!(faulted, vec![3, 7, 11]);
        for q in &stats.quarantined {
            assert!(q.cause.contains("injected fault"), "cause: {}", q.cause);
        }
        for (i, &s) in scores.iter().enumerate() {
            if faulted.contains(&i) {
                assert_eq!(s, QUARANTINED_SCORE);
            } else {
                assert_eq!(s, slices[i].len() as i32);
            }
        }
        // Successful-score counters survive workspace replacement.
        assert_eq!(stats.rescored, slices.len() - faulted.len());
    }

    #[test]
    fn quarantine_reports_are_thread_count_invariant() {
        let lens: Vec<usize> = (1..=60).collect();
        let owned = subjects_of_lengths(&lens);
        let slices: Vec<&[sapa_bioseq::AminoAcid]> = owned.iter().map(|s| &s[..]).collect();
        let engine = FlakyEngine { stride: 7 };

        let (scores1, mut stats1) = engine_scores(&engine, &slices, 1);
        for threads in [2, 4] {
            let (scores, mut stats) = engine_scores(&engine, &slices, threads);
            assert_eq!(scores, scores1, "threads={threads}");
            stats.threads = 0;
            stats1.threads = 0;
            assert_eq!(stats, stats1, "threads={threads}");
        }
    }

    #[test]
    fn quarantined_subjects_never_rank() {
        let owned = subjects_of_lengths(&[5, 10, 15]);
        let slices: Vec<&[sapa_bioseq::AminoAcid]> = owned.iter().map(|s| &s[..]).collect();
        let engine = FlakyEngine { stride: 10 };
        // min_score of i32::MIN would admit the sentinel if the filter
        // relied on score comparison alone.
        let (results, stats) = engine_search(&engine, &slices, 2, 3, i32::MIN);
        assert_eq!(stats.quarantined.len(), 1);
        assert_eq!(stats.quarantined[0].index, 1);
        let ranked: Vec<usize> = results.hits().iter().map(|h| h.seq_index).collect();
        assert_eq!(ranked, vec![2, 0]);
    }

    #[test]
    fn cell_budget_prefix_is_serial_and_exact() {
        let owned = subjects_of_lengths(&[10, 20, 30, 40]);
        let slices: Vec<&[sapa_bioseq::AminoAcid]> = owned.iter().map(|s| &s[..]).collect();
        let engine = FlakyEngine { stride: usize::MAX };
        // Default engine cost = subject length: 10+20+30 = 60 fits, 100 doesn't.
        let scan = engine_search_bounded(&engine, &slices, 2, 10, 0, Some(Deadline::Cells(60)));
        assert!(!scan.completed);
        assert_eq!(scan.stats.subjects, 3);
        assert_eq!(scan.results.hits().len(), 3);
        // Exactly at the total admits everything.
        let scan = engine_search_bounded(&engine, &slices, 2, 10, 0, Some(Deadline::Cells(100)));
        assert!(scan.completed);
        assert_eq!(scan.stats.subjects, 4);
    }

    #[test]
    fn cached_profile_is_shared_not_rebuilt() {
        // `with_profile` must accept an externally cached Arc profile.
        let queries = QuerySet::paper();
        let query = queries.by_accession("P02232").unwrap().clone();
        let m = SubstitutionMatrix::blosum62();
        let g = GapPenalties::paper();
        let profile = QueryProfile::build_shared(query.residues(), &m, 8);
        let db = DatabaseBuilder::new()
            .seed(17)
            .sequences(12)
            .homolog_template(query.clone())
            .build();
        let slices: Vec<&[sapa_bioseq::AminoAcid]> = db.iter().map(|s| s.residues()).collect();

        let cached = StripedEngine::<16, 8>::with_profile(profile.clone(), g);
        let fresh = StripedEngine::<16, 8>::from_query(query.residues(), &m, g);
        assert_eq!(
            engine_scores(&cached, &slices, 2).0,
            engine_scores(&fresh, &slices, 2).0
        );
        // The engine holds the same allocation the cache handed out.
        assert_eq!(std::sync::Arc::strong_count(&profile), 2);
    }
}
