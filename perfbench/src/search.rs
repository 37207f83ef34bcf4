//! `search_scan` and `search_indexed`: one synthetic protein database
//! searched with the eleven paper queries.
//!
//! * `search_scan` is SSEARCH-shaped: `Engine::Striped.search` in
//!   memory with `report_alignments` and `top_k` 500 (the paper's
//!   `-b 500`). The striped kernel does nearly all the work, and it is
//!   the only path that reaches `align::traceback`; the index is never
//!   touched.
//! * `search_indexed` is BLAST-shaped: the same corpus, indexed once
//!   during set-up with `IndexBuilder`, searched score-only through
//!   `Engine::Striped.search_indexed` with the default seed prefilter.
//!   Only a small share of subjects survive the prefilter, so
//!   prefilter and shard-read changes show here and `search_scan`
//!   bypasses them.
//!
//! One operation is one query. `search_scan` runs one query at a time
//! on `nproc` threads; `search_indexed` runs `nproc` queries at a time
//! on one thread each (see [`Mode::lanes`]).

use std::collections::HashSet;
use std::io::Cursor;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use sapa_align::engine::{Engine, Prefilter, SearchRequest, SearchResponse, StripedEngine};
use sapa_align::parallel;
use sapa_align::result::Hit;
use sapa_bioseq::db::DatabaseBuilder;
use sapa_bioseq::index::{IndexBuilder, IndexReader, ShardBuf};
use sapa_bioseq::matrix::GapPenalties;
use sapa_bioseq::queries::QuerySet;
use sapa_bioseq::{AminoAcid, QueryProfile, Sequence, SubstitutionMatrix};

use crate::spans::Tracer;
use crate::{nproc, stats, Args, Outcome};

/// Which of the two search workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Exhaustive in-memory striped scan with alignments.
    Scan,
    /// Seed-prefiltered search over the prebuilt index.
    Indexed,
}

impl Mode {
    /// Queries in flight at once, each on [`Mode::threads`] threads.
    /// An indexed query splits into one short parallel step per shard
    /// (about a millisecond each), so on `nproc` threads it spends its
    /// time waking threads, and on a shared host that wake-up time
    /// swung its throughput by a third between identical runs. Whole
    /// queries side by side keep every thread busy instead.
    fn lanes(self) -> usize {
        match self {
            Mode::Scan => 1,
            Mode::Indexed => nproc(),
        }
    }

    /// Threads each query runs on.
    fn threads(self) -> usize {
        match self {
            Mode::Scan => nproc(),
            Mode::Indexed => 1,
        }
    }
}

/// A reader over the in-memory index.
type Reader<'a> = IndexReader<Cursor<&'a [u8]>>;

/// Corpus size. About 2.1 M residues: larger than one core's L2 and the
/// service corpus, and small enough that a run collects the hundred
/// queries a p90 with ten samples above it needs.
const CORPUS_SEQS: usize = 5_000;

/// Seed of the repository's search-bench database; `--seed n` uses
/// `CORPUS_SEED + n`.
const CORPUS_SEED: u64 = 0xBE7C;

/// Queries a run makes at least: p90 then has ten samples above it.
const MIN_QUERIES: usize = 100;

/// Set-ups per run; `setup_s` is their median. Generating the corpus
/// takes tens of milliseconds, so one sample is at the mercy of host
/// noise.
const SETUPS: usize = 7;

/// Hits kept per query (the paper's `-b 500`).
const TOP_K: usize = 500;

/// Score from which hits take part in the prefilter check. Chance
/// alignments score below about 80 on corpora of this size, and every
/// planted homolog scores above 350.
const SIGNIFICANT: i32 = 100;

/// The benchmark corpus for `seed`.
pub fn corpus(seed: u64) -> Vec<Sequence> {
    DatabaseBuilder::new()
        .seed(CORPUS_SEED.wrapping_add(seed))
        .sequences(CORPUS_SEQS)
        .homolog_template(QuerySet::paper().default_query().clone())
        .build()
        .sequences()
        .to_vec()
}

fn request<'a>(
    query: &'a [AminoAcid],
    matrix: &'a SubstitutionMatrix,
    mode: Mode,
) -> SearchRequest<'a> {
    SearchRequest {
        query,
        matrix,
        gaps: GapPenalties::paper(),
        top_k: TOP_K,
        min_score: 1,
        deadline: None,
        report_alignments: mode == Mode::Scan,
        prefilter: match mode {
            Mode::Scan => Prefilter::Off,
            Mode::Indexed => Prefilter::DEFAULT_SEED,
        },
    }
}

/// Checks that every reported alignment replays to its hit's score.
pub fn check_alignments(
    req: &SearchRequest<'_>,
    subjects: &[&[AminoAcid]],
    resp: &SearchResponse,
) -> Result<(), String> {
    if resp.hits.is_empty() {
        return Err("scan reported no hits".into());
    }
    for h in &resp.hits {
        let Some(aln) = &h.alignment else {
            return Err(format!("hit {} has no alignment", h.seq_index));
        };
        let replayed = aln.replay_score(req.query, subjects[h.seq_index], req.matrix, req.gaps);
        if replayed != Some(h.score) {
            return Err(format!(
                "hit {}: alignment replays to {replayed:?}, reported {}",
                h.seq_index, h.score
            ));
        }
    }
    Ok(())
}

/// Whether `subject` contains a `k`-residue word of standard residues
/// that also occurs in `query`: the only way a subject can pass the
/// seed prefilter. Computed from the residues, not from the index.
pub fn shares_word(query: &[AminoAcid], subject: &[AminoAcid], k: usize) -> bool {
    let standard = |w: &&[AminoAcid]| w.iter().all(|a| a.is_standard());
    let words: HashSet<&[AminoAcid]> = query.windows(k).filter(standard).collect();
    subject
        .windows(k)
        .filter(standard)
        .any(|w| words.contains(w))
}

/// Checks the seed prefilter against its contract: above
/// [`SIGNIFICANT`], the prefiltered ranking equals the exhaustive one
/// with the subjects that share no seed word with the query taken out
/// (`shares_word(seq_index)` says which do). Word-sharing hits must
/// all survive with their exhaustive scores and order; word-free ones
/// are pruned by design. Returns how many significant hits were
/// word-free.
pub fn check_zero_miss(
    exhaustive: &SearchResponse,
    prefiltered: &SearchResponse,
    shares_word: impl Fn(usize) -> bool,
) -> Result<usize, String> {
    let above = |r: &SearchResponse| -> Vec<(usize, i32)> {
        r.hits
            .iter()
            .filter(|h| h.score >= SIGNIFICANT)
            .map(|h| (h.seq_index, h.score))
            .collect()
    };
    let all = above(exhaustive);
    if all.is_empty() {
        return Err("exhaustive search found no significant hit".into());
    }
    let (seeded, word_free): (Vec<_>, Vec<_>) = all.into_iter().partition(|h| shares_word(h.0));
    let got = above(prefiltered);
    if seeded == got {
        Ok(word_free.len())
    } else {
        Err(format!(
            "prefilter misses: {} significant word-sharing exhaustive hits, {} significant prefiltered",
            seeded.len(),
            got.len()
        ))
    }
}

/// A response is healthy when the whole database was covered and no
/// subject was quarantined.
fn healthy(resp: &SearchResponse) -> bool {
    resp.completed && resp.stats.quarantined.is_empty()
}

struct Db {
    seqs: Vec<Sequence>,
    /// The built index (indexed mode only).
    index: Option<Vec<u8>>,
}

impl Db {
    fn residues(&self) -> usize {
        self.seqs.iter().map(Sequence::len).sum()
    }

    /// A reader of its own for one search lane.
    fn reader(&self) -> Option<Reader<'_>> {
        self.index.as_deref().map(|bytes| {
            IndexReader::from_reader(Cursor::new(bytes)).expect("in-memory index opens")
        })
    }
}

fn setup(seed: u64, mode: Mode, tracer: &mut Tracer) -> Result<Db, String> {
    let (seqs, _) = tracer.time("bioseq.db.build", || corpus(seed));
    if mode == Mode::Scan {
        return Ok(Db { seqs, index: None });
    }
    let mut bytes = Vec::new();
    let (built, _) = tracer.time("bioseq.index.build", || {
        IndexBuilder::new().write(&seqs, &mut bytes)
    });
    built.map_err(|e| format!("index build failed: {e}"))?;
    // Opening parses the metadata and the seed index; set-up pays for
    // one open, and each search lane opens its own reader.
    let (reader, _) = tracer.time("bioseq.index.open", || {
        IndexReader::from_reader(Cursor::new(&bytes[..])).map(drop)
    });
    reader.map_err(|e| format!("index open failed: {e}"))?;
    Ok(Db {
        seqs,
        index: Some(bytes),
    })
}

fn search(
    reader: Option<&mut Reader<'_>>,
    req: &SearchRequest<'_>,
    subjects: &[&[AminoAcid]],
    threads: usize,
) -> SearchResponse {
    match reader {
        None => Engine::Striped.search(req, subjects, threads),
        Some(reader) => match Engine::Striped.search_indexed(req, reader, threads) {
            Ok(resp) => resp,
            Err(e) => panic!("in-memory index read failed: {e}"),
        },
    }
}

/// Latencies of one measured phase, by query index.
#[derive(Default)]
struct Phase {
    ms: Vec<(usize, f64)>,
    /// Queries per second over each full cycle of the eleven queries in
    /// a lane, times the lanes (all lanes are always busy).
    rates: Vec<f64>,
    failed: u64,
    errors: Vec<String>,
}

/// Layer times of one traced query.
#[derive(Default)]
struct Layers {
    profile_s: f64,
    kernel_s: f64,
    traceback_s: f64,
    prefilter_s: f64,
    read_s: f64,
    cells: f64,
    subjects: usize,
    rescored: usize,
    hits: usize,
    candidates: usize,
    shards: usize,
    decoded: u64,
}

impl Layers {
    fn total(&self) -> f64 {
        self.profile_s + self.kernel_s + self.traceback_s + self.prefilter_s + self.read_s
    }
}

/// Runs queries for `seconds` (and at least [`MIN_QUERIES`] when
/// untraced) on [`Mode::lanes`] lanes. Each lane cycles through the
/// eleven queries from its own offset with a reader of its own. When
/// traced, only lane 0 records spans and replays its layers; the other
/// lanes keep the load the same as untraced and their samples are
/// dropped.
fn phase(db: &Db, mode: Mode, seconds: f64, tracer: Option<&mut Tracer>) -> (Phase, Vec<Layers>) {
    let matrix = SubstitutionMatrix::blosum62();
    let subjects: Vec<&[AminoAcid]> = db.seqs.iter().map(Sequence::residues).collect();
    // Only the untraced phase reports percentiles, so only it needs
    // the minimum sample count.
    let min = if tracer.is_some() { 1 } else { MIN_QUERIES };
    let traced = tracer.is_some();
    let taken = AtomicUsize::new(0);
    let start = Instant::now();
    let go =
        || taken.fetch_add(1, Ordering::Relaxed) < min || start.elapsed().as_secs_f64() < seconds;
    let lane = |lane: usize, tracer: Option<&mut Tracer>| {
        lane_queries(db, mode, lane, &matrix, &subjects, &go, tracer)
    };
    let (first, rest) = std::thread::scope(|scope| {
        let rest: Vec<_> = (1..mode.lanes())
            .map(|l| scope.spawn(move || lane(l, None).0))
            .collect();
        let first = lane(0, tracer);
        let rest: Vec<Phase> = rest
            .into_iter()
            .map(|h| h.join().expect("search lane panicked"))
            .collect();
        (first, rest)
    });
    let (mut out, layers) = first;
    for p in rest {
        out.failed += p.failed;
        out.errors.extend(p.errors);
        if !traced {
            out.ms.extend(p.ms);
            out.rates.extend(p.rates);
        }
    }
    (out, layers)
}

/// One lane of [`phase`]: queries `lane`, `lane + 1`, … of the paper
/// set while `go` says the phase goes on.
fn lane_queries(
    db: &Db,
    mode: Mode,
    lane: usize,
    matrix: &SubstitutionMatrix,
    subjects: &[&[AminoAcid]],
    go: &(dyn Fn() -> bool + Sync),
    mut tracer: Option<&mut Tracer>,
) -> (Phase, Vec<Layers>) {
    let queries = QuerySet::paper();
    let cycle = queries.queries().len();
    let mut reader = db.reader();
    let mut out = Phase::default();
    let mut layers = Vec::new();
    let mut n = 0;
    while go() {
        let qi = (lane + n) % cycle;
        let query = queries.queries()[qi].residues();
        let req = request(query, matrix, mode);
        let t0 = Instant::now();
        let mut run = || search(reader.as_mut(), &req, subjects, mode.threads());
        let resp = match tracer.as_deref_mut() {
            Some(t) => t.time("query", run).0,
            None => run(),
        };
        out.ms.push((qi, t0.elapsed().as_secs_f64() * 1e3));
        if !healthy(&resp) {
            out.failed += 1;
        }
        if mode == Mode::Scan {
            if let Err(e) = check_alignments(&req, subjects, &resp) {
                out.errors
                    .push(format!("query {}: {e}", queries.queries()[qi].id()));
            }
        }
        if let Some(t) = tracer.as_deref_mut() {
            let replay = t.open("replay");
            layers.push(match reader.as_mut() {
                None => replay_scan(t, &req, subjects, &resp, mode.threads()),
                Some(r) => replay_indexed(t, &req, r, mode.threads()),
            });
            t.close(replay);
        }
        n += 1;
    }
    out.rates = out
        .ms
        .chunks_exact(cycle)
        .map(|c| (mode.lanes() * cycle) as f64 * 1e3 / c.iter().map(|p| p.1).sum::<f64>())
        .collect();
    (out, layers)
}

/// The layer calls under one in-memory scan, made again one by one.
fn replay_scan(
    t: &mut Tracer,
    req: &SearchRequest<'_>,
    subjects: &[&[AminoAcid]],
    resp: &SearchResponse,
    threads: usize,
) -> Layers {
    let mut l = Layers::default();
    let (profile, s) = t.time("bioseq.profile.build", || {
        QueryProfile::build_shared(req.query, req.matrix, 8)
    });
    l.profile_s = s;
    let engine = StripedEngine::<16, 8>::with_profile(profile, req.gaps);
    let ((_, st), s) = t.time("align.parallel.engine_scores", || {
        parallel::engine_scores(&engine, subjects, threads)
    });
    l.kernel_s = s;
    l.subjects = st.subjects;
    l.rescored = st.rescored;
    l.cells = (req.query.len() * subjects.iter().map(|s| s.len()).sum::<usize>()) as f64;
    let hits: Vec<Hit> = resp
        .hits
        .iter()
        .map(|h| Hit {
            seq_index: h.seq_index,
            score: h.score,
        })
        .collect();
    let (_, s) = t.time("align.traceback.align_hits", || {
        parallel::align_hits::<8>(req.query, req.matrix, req.gaps, subjects, &hits, threads)
    });
    l.traceback_s = s;
    l.hits = hits.len();
    l
}

/// The layer calls under one indexed search, made again one by one:
/// profile, seed lookup, then shard read and kernel per shard.
fn replay_indexed(
    t: &mut Tracer,
    req: &SearchRequest<'_>,
    reader: &mut Reader<'_>,
    threads: usize,
) -> Layers {
    let mut l = Layers::default();
    let (profile, s) = t.time("bioseq.profile.build", || {
        QueryProfile::build_shared(req.query, req.matrix, 8)
    });
    l.profile_s = s;
    let engine = StripedEngine::<16, 8>::with_profile(profile, req.gaps);
    let (scan, s) = t.time("bioseq.index.candidates", || {
        reader.seed_index().candidates(req.query, 1)
    });
    l.prefilter_s = s;
    let word_len = reader.word_len();
    let mut cands: Vec<usize> = reader
        .lengths()
        .iter()
        .take_while(|&&len| (len as usize) < word_len)
        .enumerate()
        .map(|(i, _)| i)
        .collect();
    cands.extend(scan.candidates.iter().map(|c| c.seq as usize));
    l.candidates = cands.len();
    let mut buf = ShardBuf::new();
    let mut at = 0;
    while at < cands.len() {
        let shard = reader.shard_of(cands[at]);
        let info = reader.shards()[shard].clone();
        let end_seq = info.seq_start + info.seq_count;
        let mut stop = at;
        while stop < cands.len() && cands[stop] < end_seq {
            stop += 1;
        }
        let (read, s) = t.time("bioseq.index.read_shard", || {
            reader.read_shard(shard, &mut buf)
        });
        if let Err(e) = read {
            panic!("in-memory shard read failed: {e}");
        }
        l.read_s += s;
        l.shards += 1;
        l.decoded += info.residues;
        let slices: Vec<&[AminoAcid]> = cands[at..stop]
            .iter()
            .map(|&seq| buf.sequence(seq - info.seq_start))
            .collect();
        l.cells += (req.query.len() * slices.iter().map(|s| s.len()).sum::<usize>()) as f64;
        let ((_, st), s) = t.time("align.parallel.engine_scores", || {
            parallel::engine_scores(&engine, &slices, threads)
        });
        l.kernel_s += s;
        l.subjects += st.subjects;
        l.rescored += st.rescored;
        at = stop;
    }
    l
}

/// Runs `search_scan` or `search_indexed`.
pub fn run(args: &Args, mode: Mode) -> Outcome {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new();
    let mut setup_s = Vec::new();
    let mut db = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let built = setup(args.seed, mode, &mut tracer);
        setup_s.push(t0.elapsed().as_secs_f64());
        match built {
            Ok(d) => db = Some(d),
            Err(e) => {
                out.check(Err(e));
                return out;
            }
        }
    }
    let db = db.expect("at least one set-up ran");

    let mut word_free = 0usize;
    if mode == Mode::Indexed {
        let queries = QuerySet::paper();
        let matrix = SubstitutionMatrix::blosum62();
        let query = queries.default_query().residues();
        let mut req = request(query, &matrix, mode);
        let mut reader = db.reader().expect("indexed mode has an index");
        let reader = &mut reader;
        let pre = Engine::Striped.search_indexed(&req, reader, nproc());
        req.prefilter = Prefilter::Off;
        let full = Engine::Striped.search_indexed(&req, reader, nproc());
        // The index's own (length-sorted) order, which `seq_index` uses.
        let sorted = reader.read_all();
        let k = reader.word_len();
        match (full, pre, sorted) {
            (Ok(full), Ok(pre), Ok(sorted)) => {
                match check_zero_miss(&full, &pre, |i| shares_word(query, sorted[i].residues(), k))
                {
                    Ok(n) => {
                        word_free = n;
                        out.note(format!(
                            "prefilter check: every significant word-sharing hit kept; {n} significant hit(s) share no {k}-residue word with the default query and are pruned by design"
                        ));
                    }
                    Err(e) => out.check(Err(e)),
                }
            }
            (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => {
                out.check(Err(format!("indexed search failed: {e}")))
            }
        }
    }

    let (plain, _) = phase(&db, mode, args.seconds, None);
    out.attempted = plain.ms.len() as u64;
    out.failed = plain.failed;
    out.errors.extend(plain.errors.iter().cloned());
    let ms: Vec<f64> = plain.ms.iter().map(|p| p.1).collect();
    if !args.trace {
        // Throughput per full cycle of the eleven queries, then the
        // median cycle: one slow stretch of the host moves it less than
        // it moves the total.
        let rates = &plain.rates;
        let rate = stats::median(rates).unwrap_or(0.0);
        out.set("setup_s", stats::median(&setup_s).unwrap_or(0.0));
        out.set("ops_per_s", rate);
        out.note(format!(
            "queries_per_s = {rate:.3}, median of {} query cycles on {} lane(s) of {} thread(s); {} queries ({} residues, {} sequences)",
            rates.len(),
            mode.lanes(),
            mode.threads(),
            ms.len(),
            db.residues(),
            db.seqs.len()
        ));
        out.note(format!("setup_s = median of {SETUPS} set-ups {setup_s:?}"));
        crate::note_latency(&mut out, "query latency", &ms, 90.0);
        return out;
    }

    let (traced, layers) = phase(&db, mode, args.seconds, Some(&mut tracer));
    out.errors.extend(traced.errors.iter().cloned());
    let n = layers.len().max(1) as f64;
    let mean_of = |f: &dyn Fn(&Layers) -> f64| layers.iter().map(f).sum::<f64>() / n;
    let e2e: Vec<f64> = traced.ms.iter().map(|p| p.1).collect();
    let residual_ms = traced
        .ms
        .iter()
        .zip(&layers)
        .map(|(q, l)| q.1 - l.total() * 1e3)
        .sum::<f64>()
        / n;
    // One full cycle of the eleven queries gives the exact counts.
    let cycle = &layers[..layers.len().min(QuerySet::paper().queries().len())];
    let kernel_s: f64 = layers.iter().map(|l| l.kernel_s).sum();
    let subjects: usize = layers.iter().map(|l| l.subjects).sum();
    out.set("bioseq.profile.build_us", mean_of(&|l| l.profile_s) * 1e6);
    out.set("align.parallel.kernel_ms", mean_of(&|l| l.kernel_s) * 1e3);
    out.set(
        "align.striped.gcups",
        layers.iter().map(|l| l.cells).sum::<f64>() / kernel_s / 1e9,
    );
    out.set(
        "align.striped.rescore_frac",
        layers.iter().map(|l| l.rescored).sum::<usize>() as f64 / subjects.max(1) as f64,
    );
    out.set(
        "align.striped.rescored",
        cycle.iter().map(|l| l.rescored).sum::<usize>() as f64,
    );
    out.set("trace.e2e_ms", stats::median(&e2e).unwrap_or(0.0));
    out.set("trace.residual_ms", residual_ms);
    out.set(
        "trace.overhead_frac",
        stats::overhead(&plain.ms, &traced.ms),
    );
    match mode {
        Mode::Scan => {
            let hits: usize = layers.iter().map(|l| l.hits).sum();
            let tb: f64 = layers.iter().map(|l| l.traceback_s).sum();
            out.set("align.traceback.ms_per_hit", tb * 1e3 / hits.max(1) as f64);
            out.set("align.engine.residual_ms", residual_ms);
            out.note("residual = query time minus profile build, kernel and traceback (TopK, Karlin-Altschul annotation)".into());
        }
        Mode::Indexed => {
            let builds = tracer.durations("bioseq.index.build");
            let opens = tracer.durations("bioseq.index.open");
            let read_s: f64 = layers.iter().map(|l| l.read_s).sum();
            let decoded: u64 = layers.iter().map(|l| l.decoded).sum();
            out.set(
                "bioseq.index.build_s",
                stats::median(&builds).unwrap_or(0.0),
            );
            out.set(
                "bioseq.index.open_ms",
                stats::median(&opens).unwrap_or(0.0) * 1e3,
            );
            out.set(
                "bioseq.index.bytes_per_residue",
                db.index.as_ref().map_or(0, Vec::len) as f64 / db.residues() as f64,
            );
            out.set(
                "bioseq.index.prefilter_ms",
                mean_of(&|l| l.prefilter_s) * 1e3,
            );
            out.set(
                "bioseq.index.survival",
                cycle.iter().map(|l| l.candidates).sum::<usize>() as f64,
            );
            out.set("bioseq.index.read_shard_ms", mean_of(&|l| l.read_s) * 1e3);
            out.set(
                "bioseq.index.shards_read",
                cycle.iter().map(|l| l.shards).sum::<usize>() as f64,
            );
            out.set(
                "bioseq.index.decode_mb_per_s",
                decoded as f64 / read_s / 1e6,
            );
            out.set("align.indexed.residual_ms", residual_ms);
            out.set("bioseq.index.word_free_misses", word_free as f64);
            let seqs = db.seqs.len() * cycle.len();
            out.note(format!(
                "prefilter survival {:.2}% of {} subject visits in one query cycle",
                100.0 * cycle.iter().map(|l| l.candidates).sum::<usize>() as f64
                    / seqs.max(1) as f64,
                seqs
            ));
            out.note("residual = query time minus profile, seed lookup, shard reads and kernel (grouping, TopK, annotation)".into());
        }
    }
    crate::finish_trace(&mut out, &tracer, args);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> (Vec<Sequence>, SubstitutionMatrix) {
        let seqs = DatabaseBuilder::new()
            .seed(5)
            .sequences(60)
            .homolog_template(QuerySet::paper().default_query().clone())
            .homolog_fraction(0.2)
            .build()
            .sequences()
            .to_vec();
        (seqs, SubstitutionMatrix::blosum62())
    }

    #[test]
    fn alignments_replay_and_a_wrong_score_is_caught() {
        let (seqs, m) = small();
        let subjects: Vec<&[AminoAcid]> = seqs.iter().map(Sequence::residues).collect();
        let query = QuerySet::paper().default_query().clone();
        let req = request(query.residues(), &m, Mode::Scan);
        let mut resp = Engine::Striped.search(&req, &subjects, 1);
        assert_eq!(check_alignments(&req, &subjects, &resp), Ok(()));
        resp.hits[0].score += 1;
        assert!(check_alignments(&req, &subjects, &resp).is_err());
        resp.hits[0].score -= 1;
        resp.hits[0].alignment = None;
        assert!(check_alignments(&req, &subjects, &resp).is_err());
    }

    #[test]
    fn prefilter_keeps_every_word_sharing_hit_and_a_miss_is_caught() {
        let (seqs, m) = small();
        let mut bytes = Vec::new();
        IndexBuilder::new().write(&seqs, &mut bytes).unwrap();
        let mut reader = IndexReader::from_reader(Cursor::new(bytes)).unwrap();
        let sorted = reader.read_all().unwrap();
        let k = reader.word_len();
        let query = QuerySet::paper().default_query().clone();
        let shares = |i: usize| shares_word(query.residues(), sorted[i].residues(), k);
        let mut req = request(query.residues(), &m, Mode::Indexed);
        let pre = Engine::Striped
            .search_indexed(&req, &mut reader, 1)
            .unwrap();
        req.prefilter = Prefilter::Off;
        let full = Engine::Striped
            .search_indexed(&req, &mut reader, 1)
            .unwrap();
        assert_eq!(check_zero_miss(&full, &pre, shares), Ok(0));
        let first = pre
            .hits
            .iter()
            .position(|h| h.score >= SIGNIFICANT)
            .unwrap();
        let mut missing = pre.clone();
        missing.hits.remove(first);
        assert!(check_zero_miss(&full, &missing, shares).is_err());
        let mut rescored = pre.clone();
        rescored.hits[first].score += 1;
        assert!(check_zero_miss(&full, &rescored, shares).is_err());
        // The same miss is allowed when the subject shares no word.
        let gone = pre.hits[first].seq_index;
        assert_eq!(
            check_zero_miss(&full, &missing, |i| i != gone && shares(i)),
            Ok(1)
        );
    }

    #[test]
    fn shared_words_are_found_and_only_standard_ones_count() {
        let q = Sequence::from_str("q", "ACDEFGHIKXMNPQ").unwrap();
        let hit = Sequence::from_str("s", "WWWDEFGHWW").unwrap();
        let near = Sequence::from_str("s", "WWWDEFGWWW").unwrap();
        let masked = Sequence::from_str("s", "WWKXMNPQWW").unwrap();
        assert!(shares_word(q.residues(), hit.residues(), 5));
        assert!(!shares_word(q.residues(), near.residues(), 5));
        assert!(!shares_word(q.residues(), masked.residues(), 5));
        assert!(shares_word(q.residues(), masked.residues(), 4));
    }

    #[test]
    fn corpus_is_a_function_of_the_seed() {
        let a = corpus(0);
        assert_eq!(a.len(), CORPUS_SEQS);
        assert_eq!(a, corpus(0));
        assert_ne!(a, corpus(1));
    }
}
