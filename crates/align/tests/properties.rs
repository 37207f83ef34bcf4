//! Property-based tests for the alignment algorithms.
//!
//! The single most important invariant of the whole reproduction is that
//! the Smith-Waterman implementations (textbook Gotoh, SSEARCH-style
//! lazy-F, anti-diagonal SIMD, striped SIMD, at both lane widths and
//! both precisions) compute the same score on arbitrary inputs — the
//! paper's workloads are different *machines* running the same *math*.
//!
//! The random cases are generated with the repo's own deterministic
//! xoshiro generator (the container has no registry access, so external
//! property-test frameworks are unavailable); every run tests the same
//! corpus, and a failing case prints its case index for replay.

use sapa_align::engine::{Engine, Prefilter, SearchRequest};
use sapa_align::{banded, blast, fasta, nw, simd_sw, striped, sw, xdrop};
use sapa_bioseq::matrix::GapPenalties;
use sapa_bioseq::profile::QueryProfile;
use sapa_bioseq::rng::Xoshiro256;
use sapa_bioseq::{AminoAcid, SubstitutionMatrix};

const CASES: usize = 96;

/// Uniformly random standard residue (ambiguity codes are exercised by
/// unit tests; heuristics skip them by design).
fn residue(rng: &mut Xoshiro256) -> AminoAcid {
    let i = rng.next_below(AminoAcid::STANDARD_COUNT as u64) as usize;
    AminoAcid::from_index(i).unwrap()
}

/// Random protein of length `0..max_len`.
fn protein(rng: &mut Xoshiro256, max_len: usize) -> Vec<AminoAcid> {
    let len = rng.next_below(max_len as u64) as usize;
    (0..len).map(|_| residue(rng)).collect()
}

/// Gap-heavy protein: long runs of one residue interleaved with noise,
/// which makes optimal alignments open and extend gaps aggressively.
fn gappy_protein(rng: &mut Xoshiro256, max_len: usize) -> Vec<AminoAcid> {
    let len = rng.next_below(max_len as u64) as usize;
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let run = 1 + rng.next_below(6) as usize;
        let r = residue(rng);
        for _ in 0..run.min(len - out.len()) {
            out.push(r);
        }
        if rng.next_below(3) == 0 && out.len() < len {
            out.push(residue(rng));
        }
    }
    out
}

fn gap_penalties(rng: &mut Xoshiro256) -> GapPenalties {
    GapPenalties::new(1 + rng.next_below(14) as i32, 1 + rng.next_below(4) as i32)
}

#[test]
fn simd_sw_matches_scalar() {
    let m = SubstitutionMatrix::blosum62();
    let mut rng = Xoshiro256::new(0x51AD);
    for case in 0..CASES {
        let a = protein(&mut rng, 48);
        let b = protein(&mut rng, 48);
        let g = gap_penalties(&mut rng);
        let expect = sw::score(&a, &b, &m, g);
        assert_eq!(simd_sw::score::<8>(&a, &b, &m, g), expect, "case {case}");
        assert_eq!(simd_sw::score::<16>(&a, &b, &m, g), expect, "case {case}");
    }
}

/// The tentpole invariant: the Farrar striped kernel is score-identical
/// to the scalar Gotoh oracle at both lane widths and both precisions,
/// across random, gap-heavy, and all-identical inputs.
#[test]
fn striped_matches_scalar() {
    let m = SubstitutionMatrix::blosum62();
    let mut rng = Xoshiro256::new(0x57A1);
    for case in 0..CASES {
        let a = protein(&mut rng, 64);
        let b = protein(&mut rng, 64);
        let g = gap_penalties(&mut rng);
        let expect = sw::score(&a, &b, &m, g);
        assert_eq!(
            striped::score::<8>(&a, &b, &m, g),
            expect,
            "L=8 case {case}"
        );
        assert_eq!(
            striped::score::<16>(&a, &b, &m, g),
            expect,
            "L=16 case {case}"
        );
        assert_eq!(
            striped::score_adaptive::<16, 8>(&a, &b, &m, g),
            expect,
            "adaptive 128-bit case {case}"
        );
        assert_eq!(
            striped::score_adaptive::<32, 16>(&a, &b, &m, g),
            expect,
            "adaptive 256-bit case {case}"
        );
    }
}

#[test]
fn striped_matches_scalar_on_gap_heavy_inputs() {
    let m = SubstitutionMatrix::blosum62();
    let mut rng = Xoshiro256::new(0x6A99);
    for case in 0..CASES {
        let a = gappy_protein(&mut rng, 72);
        let b = gappy_protein(&mut rng, 72);
        // Cheap gaps so optimal alignments actually use them.
        let g = GapPenalties::new(1 + rng.next_below(4) as i32, 1);
        let expect = sw::score(&a, &b, &m, g);
        assert_eq!(
            striped::score::<8>(&a, &b, &m, g),
            expect,
            "L=8 case {case}"
        );
        assert_eq!(
            striped::score::<16>(&a, &b, &m, g),
            expect,
            "L=16 case {case}"
        );
        assert_eq!(
            striped::score_adaptive::<16, 8>(&a, &b, &m, g),
            expect,
            "adaptive case {case}"
        );
    }
}

#[test]
fn striped_matches_scalar_on_all_identical_inputs() {
    // All-identical sequences maximize score growth per cell — the
    // worst case for the lazy-F early exit and for byte saturation.
    let m = SubstitutionMatrix::blosum62();
    let g = GapPenalties::paper();
    for len in [1usize, 7, 8, 9, 16, 17, 33, 64, 120] {
        let a = vec![AminoAcid::Trp; len];
        let expect = sw::score(&a, &a, &m, g);
        assert_eq!(striped::score::<8>(&a, &a, &m, g), expect, "len {len}");
        assert_eq!(striped::score::<16>(&a, &a, &m, g), expect, "len {len}");
        assert_eq!(
            striped::score_adaptive::<16, 8>(&a, &a, &m, g),
            expect,
            "adaptive len {len}"
        );
    }
}

#[test]
fn striped_byte_pass_agrees_or_overflows() {
    let m = SubstitutionMatrix::blosum62();
    let mut rng = Xoshiro256::new(0xB0B5);
    for case in 0..CASES {
        let a = protein(&mut rng, 48);
        let b = protein(&mut rng, 48);
        let g = gap_penalties(&mut rng);
        let expect = sw::score(&a, &b, &m, g);
        if let Some(s) = striped::score_bytes::<16>(&a, &b, &m, g) {
            assert_eq!(s, expect, "LB=16 case {case}");
        }
        if let Some(s) = striped::score_bytes::<32>(&a, &b, &m, g) {
            assert_eq!(s, expect, "LB=32 case {case}");
        }
    }
}

/// An overflow-forcing case: a long near-identical pair whose true score
/// exceeds the byte kernel's headroom must take the 8→16-bit rescore
/// path and still produce the exact score.
#[test]
fn striped_overflow_forces_word_rescore() {
    let m = SubstitutionMatrix::blosum62();
    let g = GapPenalties::paper();
    let a = vec![AminoAcid::Trp; 64]; // self-score 64 × 11 = 704 >> u8 range
    assert_eq!(striped::score_bytes::<16>(&a, &a, &m, g), None);
    assert_eq!(striped::score_bytes::<32>(&a, &a, &m, g), None);
    let expect = sw::score(&a, &a, &m, g);
    assert_eq!(striped::score_adaptive::<16, 8>(&a, &a, &m, g), expect);
    assert_eq!(striped::score_adaptive::<32, 16>(&a, &a, &m, g), expect);
}

/// Profile reuse across subjects must be score-equivalent to building
/// the profile per pair (what the batched search driver relies on).
#[test]
fn striped_profile_reuse_is_pure() {
    let m = SubstitutionMatrix::blosum62();
    let g = GapPenalties::paper();
    let mut rng = Xoshiro256::new(0xCAFE);
    let query = protein(&mut rng, 80);
    let profile = QueryProfile::build(&query, &m, 8);
    let mut ws = striped::Workspace::<8>::new();
    let mut bws = striped::ByteWorkspace::<16>::new();
    for case in 0..CASES {
        let b = protein(&mut rng, 64);
        let expect = sw::score(&query, &b, &m, g);
        assert_eq!(
            striped::score_with_profile::<8>(&profile, &b, g, &mut ws),
            expect,
            "word case {case}"
        );
        assert_eq!(
            striped::score_adaptive_with_profile::<16, 8>(&profile, &b, g, &mut bws, &mut ws),
            expect,
            "adaptive case {case}"
        );
    }
}

#[test]
fn lazy_f_matches_scalar() {
    let m = SubstitutionMatrix::blosum62();
    let mut rng = Xoshiro256::new(0x1A2F);
    for case in 0..CASES {
        let a = protein(&mut rng, 48);
        let b = protein(&mut rng, 48);
        let g = gap_penalties(&mut rng);
        assert_eq!(
            sw::score_lazy_f(&a, &b, &m, g),
            sw::score(&a, &b, &m, g),
            "case {case}"
        );
    }
}

#[test]
fn sw_score_is_symmetric() {
    let m = SubstitutionMatrix::blosum62();
    let g = GapPenalties::paper();
    let mut rng = Xoshiro256::new(0x5E33);
    for case in 0..CASES {
        let a = protein(&mut rng, 32);
        let b = protein(&mut rng, 32);
        assert_eq!(
            sw::score(&a, &b, &m, g),
            sw::score(&b, &a, &m, g),
            "case {case}"
        );
    }
}

#[test]
fn sw_score_nonnegative_and_bounded() {
    let m = SubstitutionMatrix::blosum62();
    let g = GapPenalties::paper();
    let mut rng = Xoshiro256::new(0xB0BD);
    for case in 0..CASES {
        let a = protein(&mut rng, 32);
        let b = protein(&mut rng, 32);
        let s = sw::score(&a, &b, &m, g);
        assert!(s >= 0, "case {case}");
        // Upper bound: the shorter sequence matched perfectly at the
        // matrix maximum.
        let bound = (a.len().min(b.len()) as i32) * m.max_score();
        assert!(s <= bound, "case {case}: {s} > {bound}");
    }
}

#[test]
fn sw_self_score_is_diagonal_sum() {
    let m = SubstitutionMatrix::blosum62();
    let g = GapPenalties::paper();
    let mut rng = Xoshiro256::new(0xD1A6);
    for case in 0..CASES {
        let a = protein(&mut rng, 32);
        let expected: i32 = a.iter().map(|&x| m.score(x, x)).sum();
        assert_eq!(sw::score(&a, &a, &m, g), expected.max(0), "case {case}");
    }
}

#[test]
fn banded_never_exceeds_full() {
    let m = SubstitutionMatrix::blosum62();
    let g = GapPenalties::paper();
    let mut rng = Xoshiro256::new(0xBA4D);
    for case in 0..CASES {
        let a = protein(&mut rng, 32);
        let b = protein(&mut rng, 32);
        let diag = rng.next_below(16) as isize - 8;
        let width = 1 + rng.next_below(5) as usize;
        assert!(
            banded::score(&a, &b, &m, g, diag, width) <= sw::score(&a, &b, &m, g),
            "case {case}"
        );
    }
}

#[test]
fn banded_full_width_equals_full() {
    let m = SubstitutionMatrix::blosum62();
    let g = GapPenalties::paper();
    let mut rng = Xoshiro256::new(0xF0F0);
    for case in 0..CASES {
        let a = protein(&mut rng, 24);
        let b = protein(&mut rng, 24);
        if a.is_empty() || b.is_empty() {
            continue;
        }
        assert_eq!(
            banded::score(&a, &b, &m, g, 0, a.len() + b.len()),
            sw::score(&a, &b, &m, g),
            "case {case}"
        );
    }
}

#[test]
fn global_at_most_local() {
    let m = SubstitutionMatrix::blosum62();
    let g = GapPenalties::paper();
    let mut rng = Xoshiro256::new(0x6B0A);
    for case in 0..CASES {
        let a = protein(&mut rng, 24);
        let b = protein(&mut rng, 24);
        assert!(
            nw::score(&a, &b, &m, g) <= sw::score(&a, &b, &m, g),
            "case {case}"
        );
    }
}

#[test]
fn alignment_hierarchy_global_semiglobal_local() {
    // global ≤ semi-global ≤ local: each relaxes more constraints.
    let m = SubstitutionMatrix::blosum62();
    let g = GapPenalties::paper();
    let mut rng = Xoshiro256::new(0x41E2);
    for case in 0..CASES {
        let a = protein(&mut rng, 24);
        let b = protein(&mut rng, 24);
        let global = nw::score(&a, &b, &m, g);
        let semi = nw::semiglobal_score(&a, &b, &m, g);
        let local = sw::score(&a, &b, &m, g);
        assert!(global <= semi, "case {case}: global {global} > semi {semi}");
        assert!(semi <= local, "case {case}: semi {semi} > local {local}");
    }
}

#[test]
fn global_traceback_matches_score() {
    let m = SubstitutionMatrix::blosum62();
    let g = GapPenalties::paper();
    let mut rng = Xoshiro256::new(0x67B4);
    for case in 0..CASES {
        let a = protein(&mut rng, 16);
        let b = protein(&mut rng, 16);
        let al = nw::align(&a, &b, &m, g);
        assert_eq!(al.score, nw::score(&a, &b, &m, g), "case {case}");
    }
}

#[test]
fn traceback_score_matches() {
    let m = SubstitutionMatrix::blosum62();
    let g = GapPenalties::paper();
    let mut rng = Xoshiro256::new(0x7ACE);
    for case in 0..CASES {
        let a = protein(&mut rng, 20);
        let b = protein(&mut rng, 20);
        let al = sw::align(&a, &b, &m, g);
        assert_eq!(al.score, sw::score(&a, &b, &m, g), "case {case}");
    }
}

#[test]
fn heuristic_scores_never_exceed_sw() {
    let m = SubstitutionMatrix::blosum62();
    let g = GapPenalties::paper();
    let mut rng = Xoshiro256::new(0x43A7);
    for case in 0..CASES {
        let a = protein(&mut rng, 40);
        let b = protein(&mut rng, 40);
        if a.len() < 3 || b.len() < 3 {
            continue;
        }
        let full = sw::score(&a, &b, &m, g);

        // FASTA's opt is a banded SW — a lower bound on full SW.
        let idx = fasta::KtupIndex::build(&a, 2);
        let fs = fasta::score_subject(&idx, &b, &m, g, &fasta::FastaParams::default());
        assert!(fs.opt <= full, "case {case}: opt {} > sw {full}", fs.opt);

        // BLAST's reported score (banded or ungapped) is also ≤ full SW.
        let widx = blast::WordIndex::build(&a, &m, 11);
        let db: Vec<&[AminoAcid]> = vec![&b];
        let res = blast::search(&widx, db, &m, g, &blast::BlastParams::default(), 5);
        if let Some(best) = res.best_score() {
            assert!(best <= full, "case {case}: blast {best} > sw {full}");
        }
    }
}

#[test]
fn xdrop_monotone_in_x_and_bounded_by_local() {
    let m = SubstitutionMatrix::blosum62();
    let g = GapPenalties::paper();
    let mut rng = Xoshiro256::new(0xD409);
    for case in 0..CASES {
        let a = protein(&mut rng, 24);
        let b = protein(&mut rng, 24);
        let x_small = 2 + rng.next_below(6) as i32;
        let tight = xdrop::extend_right(&a, &b, &m, g, x_small);
        let loose = xdrop::extend_right(&a, &b, &m, g, 10_000);
        assert!(tight <= loose, "case {case}: tight {tight} > loose {loose}");
        // An origin-anchored extension can never beat the free local
        // alignment.
        assert!(loose <= sw::score(&a, &b, &m, g).max(0), "case {case}");
        assert!(loose >= 0, "case {case}");
    }
}

/// The deconstructed lazy-F kernels (early-exit + prefix-scan
/// correction) must be *bit-identical* to the pre-rework reference
/// kernels kept in-tree as oracles — same scores as scalar SW for the
/// word pass, and the exact same `Option` (including the overflow
/// `None` decisions) for the byte pass.
#[test]
fn deconstructed_lazy_f_is_bit_identical_to_reference() {
    let m = SubstitutionMatrix::blosum62();
    let mut rng = Xoshiro256::new(0xDEC0);
    let mut ws8 = striped::Workspace::<8>::new();
    let mut ws16 = striped::Workspace::<16>::new();
    let mut bws16 = striped::ByteWorkspace::<16>::new();
    let mut bws32 = striped::ByteWorkspace::<32>::new();
    for case in 0..CASES {
        // Alternate random and gap-heavy inputs; cheap gaps every
        // third case keep the correction path hot.
        let (a, b) = if case % 2 == 0 {
            (protein(&mut rng, 90), protein(&mut rng, 90))
        } else {
            (gappy_protein(&mut rng, 90), gappy_protein(&mut rng, 90))
        };
        let g = if case % 3 == 0 {
            GapPenalties::new(1 + rng.next_below(3) as i32, 1)
        } else {
            gap_penalties(&mut rng)
        };
        let expect = sw::score(&a, &b, &m, g);

        let p128 = QueryProfile::build(&a, &m, 8);
        let p256 = QueryProfile::build(&a, &m, 16);

        let new = striped::score_with_profile::<8>(&p128, &b, g, &mut ws8);
        let old = striped::score_with_profile_ref::<8>(&p128, &b, g, &mut ws8);
        assert_eq!(new, old, "word L=8 case {case}");
        assert_eq!(new, expect, "word L=8 vs scalar case {case}");

        let new = striped::score_with_profile::<16>(&p256, &b, g, &mut ws16);
        let old = striped::score_with_profile_ref::<16>(&p256, &b, g, &mut ws16);
        assert_eq!(new, old, "word L=16 case {case}");
        assert_eq!(new, expect, "word L=16 vs scalar case {case}");

        // Byte pass: Option equality — both kernels must make the same
        // overflow call, and agree with scalar when they answer.
        let new = striped::score_bytes_with_profile::<16>(&p128, &b, g, &mut bws16);
        let old = striped::score_bytes_with_profile_ref::<16>(&p128, &b, g, &mut bws16);
        assert_eq!(new, old, "byte LB=16 case {case}");
        if let Some(s) = new {
            assert_eq!(s, expect, "byte LB=16 vs scalar case {case}");
        }

        let new = striped::score_bytes_with_profile::<32>(&p256, &b, g, &mut bws32);
        let old = striped::score_bytes_with_profile_ref::<32>(&p256, &b, g, &mut bws32);
        assert_eq!(new, old, "byte LB=32 case {case}");
        if let Some(s) = new {
            assert_eq!(s, expect, "byte LB=32 vs scalar case {case}");
        }
    }
}

/// Minimal best endpoint from a plain scalar Gotoh H matrix: the first
/// subject column whose maximum strictly beats every earlier column's,
/// and the smallest query index attaining that maximum within it.
/// `(score, query_end, subject_end)`; `(0, 0, 0)` when nothing scores.
fn scalar_min_endpoint(
    a: &[AminoAcid],
    b: &[AminoAcid],
    m: &SubstitutionMatrix,
    g: GapPenalties,
) -> (i32, usize, usize) {
    const NEG: i32 = i32::MIN / 4;
    let (open_ext, ext) = (g.open + g.extend, g.extend);
    // h[i][j] is H at query row i, subject column j (1-based; row and
    // column 0 are the zero boundary).
    let mut h = vec![vec![0i32; b.len() + 1]; a.len() + 1];
    let mut e = vec![vec![NEG; b.len() + 1]; a.len() + 1];
    let mut f = vec![vec![NEG; b.len() + 1]; a.len() + 1];
    for i in 1..=a.len() {
        for j in 1..=b.len() {
            e[i][j] = (e[i][j - 1] - ext).max(h[i][j - 1] - open_ext);
            f[i][j] = (f[i - 1][j] - ext).max(h[i - 1][j] - open_ext);
            let diag = h[i - 1][j - 1] + m.score(a[i - 1], b[j - 1]);
            h[i][j] = 0.max(diag).max(e[i][j]).max(f[i][j]);
        }
    }
    let mut best = (0, 0, 0);
    for j in 0..b.len() {
        let col = || h[1..].iter().map(|row| row[j + 1]);
        let col_max = col().max().unwrap_or(0);
        if col_max > best.0 {
            let i = col().position(|v| v == col_max).unwrap();
            best = (col_max, i, j);
        }
    }
    best
}

/// The endpoint pass has no `_ref` oracle, so it is checked against a
/// scalar recomputation: same score as the score-only kernel and
/// scalar SW, and the SSW-style minimal end cell, at both lane widths.
#[test]
fn score_ends_reports_minimal_endpoint() {
    let m = SubstitutionMatrix::blosum62();
    // The corpus of `deconstructed_lazy_f_is_bit_identical_to_reference`.
    let mut rng = Xoshiro256::new(0xDEC0);
    let mut ws8 = striped::Workspace::<8>::new();
    let mut ws16 = striped::Workspace::<16>::new();
    for case in 0..CASES {
        let (a, b) = if case % 2 == 0 {
            (protein(&mut rng, 90), protein(&mut rng, 90))
        } else {
            (gappy_protein(&mut rng, 90), gappy_protein(&mut rng, 90))
        };
        let g = if case % 3 == 0 {
            GapPenalties::new(1 + rng.next_below(3) as i32, 1)
        } else {
            gap_penalties(&mut rng)
        };
        let (expect, query_end, subject_end) = scalar_min_endpoint(&a, &b, &m, g);
        assert_eq!(
            expect,
            sw::score(&a, &b, &m, g),
            "scalar oracle case {case}"
        );

        let p128 = QueryProfile::build(&a, &m, 8);
        let ends = striped::score_ends_with_profile::<8>(&p128, &b, g, &mut ws8);
        let plain = striped::score_with_profile::<8>(&p128, &b, g, &mut ws8);
        assert_eq!(ends.score, plain, "L=8 ends vs score-only case {case}");
        assert_eq!(ends.score, expect, "L=8 ends vs scalar case {case}");
        assert_eq!(
            (ends.query_end, ends.subject_end),
            (query_end, subject_end),
            "L=8 endpoint case {case}"
        );

        let p256 = QueryProfile::build(&a, &m, 16);
        let ends = striped::score_ends_with_profile::<16>(&p256, &b, g, &mut ws16);
        let plain = striped::score_with_profile::<16>(&p256, &b, g, &mut ws16);
        assert_eq!(ends.score, plain, "L=16 ends vs score-only case {case}");
        assert_eq!(ends.score, expect, "L=16 ends vs scalar case {case}");
        assert_eq!(
            (ends.query_end, ends.subject_end),
            (query_end, subject_end),
            "L=16 endpoint case {case}"
        );
    }
}

/// End-to-end traceback contract: every hit an exact engine reports
/// with `report_alignments` carries coordinates and a CIGAR that
/// replay to exactly the reported score — including hits that took the
/// byte-saturation → word rescore path.
#[test]
fn traceback_cigars_replay_to_reported_score() {
    let m = SubstitutionMatrix::blosum62();
    let g = GapPenalties::paper();
    let mut rng = Xoshiro256::new(0xC16A);

    // ~120-residue query; the database plants a near-identical copy
    // (few point edits), whose score far exceeds byte headroom and
    // forces the adaptive engines through the word rescore, plus
    // random/gappy decoys and a truncated fragment.
    let query: Vec<AminoAcid> = (0..120)
        .map(|_| {
            let i = rng.next_below(20) as usize;
            AminoAcid::from_index(i).unwrap()
        })
        .collect();
    let mut near = query.clone();
    for _ in 0..4 {
        let at = rng.next_below(near.len() as u64) as usize;
        let i = rng.next_below(20) as usize;
        near[at] = AminoAcid::from_index(i).unwrap();
    }
    let mut subjects: Vec<Vec<AminoAcid>> = vec![near, query[20..100].to_vec()];
    for _ in 0..12 {
        subjects.push(protein(&mut rng, 110));
        subjects.push(gappy_protein(&mut rng, 110));
    }
    let slices: Vec<&[AminoAcid]> = subjects.iter().map(|s| s.as_slice()).collect();

    let req = SearchRequest {
        query: &query,
        matrix: &m,
        gaps: g,
        top_k: slices.len(),
        min_score: 1,
        deadline: None,
        report_alignments: true,
        prefilter: Prefilter::Off,
    };
    for engine in Engine::ALL.into_iter().filter(|e| e.is_exact()) {
        let resp = engine.search(&req, &slices, 2);
        assert!(!resp.hits.is_empty(), "{engine}");
        // The planted near-copy must rank first with a score beyond
        // byte range, proving the rescore path is in play.
        assert_eq!(resp.hits[0].seq_index, 0, "{engine}");
        assert!(resp.hits[0].score > 255, "{engine}: {}", resp.hits[0].score);
        for hit in &resp.hits {
            let al = hit
                .alignment
                .as_ref()
                .unwrap_or_else(|| panic!("{engine}: hit {} missing alignment", hit.seq_index));
            assert_eq!(
                al.replay_score(&query, slices[hit.seq_index], &m, g),
                Some(hit.score),
                "{engine}: hit {} CIGAR {}",
                hit.seq_index,
                al.cigar
            );
        }
    }
}

#[test]
fn word_index_entries_meet_threshold() {
    let m = SubstitutionMatrix::blosum62();
    let mut rng = Xoshiro256::new(0x3070);
    for case in 0..CASES {
        let a = protein(&mut rng, 24);
        if a.len() < 3 {
            continue;
        }
        let t = 8 + rng.next_below(6) as i32;
        let idx = blast::WordIndex::build(&a, &m, t);
        for word in 0..blast::WORD_TABLE_SIZE {
            for &qi in idx.lookup(word) {
                let q = &a[qi as usize..qi as usize + 3];
                let c = [word / 400, (word / 20) % 20, word % 20];
                let score: i32 = (0..3).map(|k| m.score_by_index(q[k].index(), c[k])).sum();
                assert!(score >= t, "case {case}");
            }
        }
    }
}
