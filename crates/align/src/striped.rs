//! Farrar striped SIMD Smith-Waterman — the database-search fast path.
//!
//! The paper's `SW_vmx128`/`SW_vmx256` workloads use the Wozniak
//! anti-diagonal formulation ([`crate::simd_sw`]), which pays two taxes
//! every cell: a per-diagonal lane shuffle (`vperm`, the dominant trauma
//! in the paper's Fig. 9) and a scalar gather of substitution scores.
//! Farrar's *striped* layout (Bioinformatics 2007), as productionized by
//! the SSW library (Zhao et al.) and refined by Snytsar's lazy-F
//! analysis, removes both:
//!
//! * the query is pre-laid-out in a [`QueryProfile`] so the inner loop
//!   loads a whole vector of substitution scores with one load, and
//! * vertical-gap (`F`) propagation across lane boundaries is deferred
//!   to a rare *lazy-F* correction that usually costs one predicate.
//!
//! The lazy-F correction here is *deconstructed* following Snytsar
//! (arXiv:1909.00899): the common no-correction column is a single
//! three-op early-exit test (shift, subtract, compare — no wrap
//! iteration, no stores), and only when that predicate fires does the
//! bounded wrap repair run, visiting each segment at most once per
//! wrap under Farrar's termination test. Snytsar's further step — a
//! `log2(L)`-step max-plus prefix scan folding all wraps into one
//! pass — was implemented and measured slower on the portable
//! `sapa_vsimd` bodies, before the 128-bit shapes had SSE2 bodies; see
//! the comment in the column loop. The pre-deconstruction Farrar loop
//! is kept as [`score_with_profile_ref`]/[`score_bytes_with_profile_ref`]
//! for the bit-identity property tests and the speedup benchmark.
//!
//! Like SSW, every live entry point runs **one** column loop, generic
//! over the lane scalar and the lane count of a
//! [`sapa_vsimd::Lanes`] register:
//!
//! * [`score_with_profile`] — 16-bit signed lanes (`Vector<L>`), exact
//!   for every score below `i16::MAX`;
//! * [`score_bytes_with_profile`] — biased 8-bit unsigned lanes
//!   (`ByteVector<L>`, twice the lanes per register) with saturation
//!   detection; [`score_adaptive_with_profile`] runs bytes first and
//!   rescores the rare overflowing subject in 16-bit — the SSW
//!   overflow-recovery scheme;
//! * [`score_ends_with_profile`] — the 16-bit pass that also reports
//!   the *end cell* of the best local alignment (SSW-style minimal
//!   endpoint: first column attaining the best score, smallest query
//!   offset within it) — the first pass of the three-pass traceback in
//!   [`crate::traceback`].
//!
//! What differs between them is small: the lane scalar supplies the
//! dead value, the profile row and the profile add (zero floor in
//! 16-bit, bias subtraction in 8-bit), and a per-column step after the
//! lazy-F correction does the rest — nothing for the 16-bit score, the
//! saturation guard for bytes, endpoint tracking for the end pass.
//!
//! On x86_64 the 128-bit shapes the engines run (`Lanes<u8, 16>`,
//! `Lanes<i16, 8>`) take `sapa_vsimd`'s SSE2 bodies, and the segment
//! loop is one zipped pass with no per-segment index. Together they
//! took the single-thread byte pass from about 2.0 to 4.2 GCUPS and
//! the word and end passes from about 1.7 and 1.6 to 2.3 and 2.2
//! (1,500 subjects × the 11 paper queries; the SSE2 bodies alone moved
//! only the byte pass). The lazy-F findings above predate both; see
//! DESIGN §5.12.
//!
//! Every variant is score-identical to the scalar Gotoh oracle
//! ([`crate::sw::score`]); the property suite in `tests/properties.rs`
//! enforces that at both lane widths, both precisions, and across the
//! overflow boundary.
//!
//! ```
//! use sapa_align::striped;
//! use sapa_bioseq::{Sequence, SubstitutionMatrix};
//! use sapa_bioseq::matrix::GapPenalties;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let a = Sequence::from_str("a", "HEAGAWGHEE")?;
//! let b = Sequence::from_str("b", "PAWHEAE")?;
//! let m = SubstitutionMatrix::blosum62();
//! let g = GapPenalties::paper();
//! assert_eq!(striped::score::<8>(a.residues(), b.residues(), &m, g), 17);
//! assert_eq!(striped::score_adaptive::<16, 8>(a.residues(), b.residues(), &m, g), 17);
//! # Ok(())
//! # }
//! ```

use std::ops::ControlFlow;

use sapa_bioseq::matrix::GapPenalties;
use sapa_bioseq::profile::{QueryProfile, WORD_PAD};
use sapa_bioseq::{AminoAcid, SubstitutionMatrix};
use sapa_vsimd::{ByteVector, Lane, Lanes, Vector};

/// Reusable row state for the striped kernel: three arrays of
/// `segments` vectors (H current, H previous, E). A database-search
/// worker allocates one workspace and reuses it for every subject —
/// the buffers are sized by the *query*, which is fixed for the scan.
#[derive(Debug, Clone, Default)]
pub struct RowWorkspace<T: Lane, const L: usize> {
    h_store: Vec<Lanes<T, L>>,
    h_load: Vec<Lanes<T, L>>,
    e: Vec<Lanes<T, L>>,
}

/// 16-bit row state, for [`score_with_profile`] and
/// [`score_ends_with_profile`].
pub type Workspace<const L: usize> = RowWorkspace<i16, L>;

/// 8-bit row state, for [`score_bytes_with_profile`].
pub type ByteWorkspace<const L: usize> = RowWorkspace<u8, L>;

impl<T: Lane, const L: usize> RowWorkspace<T, L> {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Per-subject workspace reset. A trait of its own because it needs the
/// private [`Precision`] bound, which a public type's inherent impl
/// may not carry.
trait Reset {
    /// Sizes the buffers for `segments` and resets per-subject state.
    fn reset(&mut self, segments: usize);
}

impl<T: Precision, const L: usize> Reset for RowWorkspace<T, L> {
    fn reset(&mut self, segments: usize) {
        self.h_store.clear();
        self.h_store.resize(segments, Lanes::zero());
        self.h_load.clear();
        self.h_load.resize(segments, Lanes::zero());
        self.e.clear();
        self.e.resize(segments, Lanes::splat(T::DEAD));
    }
}

/// The per-precision parts of the striped column loop.
trait Precision: Lane {
    /// F and E start here; it can never raise an H.
    const DEAD: Self;

    /// Segments per striped column for this precision.
    fn segments(profile: &QueryProfile) -> usize;

    /// The profile row for subject residue `c`.
    fn row(profile: &QueryProfile, c: AminoAcid) -> &[Self];

    /// The offset every profile score carries in this layout.
    fn bias(profile: &QueryProfile) -> Self;

    /// A gap penalty as a lane value.
    fn penalty(p: i32) -> Self;

    /// The diagonal step: `h` plus the profile scores `p`, un-biased
    /// and floored at the local-alignment zero.
    fn add_score<const L: usize>(
        h: Lanes<Self, L>,
        p: Lanes<Self, L>,
        bias: Lanes<Self, L>,
    ) -> Lanes<Self, L>;
}

impl Precision for i16 {
    const DEAD: Self = WORD_PAD;

    fn segments(profile: &QueryProfile) -> usize {
        profile.word_segments()
    }

    fn row(profile: &QueryProfile, c: AminoAcid) -> &[Self] {
        profile.word_row(c)
    }

    fn bias(_: &QueryProfile) -> Self {
        0
    }

    fn penalty(p: i32) -> Self {
        p as i16
    }

    #[inline]
    fn add_score<const L: usize>(h: Vector<L>, p: Vector<L>, _: Vector<L>) -> Vector<L> {
        h.adds(p).max(Vector::zero())
    }
}

impl Precision for u8 {
    // Unsigned saturating subtraction floors at 0 — exactly the
    // local-alignment zero floor, so F/E start dead at 0.
    const DEAD: Self = 0;

    fn segments(profile: &QueryProfile) -> usize {
        profile.byte_segments()
    }

    fn row(profile: &QueryProfile, c: AminoAcid) -> &[Self] {
        profile
            .byte_row(c)
            .expect("byte layout checked by the caller")
    }

    fn bias(profile: &QueryProfile) -> Self {
        profile.bias() as u8
    }

    fn penalty(p: i32) -> Self {
        p.min(255) as u8
    }

    #[inline]
    fn add_score<const L: usize>(
        h: ByteVector<L>,
        p: ByteVector<L>,
        bias: ByteVector<L>,
    ) -> ByteVector<L> {
        h.adds(p).subs(bias)
    }
}

/// The striped column loop behind every live entry point.
///
/// Scores `b` against `profile` column by column and returns the
/// lane-wise running maximum of every H cell. After each column's
/// lazy-F correction, `column_done(j, vmax, h)` sees the column index,
/// the running maximum and the column's final H segments; a `Break`
/// stops the scan and yields `None`. The caller has checked the lane
/// count and that both sequences are non-empty.
#[inline]
fn scan_columns<T: Precision, const L: usize>(
    profile: &QueryProfile,
    b: &[AminoAcid],
    gaps: GapPenalties,
    ws: &mut RowWorkspace<T, L>,
    mut column_done: impl FnMut(usize, Lanes<T, L>, &[Lanes<T, L>]) -> ControlFlow<()>,
) -> Option<Lanes<T, L>> {
    let segs = T::segments(profile);
    let open_ext = Lanes::<T, L>::splat(T::penalty(gaps.open + gaps.extend));
    let ext = Lanes::<T, L>::splat(T::penalty(gaps.extend));
    let bias = Lanes::<T, L>::splat(T::bias(profile));
    let dead = Lanes::<T, L>::splat(T::DEAD);

    ws.reset(segs);
    let mut vmax = Lanes::<T, L>::zero();

    for (j, &bj) in b.iter().enumerate() {
        let row = T::row(profile, bj);
        // F starts dead: within-column chains that cross a lane
        // boundary are repaired by the lazy-F correction below.
        let mut vf = dead;
        // The diagonal input of segment 0 is the previous column's last
        // segment shifted one lane up; lane 0 gets the H[0][j-1] = 0
        // local-alignment boundary.
        let mut vh = ws.h_store[segs - 1].shift_in_first(T::ZERO);
        std::mem::swap(&mut ws.h_store, &mut ws.h_load);

        // One zipped pass over the segments: no per-segment index, so
        // no per-segment bounds check between the vector ops.
        let segments = ws.h_store[..segs]
            .iter_mut()
            .zip(&ws.h_load[..segs])
            .zip(&mut ws.e[..segs])
            .zip(row[..segs * L].chunks_exact(L));
        for (((h_store, &h_load), e), p) in segments {
            // One load replaces the anti-diagonal kernel's per-cell
            // score gather.
            let p = Lanes::<T, L>::from_slice(p);
            let e_in = *e;
            vh = T::add_score(vh, p, bias).max(e_in).max(vf);
            vmax = vmax.max(vh);
            *h_store = vh;

            let h_open = vh.subs(open_ext);
            *e = e_in.subs(ext).max(h_open);
            vf = vf.subs(ext).max(h_open);

            vh = h_load;
        }

        // Deconstructed lazy-F (Snytsar): the common no-correction
        // column is this one predicate — shift, subtract, compare —
        // with no wrap iteration and no stores. Only when it fires
        // does the bounded wrap repair below run, visiting each
        // segment at most once per wrap under Farrar's termination
        // test (at most L wraps). In bytes it fires far more rarely,
        // because a positive F has to survive the zero floor. The
        // repair is spelled out inline: hoisting it into a helper —
        // even `#[inline(always)]`, even over plain slices —
        // measurably pessimized the surrounding loop's
        // auto-vectorization, and `#[cold]`/`#[inline(never)]`
        // variants cost ~5x by un-vectorizing the portable vector
        // ops. A log2(L)-step max-plus prefix scan folding all wraps
        // into one pass (Snytsar's formulation) also benched slower:
        // the folded F stays live across more segments than any
        // single wrap, and the portable bodies have no branch cost
        // for the scan to amortize. Both were measured on the
        // portable bodies only, before the SSE2 ones existed.
        let mut vf = vf.shift_in_first(T::DEAD);
        if vf.any_gt(ws.h_store[0].subs(open_ext)) {
            'lazy: for _ in 0..L {
                for s in 0..segs {
                    let h = ws.h_store[s].max(vf);
                    ws.h_store[s] = h;
                    vmax = vmax.max(h);
                    let h_open = h.subs(open_ext);
                    // A raised H can also feed next column's E.
                    ws.e[s] = ws.e[s].max(h_open);
                    vf = vf.subs(ext);
                    if !vf.any_gt(h_open) {
                        break 'lazy;
                    }
                }
                vf = vf.shift_in_first(T::DEAD);
            }
        }

        if column_done(j, vmax, &ws.h_store).is_break() {
            return None;
        }
    }

    Some(vmax)
}

/// Striped Smith-Waterman in 16-bit lanes against a prebuilt profile.
///
/// Exact as long as the true score stays below `i16::MAX` (the same
/// contract as [`crate::simd_sw::score`]). `ws` is per-subject scratch
/// that callers reuse across a database scan.
///
/// # Panics
///
/// Panics if the profile was built for a different word lane count.
pub fn score_with_profile<const L: usize>(
    profile: &QueryProfile,
    b: &[AminoAcid],
    gaps: GapPenalties,
    ws: &mut Workspace<L>,
) -> i32 {
    assert_eq!(
        profile.word_lanes(),
        L,
        "profile built for {} word lanes, kernel instantiated for {L}",
        profile.word_lanes()
    );
    if profile.query_len() == 0 || b.is_empty() {
        return 0;
    }
    let vmax = scan_columns(profile, b, gaps, ws, |_, _, _| ControlFlow::Continue(()))
        .expect("the word scan never stops early");
    i32::from(vmax.horizontal_max()).max(0)
}

/// Pre-deconstruction 16-bit kernel: Farrar's original wrap-until-break
/// lazy-F loop, kept verbatim as the bit-identity oracle for the
/// deconstructed kernel (property tests) and as the baseline side of
/// the `lazyf_deconstructed_speedup` benchmark. Not used by any
/// engine.
///
/// # Panics
///
/// Panics if the profile was built for a different word lane count.
pub fn score_with_profile_ref<const L: usize>(
    profile: &QueryProfile,
    b: &[AminoAcid],
    gaps: GapPenalties,
    ws: &mut Workspace<L>,
) -> i32 {
    assert_eq!(
        profile.word_lanes(),
        L,
        "profile built for {} word lanes, kernel instantiated for {L}",
        profile.word_lanes()
    );
    if profile.query_len() == 0 || b.is_empty() {
        return 0;
    }
    let segs = profile.word_segments();
    let open_ext = Vector::<L>::splat((gaps.open + gaps.extend) as i16);
    let ext = Vector::<L>::splat(gaps.extend as i16);
    let zero = Vector::<L>::zero();
    let neg = Vector::<L>::splat(WORD_PAD);

    ws.reset(segs);
    let mut vmax = zero;

    for &bj in b {
        let row = profile.word_row(bj);
        let mut vf = neg;
        let mut vh = ws.h_store[segs - 1].shift_in_first(0);
        std::mem::swap(&mut ws.h_store, &mut ws.h_load);

        for s in 0..segs {
            let p = Vector::<L>::from_slice(&row[s * L..]);
            vh = vh.adds(p);
            let e = ws.e[s];
            vh = vh.max(e).max(vf).max(zero);
            vmax = vmax.max(vh);
            ws.h_store[s] = vh;

            let h_open = vh.subs(open_ext);
            ws.e[s] = e.subs(ext).max(h_open);
            vf = vf.subs(ext).max(h_open);

            vh = ws.h_load[s];
        }

        // Lazy-F: propagate the column's F across lane boundaries until
        // it can no longer raise any H (Farrar's termination test). At
        // most L wraps — each shift advances the chain one lane.
        'lazy: for _ in 0..L {
            vf = vf.shift_in_first(WORD_PAD);
            for s in 0..segs {
                let h = ws.h_store[s].max(vf);
                ws.h_store[s] = h;
                vmax = vmax.max(h);
                let h_open = h.subs(open_ext);
                ws.e[s] = ws.e[s].max(h_open);
                vf = vf.subs(ext);
                if !vf.any_gt(h_open) {
                    break 'lazy;
                }
            }
        }
    }

    i32::from(vmax.horizontal_max()).max(0)
}

/// Byte-precision striped Smith-Waterman against a prebuilt profile:
/// twice the lanes of the word kernel, `None` on (potential) overflow.
///
/// Scores are biased by `profile.bias()` during the profile add, and the
/// kernel bails out as soon as any cell comes within one matrix-maximum
/// of the `u8` ceiling — a `Some` result is always exact.
///
/// # Panics
///
/// Panics if the profile was built for a different byte lane count.
pub fn score_bytes_with_profile<const L: usize>(
    profile: &QueryProfile,
    b: &[AminoAcid],
    gaps: GapPenalties,
    ws: &mut ByteWorkspace<L>,
) -> Option<i32> {
    assert_eq!(
        profile.byte_lanes(),
        L,
        "profile built for {} byte lanes, kernel instantiated for {L}",
        profile.byte_lanes()
    );
    if profile.query_len() == 0 || b.is_empty() {
        return Some(0);
    }
    if !profile.has_bytes() {
        return None; // matrix range too wide for biased u8
    }
    // Saturation guard: while every H stays below this, no saturating
    // add in the next column can clip (H + bias + max_score < 255).
    let guard = 255 - profile.bias() - profile.max_score();
    if guard <= 0 {
        return None;
    }
    let vmax = scan_columns(profile, b, gaps, ws, |_, vmax, _| {
        if i32::from(vmax.horizontal_max()) >= guard {
            ControlFlow::Break(()) // next column could clip — rescore in 16-bit
        } else {
            ControlFlow::Continue(())
        }
    })?;
    Some(i32::from(vmax.horizontal_max()))
}

/// Pre-deconstruction byte kernel — the bit-identity oracle for
/// [`score_bytes_with_profile`], including identical `None`
/// (saturation) decisions. Not used by any engine.
///
/// # Panics
///
/// Panics if the profile was built for a different byte lane count.
pub fn score_bytes_with_profile_ref<const L: usize>(
    profile: &QueryProfile,
    b: &[AminoAcid],
    gaps: GapPenalties,
    ws: &mut ByteWorkspace<L>,
) -> Option<i32> {
    assert_eq!(
        profile.byte_lanes(),
        L,
        "profile built for {} byte lanes, kernel instantiated for {L}",
        profile.byte_lanes()
    );
    if profile.query_len() == 0 || b.is_empty() {
        return Some(0);
    }
    if !profile.has_bytes() {
        return None;
    }
    let guard = 255 - profile.bias() - profile.max_score();
    if guard <= 0 {
        return None;
    }
    let segs = profile.byte_segments();
    let bias_v = ByteVector::<L>::splat(profile.bias() as u8);
    let open_ext = ByteVector::<L>::splat((gaps.open + gaps.extend).min(255) as u8);
    let ext = ByteVector::<L>::splat(gaps.extend.min(255) as u8);

    ws.reset(segs);
    let mut best = 0u8;

    for &bj in b {
        let row = profile.byte_row(bj).expect("byte layout checked above");
        let mut vf = ByteVector::<L>::zero();
        let mut vh = ws.h_store[segs - 1].shift_in_first(0);
        std::mem::swap(&mut ws.h_store, &mut ws.h_load);
        let mut colmax = ByteVector::<L>::zero();

        for s in 0..segs {
            let p = ByteVector::<L>::from_slice(&row[s * L..]);
            vh = vh.adds(p).subs(bias_v);
            let e = ws.e[s];
            vh = vh.max(e).max(vf);
            colmax = colmax.max(vh);
            ws.h_store[s] = vh;

            let h_open = vh.subs(open_ext);
            ws.e[s] = e.subs(ext).max(h_open);
            vf = vf.subs(ext).max(h_open);

            vh = ws.h_load[s];
        }

        'lazy: for _ in 0..L {
            vf = vf.shift_in_first(0);
            for s in 0..segs {
                let h = ws.h_store[s].max(vf);
                ws.h_store[s] = h;
                colmax = colmax.max(h);
                let h_open = h.subs(open_ext);
                ws.e[s] = ws.e[s].max(h_open);
                vf = vf.subs(ext);
                if !vf.any_gt(h_open) {
                    break 'lazy;
                }
            }
        }

        let cm = colmax.horizontal_max();
        if cm > best {
            best = cm;
        }
        if i32::from(best) >= guard {
            return None;
        }
    }

    Some(i32::from(best))
}

/// Adaptive-precision striped search step: byte pass first (double the
/// lanes), exact 16-bit rescore on overflow. `LB` is the byte lane
/// count and `LW` the word lane count of the same register width
/// (16/8 for the 128-bit model, 32/16 for the 256-bit extension).
pub fn score_adaptive_with_profile<const LB: usize, const LW: usize>(
    profile: &QueryProfile,
    b: &[AminoAcid],
    gaps: GapPenalties,
    bws: &mut ByteWorkspace<LB>,
    ws: &mut Workspace<LW>,
) -> i32 {
    match score_bytes_with_profile::<LB>(profile, b, gaps, bws) {
        Some(s) => s,
        None => score_with_profile::<LW>(profile, b, gaps, ws),
    }
}

/// Best local score plus the *inclusive* coordinates of the cell it is
/// attained in, as reported by [`score_ends_with_profile`].
///
/// When `score == 0` there is no positive-scoring alignment and the
/// end coordinates are meaningless.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScoreEnds {
    /// Best local-alignment score (0 if nothing scores positive).
    pub score: i32,
    /// Query index (0-based, inclusive) of the best cell.
    pub query_end: usize,
    /// Subject index (0-based, inclusive) of the best cell.
    pub subject_end: usize,
}

/// 16-bit striped pass that also tracks *where* the best score is
/// attained — the first pass of the SSW-style three-pass traceback.
///
/// End selection is deterministic and minimal: the reported cell lies
/// in the **first** subject column whose maximum strictly exceeds every
/// earlier column's, and within that column at the **smallest** query
/// index attaining the column maximum. Running the same rule on the
/// reversed prefixes (second pass) is what pins the start coordinates;
/// see [`crate::traceback::align_hit`].
///
/// Scores are identical to [`score_with_profile`]; the extra cost is a
/// per-column compare of the running maximum plus a search of the rare
/// column that improves it, which is why the engines use the plain
/// kernel for scanning and this one only for reported hits.
///
/// # Panics
///
/// Panics if the profile was built for a different word lane count.
pub fn score_ends_with_profile<const L: usize>(
    profile: &QueryProfile,
    b: &[AminoAcid],
    gaps: GapPenalties,
    ws: &mut Workspace<L>,
) -> ScoreEnds {
    assert_eq!(
        profile.word_lanes(),
        L,
        "profile built for {} word lanes, kernel instantiated for {L}",
        profile.word_lanes()
    );
    let mut ends = ScoreEnds {
        score: 0,
        query_end: 0,
        subject_end: 0,
    };
    if profile.query_len() == 0 || b.is_empty() {
        return ends;
    }
    let m = profile.query_len();
    let segs = profile.word_segments();
    let mut best_v = Vector::<L>::zero();

    let vmax = scan_columns(profile, b, gaps, ws, |j, vmax, h| {
        // Endpoint tracking: every lane of the running maximum stayed
        // at or below `best_v` until this column, so it beats `best_v`
        // exactly when this column holds a new best. The lane-outer /
        // segment-inner sweep visits cells in increasing query order,
        // so the first match is the minimal query index. Padding cells
        // can never attain a new best — their H descends
        // (gap-penalised) from a real cell already folded into the
        // running best.
        if vmax.any_gt(best_v) {
            let col_best = vmax.horizontal_max();
            best_v = Vector::<L>::splat(col_best);
            'find: for k in 0..L {
                for (s, hs) in h.iter().enumerate() {
                    if hs.extract(k) == col_best {
                        let q = k * segs + s;
                        if q < m {
                            ends.query_end = q;
                            ends.subject_end = j;
                            break 'find;
                        }
                    }
                }
            }
        }
        ControlFlow::Continue(())
    })
    .expect("the end pass never stops early");

    ends.score = i32::from(vmax.horizontal_max()).max(0);
    ends
}

/// One-shot 16-bit striped score: builds the profile and workspace
/// internally. For database scans, build a [`QueryProfile`] once and
/// use [`score_with_profile`] (or the batched driver in
/// [`crate::parallel`]) instead.
pub fn score<const L: usize>(
    a: &[AminoAcid],
    b: &[AminoAcid],
    matrix: &SubstitutionMatrix,
    gaps: GapPenalties,
) -> i32 {
    let profile = QueryProfile::build(a, matrix, L);
    let mut ws = Workspace::<L>::new();
    score_with_profile::<L>(&profile, b, gaps, &mut ws)
}

/// One-shot byte-precision striped score (`None` on overflow).
///
/// `L` is the byte lane count; the profile is built for `L / 2` word
/// lanes, matching [`score_adaptive`].
///
/// # Panics
///
/// Panics if `L` is odd.
pub fn score_bytes<const L: usize>(
    a: &[AminoAcid],
    b: &[AminoAcid],
    matrix: &SubstitutionMatrix,
    gaps: GapPenalties,
) -> Option<i32> {
    assert!(L.is_multiple_of(2), "byte lane count must be even");
    let profile = QueryProfile::build(a, matrix, L / 2);
    let mut ws = ByteWorkspace::<L>::new();
    score_bytes_with_profile::<L>(&profile, b, gaps, &mut ws)
}

/// One-shot adaptive striped score (byte pass + 16-bit rescore).
pub fn score_adaptive<const LB: usize, const LW: usize>(
    a: &[AminoAcid],
    b: &[AminoAcid],
    matrix: &SubstitutionMatrix,
    gaps: GapPenalties,
) -> i32 {
    let profile = QueryProfile::build(a, matrix, LW);
    let mut bws = ByteWorkspace::<LB>::new();
    let mut ws = Workspace::<LW>::new();
    score_adaptive_with_profile::<LB, LW>(&profile, b, gaps, &mut bws, &mut ws)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sw;
    use sapa_bioseq::Sequence;

    fn seq(s: &str) -> Vec<AminoAcid> {
        Sequence::from_str("t", s).unwrap().residues().to_vec()
    }

    fn bl62() -> SubstitutionMatrix {
        SubstitutionMatrix::blosum62()
    }

    #[test]
    fn matches_scalar_on_small_cases() {
        let m = bl62();
        let g = GapPenalties::paper();
        let cases = [
            ("A", "A"),
            ("A", "W"),
            ("HEAGAWGHEE", "PAWHEAE"),
            ("MKVLAA", "MKVLAA"),
            ("ACDEFGHIKLMNPQRSTVWY", "YWVTSRQPNMLKIHGFEDCA"),
            ("MKWVTFISLLFLFSSAYS", "MKWVTFISLL"),
            ("WW", "WWWWWWWWWWWWWWWWWWWWWWWW"),
        ];
        for (x, y) in cases {
            let a = seq(x);
            let b = seq(y);
            let expect = sw::score(&a, &b, &m, g);
            assert_eq!(score::<8>(&a, &b, &m, g), expect, "striped-128 {x} vs {y}");
            assert_eq!(score::<16>(&a, &b, &m, g), expect, "striped-256 {x} vs {y}");
        }
    }

    #[test]
    fn lane_boundary_gaps_need_lazy_f() {
        // A deletion spanning several query rows forces F chains across
        // lane boundaries — the exact case the lazy-F loop repairs.
        let m = bl62();
        let g = GapPenalties::new(2, 1);
        let a = seq("ACDEFGHIKLMNPQRSTVWYACDEFGHIKL");
        let b = seq("ACDEFGPQRSTVWYACDEFGHIKL");
        let expect = sw::score(&a, &b, &m, g);
        assert_eq!(score::<8>(&a, &b, &m, g), expect);
        assert_eq!(score::<16>(&a, &b, &m, g), expect);
    }

    #[test]
    fn query_shorter_than_one_stripe() {
        let m = bl62();
        let g = GapPenalties::paper();
        let a = seq("AW");
        let b = seq("HEAGAWGHEE");
        let expect = sw::score(&a, &b, &m, g);
        assert_eq!(score::<8>(&a, &b, &m, g), expect);
        assert_eq!(score::<16>(&a, &b, &m, g), expect);
        assert_eq!(score_bytes::<16>(&a, &b, &m, g), Some(expect));
    }

    #[test]
    fn empty_inputs_score_zero() {
        let m = bl62();
        let g = GapPenalties::paper();
        assert_eq!(score::<8>(&[], &seq("AC"), &m, g), 0);
        assert_eq!(score::<8>(&seq("AC"), &[], &m, g), 0);
        assert_eq!(score_bytes::<16>(&[], &seq("AC"), &m, g), Some(0));
        assert_eq!(score_adaptive::<16, 8>(&seq("AC"), &[], &m, g), 0);
    }

    #[test]
    fn byte_pass_overflow_recovers_exactly() {
        let m = bl62();
        let g = GapPenalties::paper();
        let a = seq(&"MKWVTFISLL".repeat(8));
        assert_eq!(score_bytes::<16>(&a, &a, &m, g), None);
        let expect = sw::score(&a, &a, &m, g);
        assert_eq!(score_adaptive::<16, 8>(&a, &a, &m, g), expect);
        assert_eq!(score_adaptive::<32, 16>(&a, &a, &m, g), expect);
    }

    #[test]
    fn workspace_reuse_is_clean_across_subjects() {
        // Scoring a high-scoring subject then a dissimilar one must not
        // leak state through the reused buffers.
        let m = bl62();
        let g = GapPenalties::paper();
        let q = seq("MKWVTFISLLFLFSSAYSRGVFRR");
        let profile = QueryProfile::build(&q, &m, 8);
        let mut ws = Workspace::<8>::new();
        let hot = seq("MKWVTFISLLFLFSSAYSRGVFRR");
        let cold = seq("GGGGG");
        let s1 = score_with_profile::<8>(&profile, &hot, g, &mut ws);
        let s2 = score_with_profile::<8>(&profile, &cold, g, &mut ws);
        let s3 = score_with_profile::<8>(&profile, &hot, g, &mut ws);
        assert_eq!(s1, sw::score(&q, &hot, &m, g));
        assert_eq!(s2, sw::score(&q, &cold, &m, g));
        assert_eq!(s1, s3);
    }

    #[test]
    #[should_panic(expected = "word lanes")]
    fn wrong_lane_width_is_rejected() {
        let m = bl62();
        let profile = QueryProfile::build(&seq("ACD"), &m, 8);
        let mut ws = Workspace::<16>::new();
        let _ = score_with_profile::<16>(&profile, &seq("ACD"), GapPenalties::paper(), &mut ws);
    }

    #[test]
    fn deconstructed_matches_reference_kernel() {
        let m = bl62();
        // Cheap gaps force real cross-lane corrections.
        let g = GapPenalties::new(2, 1);
        let a = seq("ACDEFGHIKLMNPQRSTVWYACDEFGHIKL");
        let b = seq("ACDEFGPQRSTVWYACDEFGHIKL");
        let profile = QueryProfile::build(&a, &m, 8);
        let mut ws = Workspace::<8>::new();
        let mut ws_ref = Workspace::<8>::new();
        assert_eq!(
            score_with_profile::<8>(&profile, &b, g, &mut ws),
            score_with_profile_ref::<8>(&profile, &b, g, &mut ws_ref),
        );
        let mut bws = ByteWorkspace::<16>::new();
        let mut bws_ref = ByteWorkspace::<16>::new();
        assert_eq!(
            score_bytes_with_profile::<16>(&profile, &b, g, &mut bws),
            score_bytes_with_profile_ref::<16>(&profile, &b, g, &mut bws_ref),
        );
    }

    #[test]
    fn score_ends_locates_best_cell() {
        let m = bl62();
        let g = GapPenalties::paper();
        // Query = subject: the best cell is the last residue of both.
        let q = seq("MKWVTFISLLFLFSSAYSRGVFRR");
        let profile = QueryProfile::build(&q, &m, 8);
        let mut ws = Workspace::<8>::new();
        let ends = score_ends_with_profile::<8>(&profile, &q, g, &mut ws);
        assert_eq!(ends.score, sw::score(&q, &q, &m, g));
        assert_eq!(ends.query_end, q.len() - 1);
        assert_eq!(ends.subject_end, q.len() - 1);

        // An embedded match: query sits inside a longer subject.
        let subj = seq("GGGGGMKWVTFISLLFLFSSAYSRGVFRRGGGGG");
        let ends = score_ends_with_profile::<8>(&profile, &subj, g, &mut ws);
        assert_eq!(ends.score, sw::score(&q, &subj, &m, g));
        assert_eq!(ends.query_end, q.len() - 1);
        assert_eq!(ends.subject_end, 5 + q.len() - 1);

        // No positive score: empty inputs report zero.
        let empty = score_ends_with_profile::<8>(&profile, &[], g, &mut ws);
        assert_eq!(empty.score, 0);
    }

    #[test]
    fn wide_matrix_falls_back_to_words() {
        // uniform(120, -120) cannot be biased into u8; adaptive must
        // still return the exact word-precision score.
        let m = SubstitutionMatrix::uniform(120, -120);
        let g = GapPenalties::paper();
        let a = seq("ACDEFG");
        let b = seq("ACDEFG");
        assert_eq!(score_bytes::<16>(&a, &b, &m, g), None);
        let expect = sw::score(&a, &b, &m, g);
        assert_eq!(score_adaptive::<16, 8>(&a, &b, &m, g), expect);
    }
}
