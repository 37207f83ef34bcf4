//! Anti-diagonal SIMD Smith-Waterman (Wozniak-style), the algorithm of
//! the paper's `SW_vmx128` and `SW_vmx256` workloads.
//!
//! The query is processed in horizontal *strips* of `L` rows (`L` = lane
//! count: 8 for 128-bit Altivec, 16 for the 256-bit extension). Within a
//! strip, cells along an anti-diagonal are independent, so one vector
//! register holds `L` cells `(i0 + k, d - k)` of diagonal `d`. The
//! neighbour values each cell needs arrive from the two previous
//! diagonal registers, shifted by one lane — the `vperm`/`vsldoi`
//! operations that dominate the paper's `RG_VPER` trauma histograms —
//! with the strip's top-row boundary values inserted into lane 0 from
//! the carry rows of the strip above.
//!
//! The implementation is exactly score-equivalent to the scalar Gotoh
//! recurrence ([`crate::sw::score`]); the property tests in this module
//! and in `tests/` enforce that for both lane widths.

use sapa_bioseq::matrix::GapPenalties;
use sapa_bioseq::{AminoAcid, SubstitutionMatrix};
use sapa_vsimd::Vector;

/// "Minus infinity" for 16-bit lanes; deep enough that repeated
/// saturating subtraction cannot wrap it into the valid score range.
const NEG16: i16 = -25000;

/// Computes the Smith-Waterman score with `L`-lane vectors.
///
/// `L = 8` reproduces `SW_vmx128`; `L = 16` reproduces `SW_vmx256`.
/// Scores are computed in 16-bit saturating lanes, which is exact as
/// long as the true score stays below `i16::MAX` (guaranteed for the
/// suite's query lengths; a 222-residue perfect self-match scores
/// ≈ 2400).
///
/// ```
/// use sapa_align::simd_sw;
/// use sapa_bioseq::{Sequence, SubstitutionMatrix};
/// use sapa_bioseq::matrix::GapPenalties;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let a = Sequence::from_str("a", "HEAGAWGHEE")?;
/// let b = Sequence::from_str("b", "PAWHEAE")?;
/// let m = SubstitutionMatrix::blosum62();
/// let g = GapPenalties::paper();
/// let s128 = simd_sw::score::<8>(a.residues(), b.residues(), &m, g);
/// let s256 = simd_sw::score::<16>(a.residues(), b.residues(), &m, g);
/// assert_eq!(s128, s256);
/// # Ok(())
/// # }
/// ```
pub fn score<const L: usize>(
    a: &[AminoAcid],
    b: &[AminoAcid],
    matrix: &SubstitutionMatrix,
    gaps: GapPenalties,
) -> i32 {
    if a.is_empty() || b.is_empty() {
        return 0;
    }
    let m = a.len();
    let n = b.len();
    let open_ext = Vector::<L>::splat((gaps.open + gaps.extend) as i16);
    let ext = Vector::<L>::splat(gaps.extend as i16);
    let zero = Vector::<L>::zero();
    let neg = Vector::<L>::splat(NEG16);

    // Carry rows between strips: H and F of the strip's last row.
    // Index j = column. For the virtual row above the matrix H = 0 and
    // F = -inf (no vertical gap can enter from outside).
    let mut carry_h = vec![0i16; n];
    let mut carry_f = vec![NEG16; n];

    let mut vbest = zero;

    let mut i0 = 0;
    while i0 < m {
        let mut next_h = vec![0i16; n];
        let mut next_f = vec![NEG16; n];

        // Diagonal registers: values at diagonals d-1 and d-2.
        let mut h_dm1 = neg;
        let mut h_dm2 = neg;
        let mut e_dm1 = neg;
        let mut f_dm1 = neg;

        let diag_count = n + L - 1;
        for d in 0..diag_count {
            // Boundary values entering lane 0 (row i0 needs row i0-1).
            let b_h = boundary(&carry_h, d as isize, n); // H[i0-1][d]
            let b_f = boundary(&carry_f, d as isize, n); // F[i0-1][d]
            let b_hd = boundary(&carry_h, d as isize - 1, n); // H[i0-1][d-1]

            // E (horizontal gap): same lane of the previous diagonal.
            let e_d = e_dm1.subs(ext).max(h_dm1.subs(open_ext));

            // F (vertical gap): previous lane of the previous diagonal,
            // boundary row entering lane 0.
            let f_shift = f_dm1.shift_in_first(b_f);
            let h_shift = h_dm1.shift_in_first(b_h);
            let f_d = f_shift.subs(ext).max(h_shift.subs(open_ext));

            // Diagonal H: previous lane of diagonal d-2.
            let mut h_diag = h_dm2.shift_in_first(b_hd);
            if d < L {
                // Lane d computes column 0 of row i0+d; its diagonal
                // predecessor is the virtual column -1, where H = 0.
                h_diag = h_diag.insert(d, 0);
            }

            // Substitution scores for the cells of this diagonal.
            let s_d = gather_scores::<L>(a, b, matrix, i0, d);

            let h_d = h_diag.adds(s_d).max(e_d).max(f_d).max(zero);

            vbest = vbest.max(h_d);

            // Record the strip's last row for the next strip's boundary.
            if d + 1 >= L {
                let col = d + 1 - L;
                if col < n {
                    next_h[col] = h_d.extract(L - 1);
                    next_f[col] = f_d.extract(L - 1);
                }
            }

            h_dm2 = h_dm1;
            h_dm1 = h_d;
            e_dm1 = e_d;
            f_dm1 = f_d;
        }

        carry_h = next_h;
        carry_f = next_f;
        i0 += L;
    }

    i32::from(vbest.horizontal_max()).max(0)
}

/// Boundary lookup with -inf outside the matrix.
#[inline]
fn boundary(row: &[i16], j: isize, n: usize) -> i16 {
    if j >= 0 && (j as usize) < n {
        row[j as usize]
    } else {
        NEG16
    }
}

/// Builds the substitution-score vector for diagonal `d` of the strip
/// starting at query row `i0`: lane `k` scores `a[i0+k]` vs `b[d-k]`,
/// or -inf for lanes outside the matrix.
#[inline]
fn gather_scores<const L: usize>(
    a: &[AminoAcid],
    b: &[AminoAcid],
    matrix: &SubstitutionMatrix,
    i0: usize,
    d: usize,
) -> Vector<L> {
    let mut v = Vector::<L>::splat(NEG16);
    let m = a.len();
    let n = b.len();
    for k in 0..L {
        let i = i0 + k;
        if i >= m || d < k {
            continue;
        }
        let j = d - k;
        if j < n {
            v = v.insert(k, matrix.score(a[i], b[j]) as i16);
        }
    }
    v
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
            assert_eq!(score::<8>(&a, &b, &m, g), expect, "vmx128 {x} vs {y}");
            assert_eq!(score::<16>(&a, &b, &m, g), expect, "vmx256 {x} vs {y}");
        }
    }

    #[test]
    fn strip_boundaries_are_exercised() {
        // Query longer than several strips for both lane widths.
        let m = bl62();
        let g = GapPenalties::paper();
        let a = seq(&"MKWVTFISLLLFSSAYSRGVFRRDAHKSEVAHRFKDLGE".repeat(2));
        let b = seq("FISLLLFSSAYSRGVFRRDAHKSEV");
        let expect = sw::score(&a, &b, &m, g);
        assert_eq!(score::<8>(&a, &b, &m, g), expect);
        assert_eq!(score::<16>(&a, &b, &m, g), expect);
    }

    #[test]
    fn gapped_alignment_across_strips() {
        let m = bl62();
        let g = GapPenalties::new(5, 1);
        // Force a vertical gap spanning a strip boundary: b matches a
        // with a block deleted near row 8.
        let a = seq("ACDEFGHIKLMNPQRSTVWYACDEFGHIKL");
        let b = seq("ACDEFGHIPQRSTVWYACDEFGHIKL");
        let expect = sw::score(&a, &b, &m, g);
        assert_eq!(score::<8>(&a, &b, &m, g), expect);
        assert_eq!(score::<16>(&a, &b, &m, g), expect);
    }

    #[test]
    fn empty_inputs_score_zero() {
        let m = bl62();
        let g = GapPenalties::paper();
        assert_eq!(score::<8>(&[], &seq("AC"), &m, g), 0);
        assert_eq!(score::<8>(&seq("AC"), &[], &m, g), 0);
    }

    #[test]
    fn dissimilar_sequences_score_zero_or_small() {
        let m = bl62();
        let g = GapPenalties::paper();
        let a = seq("AAAAAAAA");
        let b = seq("WWWWWWWW");
        let expect = sw::score(&a, &b, &m, g);
        assert_eq!(score::<8>(&a, &b, &m, g), expect);
    }
}
