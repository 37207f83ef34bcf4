//! Emulated Altivec-style SIMD vectors.
//!
//! The paper's `SW_vmx128` workload uses the real Altivec extension
//! (128-bit registers, eight 16-bit lanes for Smith-Waterman scores);
//! `SW_vmx256` uses a "futuristic" 256-bit extension the authors added
//! to GCC and Turandot. This crate emulates both with one register
//! type: [`Lanes<T, L>`], `L` lanes of a [`Lane`] scalar, with the
//! saturating-arithmetic, max, compare and element-rotation operations
//! the vectorized Smith-Waterman kernels need. The lane scalar is
//! either `i16` ([`Vector`], the word precision every kernel can use)
//! or `u8` ([`ByteVector`], the biased byte precision of the striped
//! kernel's fast first pass — twice the lanes per register).
//!
//! The emulation computes real values — the SIMD Smith-Waterman kernels
//! built on it are checked lane-for-lane against the scalar algorithm —
//! while the instrumented workloads separately emit the corresponding
//! `vsimple`/`vperm` trace instructions.
//!
//! ```
//! use sapa_vsimd::{B128, V128};
//!
//! let a = V128::splat(1000);
//! let b = V128::splat(32000);
//! let c = a.adds(b);                // saturates at i16::MAX
//! assert_eq!(c.extract(0), i16::MAX);
//! // Unsigned byte lanes floor at zero instead.
//! assert_eq!(B128::splat(3).subs(B128::splat(10)).extract(0), 0);
//! ```

use std::fmt::{Debug, Display};
use std::hash::Hash;

mod sealed {
    pub trait Sealed {}
    impl Sealed for i16 {}
    impl Sealed for u8 {}
}

/// A lane scalar of [`Lanes`]: `i16` (Altivec `…sh` ops) or `u8`
/// (Altivec `…ub` ops). Sealed — the kernels' overflow reasoning holds
/// for exactly these two.
///
/// The hidden associated functions are the lane-wise bodies behind the
/// same-named [`Lanes`] methods; call the methods instead.
pub trait Lane: sealed::Sealed + Copy + Ord + Default + Debug + Display + Hash {
    /// The zero score.
    const ZERO: Self;
    #[doc(hidden)]
    fn from_slice<const L: usize>(slice: &[Self]) -> Lanes<Self, L>;
    #[doc(hidden)]
    fn adds<const L: usize>(a: Lanes<Self, L>, b: Lanes<Self, L>) -> Lanes<Self, L>;
    #[doc(hidden)]
    fn subs<const L: usize>(a: Lanes<Self, L>, b: Lanes<Self, L>) -> Lanes<Self, L>;
    #[doc(hidden)]
    fn max<const L: usize>(a: Lanes<Self, L>, b: Lanes<Self, L>) -> Lanes<Self, L>;
    #[doc(hidden)]
    fn any_gt<const L: usize>(a: Lanes<Self, L>, b: Lanes<Self, L>) -> bool;
    #[doc(hidden)]
    fn shift_in_first<const L: usize>(a: Lanes<Self, L>, first: Self) -> Lanes<Self, L>;
    #[doc(hidden)]
    fn horizontal_max<const L: usize>(a: Lanes<Self, L>) -> Self;
}

// The lane-wise bodies are stamped out once per scalar instead of being
// written generically over `T: Lane`. A body generic over the scalar
// reaches LLVM with its comparisons and saturating ops still behind
// trait calls, and the striped kernels built on such bodies came out
// partly scalarized: 2-7x slower than on these concrete ones.
macro_rules! lane {
    ($t:ty) => {
        impl Lane for $t {
            const ZERO: Self = 0;

            #[inline]
            fn from_slice<const L: usize>(slice: &[Self]) -> Lanes<Self, L> {
                let mut lanes = [0; L];
                lanes.copy_from_slice(&slice[..L]);
                Lanes { lanes }
            }

            #[inline]
            fn adds<const L: usize>(a: Lanes<Self, L>, b: Lanes<Self, L>) -> Lanes<Self, L> {
                a.zip(b, <$t>::saturating_add)
            }

            #[inline]
            fn subs<const L: usize>(a: Lanes<Self, L>, b: Lanes<Self, L>) -> Lanes<Self, L> {
                a.zip(b, <$t>::saturating_sub)
            }

            #[inline]
            fn max<const L: usize>(a: Lanes<Self, L>, b: Lanes<Self, L>) -> Lanes<Self, L> {
                a.zip(b, std::cmp::max)
            }

            #[inline]
            fn any_gt<const L: usize>(a: Lanes<Self, L>, b: Lanes<Self, L>) -> bool {
                a.lanes.iter().zip(b.lanes.iter()).any(|(x, y)| x > y)
            }

            #[inline]
            fn shift_in_first<const L: usize>(a: Lanes<Self, L>, first: Self) -> Lanes<Self, L> {
                let mut lanes = [0; L];
                lanes[0] = first;
                lanes[1..L].copy_from_slice(&a.lanes[..L - 1]);
                Lanes { lanes }
            }

            #[inline]
            fn horizontal_max<const L: usize>(a: Lanes<Self, L>) -> Self {
                let mut m = <$t>::MIN;
                let mut i = 0;
                while i < L {
                    if a.lanes[i] > m {
                        m = a.lanes[i];
                    }
                    i += 1;
                }
                m
            }
        }
    };
}

lane!(i16);
lane!(u8);

/// A register of `L` lanes of scalar `T`.
///
/// `Lanes<i16, 8>` models an Altivec 128-bit register ([`V128`]) and
/// `Lanes<i16, 16>` the paper's 256-bit extension ([`V256`]); the byte
/// forms hold twice the lanes ([`B128`], [`B256`]). Lane 0 is the
/// "leftmost" element, matching the shift direction of
/// [`Lanes::shift_in_first`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Lanes<T: Lane, const L: usize> {
    lanes: [T; L],
}

/// A vector of `L` signed 16-bit lanes.
pub type Vector<const L: usize> = Lanes<i16, L>;

/// A vector of `L` unsigned 8-bit lanes — the byte-precision layout
/// real SIMD Smith-Waterman implementations use for their fast first
/// pass. Local-alignment scores are non-negative, so unsigned
/// saturating arithmetic gives the zero floor for free; the caller
/// detects overflow and re-runs in 16-bit precision.
pub type ByteVector<const L: usize> = Lanes<u8, L>;

/// 128-bit Altivec vector: eight 16-bit lanes.
pub type V128 = Vector<8>;

/// Futuristic 256-bit vector: sixteen 16-bit lanes.
pub type V256 = Vector<16>;

/// 128-bit byte vector: sixteen u8 lanes.
pub type B128 = ByteVector<16>;

/// 256-bit byte vector: thirty-two u8 lanes.
pub type B256 = ByteVector<32>;

impl<T: Lane, const L: usize> Lanes<T, L> {
    /// Number of lanes.
    pub const LANES: usize = L;

    /// A vector with every lane equal to `value` (Altivec `vsplth`/`vspltb`).
    #[inline]
    pub const fn splat(value: T) -> Self {
        Lanes { lanes: [value; L] }
    }

    /// The all-zero vector.
    #[inline]
    pub const fn zero() -> Self {
        Self::splat(T::ZERO)
    }

    /// Builds a vector from exactly `L` lane values.
    #[inline]
    pub const fn from_array(lanes: [T; L]) -> Self {
        Lanes { lanes }
    }

    /// Loads `L` lanes from the front of `slice` (Altivec `lvx`).
    ///
    /// # Panics
    ///
    /// Panics if `slice.len() < L`.
    #[inline]
    pub fn from_slice(slice: &[T]) -> Self {
        T::from_slice(slice)
    }

    /// The lane values.
    #[inline]
    pub const fn to_array(self) -> [T; L] {
        self.lanes
    }

    /// Value of lane `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= L`.
    #[inline]
    pub const fn extract(self, i: usize) -> T {
        self.lanes[i]
    }

    /// Returns a copy with lane `i` replaced by `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= L`.
    #[inline]
    pub fn insert(mut self, i: usize, value: T) -> Self {
        self.lanes[i] = value;
        self
    }

    /// Lane-wise saturating addition (Altivec `vaddshs`/`vaddubs`).
    #[inline]
    pub fn adds(self, rhs: Self) -> Self {
        T::adds(self, rhs)
    }

    /// Lane-wise saturating subtraction (Altivec `vsubshs`/`vsububs`).
    #[inline]
    pub fn subs(self, rhs: Self) -> Self {
        T::subs(self, rhs)
    }

    /// Lane-wise maximum (Altivec `vmaxsh`/`vmaxub`).
    #[inline]
    pub fn max(self, rhs: Self) -> Self {
        <T as Lane>::max(self, rhs)
    }

    /// Whether any lane of `self` exceeds the corresponding lane of
    /// `rhs` (Altivec `vcmpgtsh.`/`vcmpgtub.` with the CR6 "any"
    /// predicate) — the striped kernel's lazy-F exit test.
    #[inline]
    pub fn any_gt(self, rhs: Self) -> bool {
        T::any_gt(self, rhs)
    }

    /// Shifts every lane one position toward higher indices and inserts
    /// `first` into lane 0 — the `vsldoi`+`vperm` idiom the
    /// anti-diagonal Smith-Waterman uses to feed one strip's boundary
    /// into the next diagonal step, and the striped kernel's carry of F
    /// and H across segment boundaries.
    #[inline]
    pub fn shift_in_first(self, first: T) -> Self {
        T::shift_in_first(self, first)
    }

    /// Maximum lane value (Altivec max-across idiom: log2(L) `vperm` +
    /// `vmax` pairs).
    #[inline]
    pub fn horizontal_max(self) -> T {
        T::horizontal_max(self)
    }

    #[inline]
    fn zip(self, rhs: Self, f: impl Fn(T, T) -> T) -> Self {
        let mut lanes = [T::ZERO; L];
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = f(self.lanes[i], rhs.lanes[i]);
        }
        Lanes { lanes }
    }
}

impl<T: Lane, const L: usize> Default for Lanes<T, L> {
    fn default() -> Self {
        Self::zero()
    }
}

impl<T: Lane, const L: usize> std::fmt::Display for Lanes<T, L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "<")?;
        for (i, v) in self.lanes.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ">")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splat_and_extract() {
        let v = V128::splat(7);
        for i in 0..V128::LANES {
            assert_eq!(v.extract(i), 7);
        }
        assert_eq!(V256::LANES, 16);
    }

    #[test]
    fn saturating_add_and_sub() {
        let big = V128::splat(i16::MAX - 10);
        assert_eq!(big.adds(V128::splat(100)).extract(0), i16::MAX);
        let small = V128::splat(i16::MIN + 10);
        assert_eq!(small.subs(V128::splat(100)).extract(3), i16::MIN);
        assert_eq!(V128::splat(5).adds(V128::splat(6)).extract(1), 11);
    }

    #[test]
    fn lane_wise_max() {
        let a = V128::from_array([1, 2, 3, 4, 5, 6, 7, 8]);
        let b = V128::splat(4);
        assert_eq!(a.max(b).to_array(), [4, 4, 4, 4, 5, 6, 7, 8]);
        let c = V128::from_array([-9, 9, -9, 9, -9, 9, -9, 9]);
        assert_eq!(a.max(c).to_array(), [1, 9, 3, 9, 5, 9, 7, 9]);
    }

    #[test]
    fn any_gt() {
        let a = V128::from_array([0, 0, 0, 0, 0, 0, 0, 1]);
        assert!(a.any_gt(V128::zero()));
        assert!(!V128::zero().any_gt(V128::zero()));
    }

    #[test]
    fn shift_in_first_rotates() {
        let a = V128::from_array([1, 2, 3, 4, 5, 6, 7, 8]);
        let b = a.shift_in_first(99);
        assert_eq!(b.to_array(), [99, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn horizontal_max() {
        let a = V256::from_array([-5, 3, 17, 2, 9, -20, 0, 4, 1, 1, 1, 16, 15, 14, 13, 12]);
        assert_eq!(a.horizontal_max(), 17);
        assert_eq!(V128::splat(-3).horizontal_max(), -3);
    }

    #[test]
    fn from_slice_takes_prefix() {
        let data: Vec<i16> = (0..20).collect();
        let v = V128::from_slice(&data);
        assert_eq!(v.to_array(), [0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    #[should_panic]
    fn from_slice_too_short_panics() {
        let _ = V128::from_slice(&[1, 2, 3]);
    }

    #[test]
    fn insert_replaces_one_lane() {
        let v = V128::zero().insert(5, 42);
        assert_eq!(v.extract(5), 42);
        assert_eq!(v.extract(4), 0);
    }

    #[test]
    fn display_format() {
        let v = Vector::<2>::from_array([1, -2]);
        assert_eq!(v.to_string(), "<1, -2>");
    }
}

#[cfg(test)]
mod byte_tests {
    use super::*;

    #[test]
    fn saturating_byte_math() {
        let a = B128::splat(250);
        assert_eq!(a.adds(B128::splat(10)).extract(0), u8::MAX);
        assert_eq!(a.adds(B128::splat(5)).extract(9), u8::MAX);
        assert_eq!(a.adds(B128::splat(4)).extract(9), 254);
        assert_eq!(B128::splat(3).subs(B128::splat(10)).extract(5), 0);
    }

    #[test]
    fn byte_shift_and_max() {
        let mut arr = [0u8; 16];
        for (i, v) in arr.iter_mut().enumerate() {
            *v = i as u8;
        }
        let v = B128::from_array(arr);
        assert_eq!(v.horizontal_max(), 15);
        assert_eq!(B128::zero().horizontal_max(), 0);
        let s = v.shift_in_first(99);
        assert_eq!(s.extract(0), 99);
        assert_eq!(s.extract(1), 0);
        assert_eq!(s.extract(15), 14);
    }

    #[test]
    fn byte_from_slice_and_any_gt() {
        let data: Vec<u8> = (10..40).collect();
        let v = B128::from_slice(&data);
        assert_eq!(v.extract(0), 10);
        assert_eq!(v.extract(15), 25);
        assert!(v.any_gt(B128::splat(24)));
        assert!(!v.any_gt(B128::splat(25)));
    }

    #[test]
    fn byte_insert_and_display() {
        let v = ByteVector::<2>::zero().insert(1, 7);
        assert_eq!(v.to_string(), "<0, 7>");
        assert_eq!(B256::LANES, 32);
    }
}
