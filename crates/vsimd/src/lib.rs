//! Altivec-style SIMD vectors: portable everywhere, SSE2 on x86_64.
//!
//! The paper's `SW_vmx128` workload uses the real Altivec extension
//! (128-bit registers, eight 16-bit lanes for Smith-Waterman scores);
//! `SW_vmx256` uses a "futuristic" 256-bit extension the authors added
//! to GCC and Turandot. This crate models both with one register
//! type: [`Lanes<T, L>`], `L` lanes of a [`Lane`] scalar, with the
//! saturating-arithmetic, max, compare and element-rotation operations
//! the vectorized Smith-Waterman kernels need. The lane scalar is
//! either `i16` ([`Vector`], the word precision every kernel can use)
//! or `u8` ([`ByteVector`], the biased byte precision of the striped
//! kernel's fast first pass — twice the lanes per register).
//!
//! # Backends
//!
//! Every operation has a *portable* body: plain lane-wise Rust over the
//! `[T; L]` array, for any lane count on any target. On x86_64 the two
//! shapes that fill exactly one 128-bit register — [`B128`]
//! (`Lanes<u8, 16>`) and [`V128`] (`Lanes<i16, 8>`) — instead run SSE2
//! bodies: `paddusb`/`paddsw`, `psubusb`/`psubsw`, `pmaxub`/`pmaxsw`,
//! a `pslldq` byte shift for [`Lanes::shift_in_first`] (the `vsldoi`
//! analogue), `pcmpeqb`+`pmovmskb` for [`Lanes::any_gt`] and a
//! log-step `psrldq`/max reduction for [`Lanes::horizontal_max`].
//! The choice is made at compile time from the register's size; SSE2
//! is part of the x86_64 baseline, so there is no runtime detection
//! and nothing to configure. Both bodies give bit-identical results,
//! which the crate's differential tests check op by op. All other
//! shapes ([`V256`], [`B256`], odd widths) and all other targets run
//! the portable bodies.
//!
//! The vectors compute real values — the SIMD Smith-Waterman kernels
//! built on them are checked lane-for-lane against the scalar
//! algorithm — while the instrumented workloads separately emit the
//! corresponding `vsimple`/`vperm` trace instructions.
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

// The only `unsafe` in the workspace is in the `sse2` module, which
// opts back in.
#![deny(unsafe_code)]

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

/// The portable lane-wise bodies: any lane count, any target. On
/// x86_64 the 128-bit shapes bypass them for the SSE2 bodies, and the
/// differential tests use them as the reference.
trait Portable: Lane {
    fn from_slice<const L: usize>(slice: &[Self]) -> Lanes<Self, L>;
    fn adds<const L: usize>(a: Lanes<Self, L>, b: Lanes<Self, L>) -> Lanes<Self, L>;
    fn subs<const L: usize>(a: Lanes<Self, L>, b: Lanes<Self, L>) -> Lanes<Self, L>;
    fn max<const L: usize>(a: Lanes<Self, L>, b: Lanes<Self, L>) -> Lanes<Self, L>;
    fn any_gt<const L: usize>(a: Lanes<Self, L>, b: Lanes<Self, L>) -> bool;
    fn shift_in_first<const L: usize>(a: Lanes<Self, L>, first: Self) -> Lanes<Self, L>;
    fn horizontal_max<const L: usize>(a: Lanes<Self, L>) -> Self;
}

/// The SSE2 side of the register bodies: the `[T; L]` ↔ `__m128i`
/// conversions and safe wrappers of the SSE2 intrinsics the bodies
/// use. The crate's only `unsafe` lives here.
///
/// Compiled only where SSE2 is enabled for the whole build, which every
/// standard x86_64 target does (it is part of the x86_64 baseline).
/// rustc still requires an `unsafe` block to call a `#[target_feature]`
/// intrinsic from a function that does not itself carry the attribute,
/// so each intrinsic gets a one-line safe wrapper here.
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
mod sse2 {
    #![allow(unsafe_code)]

    use std::arch::x86_64 as arch;
    use std::arch::x86_64::__m128i;

    use super::{Lane, Lanes};

    /// Whether `L` lanes of `T` fill exactly one 128-bit register — the
    /// shapes that take the SSE2 bodies. A constant per instantiation,
    /// so the branch on it folds away.
    #[inline(always)]
    pub(crate) const fn fits<T, const L: usize>() -> bool {
        std::mem::size_of::<T>() * L == 16
    }

    /// Loads `lanes` into a register.
    #[inline(always)]
    pub(crate) fn load<T: Lane, const L: usize>(lanes: &[T; L]) -> __m128i {
        assert!(fits::<T, L>(), "not a 128-bit lane shape");
        #[cfg(test)]
        tests::count_load();
        // SAFETY: `lanes` is 16 readable bytes (asserted above), and
        // `_mm_loadu_si128` has no alignment requirement.
        unsafe { arch::_mm_loadu_si128(lanes.as_ptr().cast()) }
    }

    /// Stores a register into a fresh lane array.
    #[inline(always)]
    pub(crate) fn store<T: Lane, const L: usize>(x: __m128i) -> Lanes<T, L> {
        assert!(fits::<T, L>(), "not a 128-bit lane shape");
        let mut lanes = [T::ZERO; L];
        // SAFETY: `lanes` is 16 writable bytes (asserted above),
        // `_mm_storeu_si128` has no alignment requirement, and every
        // bit pattern is a valid `u8` or `i16`, the only `Lane` scalars.
        unsafe { arch::_mm_storeu_si128(lanes.as_mut_ptr().cast(), x) };
        Lanes { lanes }
    }

    macro_rules! baseline {
        ($($name:ident $(<const $imm:ident: i32>)? ($($arg:ident: $ty:ty),*) -> $ret:ty;)*) => {$(
            #[inline(always)]
            pub(crate) fn $name$(<const $imm: i32>)?($($arg: $ty),*) -> $ret {
                // SAFETY: value-only SSE2 intrinsic (no pointers), and
                // this module is compiled only when the build enables
                // SSE2, so the CPU running it has the instruction.
                unsafe { arch::$name$(::<$imm>)?($($arg),*) }
            }
        )*};
    }

    baseline! {
        _mm_adds_epi16(a: __m128i, b: __m128i) -> __m128i;
        _mm_adds_epu8(a: __m128i, b: __m128i) -> __m128i;
        _mm_subs_epi16(a: __m128i, b: __m128i) -> __m128i;
        _mm_subs_epu8(a: __m128i, b: __m128i) -> __m128i;
        _mm_max_epi16(a: __m128i, b: __m128i) -> __m128i;
        _mm_max_epu8(a: __m128i, b: __m128i) -> __m128i;
        _mm_cmpeq_epi8(a: __m128i, b: __m128i) -> __m128i;
        _mm_movemask_epi8(a: __m128i) -> i32;
        _mm_or_si128(a: __m128i, b: __m128i) -> __m128i;
        _mm_cvtsi32_si128(a: i32) -> __m128i;
        _mm_cvtsi128_si32(a: __m128i) -> i32;
        _mm_slli_si128<const IMM8: i32>(a: __m128i) -> __m128i;
        _mm_srli_si128<const IMM8: i32>(a: __m128i) -> __m128i;
    }

    #[cfg(test)]
    pub(crate) mod tests {
        use std::cell::Cell;

        thread_local! {
            static LOADS: Cell<usize> = const { Cell::new(0) };
        }

        pub(crate) fn count_load() {
            LOADS.with(|n| n.set(n.get() + 1));
        }

        /// Register loads `f` performed on this thread.
        pub(crate) fn loads_in(f: impl FnOnce()) -> usize {
            let before = LOADS.with(Cell::get);
            f();
            LOADS.with(Cell::get) - before
        }
    }
}

// The lane-wise bodies are stamped out once per scalar instead of being
// written generically over `T: Lane`. A body generic over the scalar
// reaches LLVM with its comparisons and saturating ops still behind
// trait calls, and the striped kernels built on such bodies came out
// partly scalarized: 2-7x slower than on these concrete ones.
//
// Each `Lane` body takes the SSE2 path when the shape fills one
// register and otherwise falls through to the `Portable` body. The
// macro arguments are that scalar's SSE2 intrinsics: saturating add,
// saturating subtract and max, the lane width in bytes with the mask
// that keeps a shifted-in lane to that width (the word kernel shifts
// in a negative pad), and the `psrldq` steps of the max reduction.
macro_rules! lane {
    (
        $t:ty,
        adds: $adds:ident,
        subs: $subs:ident,
        max: $max:ident,
        width: $width:literal,
        mask: $mask:literal,
        reduce: [$($step:literal),*]
    ) => {
        impl Portable for $t {
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

        impl Lane for $t {
            const ZERO: Self = 0;

            #[inline]
            fn from_slice<const L: usize>(slice: &[Self]) -> Lanes<Self, L> {
                #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
                if sse2::fits::<Self, L>() {
                    // The slice index is the bounds check: a short
                    // slice panics before the load.
                    let lanes: &[Self; L] = slice[..L].try_into().expect("L lanes");
                    return sse2::store(sse2::load(lanes));
                }
                <$t as Portable>::from_slice(slice)
            }

            #[inline]
            fn adds<const L: usize>(a: Lanes<Self, L>, b: Lanes<Self, L>) -> Lanes<Self, L> {
                #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
                if sse2::fits::<Self, L>() {
                    return sse2::store(sse2::$adds(sse2::load(&a.lanes), sse2::load(&b.lanes)));
                }
                <$t as Portable>::adds(a, b)
            }

            #[inline]
            fn subs<const L: usize>(a: Lanes<Self, L>, b: Lanes<Self, L>) -> Lanes<Self, L> {
                #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
                if sse2::fits::<Self, L>() {
                    return sse2::store(sse2::$subs(sse2::load(&a.lanes), sse2::load(&b.lanes)));
                }
                <$t as Portable>::subs(a, b)
            }

            #[inline]
            fn max<const L: usize>(a: Lanes<Self, L>, b: Lanes<Self, L>) -> Lanes<Self, L> {
                #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
                if sse2::fits::<Self, L>() {
                    return sse2::store(sse2::$max(sse2::load(&a.lanes), sse2::load(&b.lanes)));
                }
                <$t as Portable>::max(a, b)
            }

            #[inline]
            fn any_gt<const L: usize>(a: Lanes<Self, L>, b: Lanes<Self, L>) -> bool {
                #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
                if sse2::fits::<Self, L>() {
                    use sse2::{$max, _mm_cmpeq_epi8, _mm_movemask_epi8};
                    // a > b somewhere exactly when max(a, b) differs
                    // from b somewhere; SSE2 has no unsigned compare.
                    let b = sse2::load(&b.lanes);
                    let same = _mm_cmpeq_epi8($max(sse2::load(&a.lanes), b), b);
                    return _mm_movemask_epi8(same) != 0xFFFF;
                }
                <$t as Portable>::any_gt(a, b)
            }

            #[inline]
            fn shift_in_first<const L: usize>(a: Lanes<Self, L>, first: Self) -> Lanes<Self, L> {
                #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
                if sse2::fits::<Self, L>() {
                    use sse2::{_mm_cvtsi32_si128, _mm_or_si128, _mm_slli_si128};
                    let shifted = _mm_slli_si128::<$width>(sse2::load(&a.lanes));
                    let first = _mm_cvtsi32_si128(i32::from(first) & $mask);
                    return sse2::store(_mm_or_si128(shifted, first));
                }
                <$t as Portable>::shift_in_first(a, first)
            }

            #[inline]
            fn horizontal_max<const L: usize>(a: Lanes<Self, L>) -> Self {
                #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
                if sse2::fits::<Self, L>() {
                    use sse2::{$max, _mm_cvtsi128_si32, _mm_srli_si128};
                    // Each step folds the upper half of the lanes still
                    // in play onto the lower half. The zeros shifted in
                    // only reach lanes that are already out of play, so
                    // lane 0 ends as the maximum of all lanes.
                    let mut m = sse2::load(&a.lanes);
                    $(m = $max(m, _mm_srli_si128::<$step>(m));)*
                    return _mm_cvtsi128_si32(m) as $t;
                }
                <$t as Portable>::horizontal_max(a)
            }
        }
    };
}

lane!(
    i16,
    adds: _mm_adds_epi16,
    subs: _mm_subs_epi16,
    max: _mm_max_epi16,
    width: 2,
    mask: 0xFFFF,
    reduce: [8, 4, 2]
);
lane!(
    u8,
    adds: _mm_adds_epu8,
    subs: _mm_subs_epu8,
    max: _mm_max_epu8,
    width: 1,
    mask: 0xFF,
    reduce: [8, 4, 2, 1]
);

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
    #[should_panic]
    fn byte_from_slice_too_short_panics() {
        let _ = B128::from_slice(&[1; 15]);
    }

    #[test]
    fn byte_insert_and_display() {
        let v = ByteVector::<2>::zero().insert(1, 7);
        assert_eq!(v.to_string(), "<0, 7>");
        assert_eq!(B256::LANES, 32);
    }
}

/// Every register op against its portable body, for both 128-bit
/// shapes. On x86_64 this compares the SSE2 bodies with the portable
/// ones; on other targets both sides are the portable body.
#[cfg(test)]
mod differential {
    use super::*;

    /// xorshift64*: a few lines of seeded randomness without a
    /// dependency.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }

    /// The striped word kernel's dead value (`sapa_bioseq::profile::WORD_PAD`),
    /// which it shifts into lane 0 and saturates against.
    const WORD_PAD: i16 = -25000;

    const WORD_EDGES: [i16; 8] = [
        0,
        1,
        -1,
        i16::MIN,
        i16::MIN + 1,
        i16::MAX,
        i16::MAX - 1,
        WORD_PAD,
    ];
    const BYTE_EDGES: [u8; 5] = [0, 1, 128, u8::MAX - 1, u8::MAX];

    /// A lane value: an edge value half the time, else uniform.
    trait Draw: Portable {
        fn draw(rng: &mut Rng) -> Self;
    }

    impl Draw for i16 {
        fn draw(rng: &mut Rng) -> Self {
            let r = rng.next();
            if r & 1 == 0 {
                WORD_EDGES[(r >> 1) as usize % WORD_EDGES.len()]
            } else {
                (r >> 16) as i16
            }
        }
    }

    impl Draw for u8 {
        fn draw(rng: &mut Rng) -> Self {
            let r = rng.next();
            if r & 1 == 0 {
                BYTE_EDGES[(r >> 1) as usize % BYTE_EDGES.len()]
            } else {
                (r >> 16) as u8
            }
        }
    }

    fn check<T: Portable, const L: usize>(a: [T; L], b: [T; L], first: T) {
        let (va, vb) = (Lanes::from_array(a), Lanes::from_array(b));
        let ctx = format!("a={va} b={vb} first={first}");
        assert_eq!(
            Lanes::<T, L>::from_slice(&a),
            <T as Portable>::from_slice::<L>(&a),
            "from_slice {ctx}"
        );
        assert_eq!(va.adds(vb), <T as Portable>::adds(va, vb), "adds {ctx}");
        assert_eq!(va.subs(vb), <T as Portable>::subs(va, vb), "subs {ctx}");
        assert_eq!(va.max(vb), <T as Portable>::max(va, vb), "max {ctx}");
        assert_eq!(
            va.any_gt(vb),
            <T as Portable>::any_gt(va, vb),
            "any_gt {ctx}"
        );
        assert_eq!(
            va.any_gt(va),
            <T as Portable>::any_gt(va, va),
            "any_gt self {ctx}"
        );
        assert_eq!(
            va.shift_in_first(first),
            <T as Portable>::shift_in_first(va, first),
            "shift_in_first {ctx}"
        );
        assert_eq!(
            va.horizontal_max(),
            <T as Portable>::horizontal_max(va),
            "horizontal_max {ctx}"
        );
    }

    fn random_shape<T: Draw, const L: usize>(seed: u64) {
        let mut rng = Rng(seed);
        for _ in 0..20_000 {
            let a = std::array::from_fn(|_| T::draw(&mut rng));
            let b = std::array::from_fn(|_| T::draw(&mut rng));
            check::<T, L>(a, b, T::draw(&mut rng));
        }
    }

    #[test]
    fn word_register_bodies_match_portable() {
        random_shape::<i16, 8>(0x5EED_0016);
    }

    #[test]
    fn byte_register_bodies_match_portable() {
        random_shape::<u8, 16>(0x5EED_0008);
    }

    #[test]
    fn edge_splats_match_portable() {
        for &x in &WORD_EDGES {
            for &y in &WORD_EDGES {
                check::<i16, 8>([x; 8], [y; 8], y);
            }
        }
        for &x in &BYTE_EDGES {
            for &y in &BYTE_EDGES {
                check::<u8, 16>([x; 16], [y; 16], y);
            }
        }
    }

    #[test]
    fn negative_first_is_masked_to_the_lane() {
        // The word kernel shifts its negative pad into lane 0; the
        // register body must not smear its sign bits into lane 1.
        for first in [-1, WORD_PAD, i16::MIN] {
            let v = V128::splat(7).shift_in_first(first);
            assert_eq!(v.to_array(), [first, 7, 7, 7, 7, 7, 7, 7]);
        }
    }

    #[test]
    fn any_gt_sees_every_lane() {
        for i in 0..16 {
            assert!(
                B128::zero().insert(i, 1).any_gt(B128::zero()),
                "byte lane {i}"
            );
            assert!(
                !B128::zero().any_gt(B128::zero().insert(i, 1)),
                "byte lane {i}"
            );
        }
        for i in 0..8 {
            assert!(
                V128::splat(-5).insert(i, -4).any_gt(V128::splat(-5)),
                "word lane {i}"
            );
            assert!(
                !V128::splat(-5).any_gt(V128::splat(-5).insert(i, -4)),
                "word lane {i}"
            );
        }
    }

    /// Fails if either 128-bit shape stops taking its SSE2 body on any
    /// op, or if another shape starts to.
    #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
    #[test]
    fn the_128_bit_shapes_take_the_register_bodies() {
        use crate::sse2::tests::loads_in;
        use std::hint::black_box;

        fn loads_per_op<T: Lane, const L: usize>(x: T) -> [usize; 7] {
            let a = Lanes::<T, L>::splat(x);
            let s = [x; L];
            [
                loads_in(|| {
                    black_box(Lanes::<T, L>::from_slice(&s));
                }),
                loads_in(|| {
                    black_box(a.adds(a));
                }),
                loads_in(|| {
                    black_box(a.subs(a));
                }),
                loads_in(|| {
                    black_box(a.max(a));
                }),
                loads_in(|| {
                    black_box(a.any_gt(a));
                }),
                loads_in(|| {
                    black_box(a.shift_in_first(x));
                }),
                loads_in(|| {
                    black_box(a.horizontal_max());
                }),
            ]
        }

        assert!(
            loads_per_op::<u8, 16>(3).iter().all(|&n| n > 0),
            "B128 ops must run in SSE2"
        );
        assert!(
            loads_per_op::<i16, 8>(3).iter().all(|&n| n > 0),
            "V128 ops must run in SSE2"
        );
        assert_eq!(
            loads_per_op::<i16, 16>(3),
            [0; 7],
            "V256 has no register body"
        );
        assert_eq!(
            loads_per_op::<u8, 32>(3),
            [0; 7],
            "B256 has no register body"
        );
        assert_eq!(
            loads_per_op::<i16, 2>(3),
            [0; 7],
            "odd widths have no register body"
        );
    }
}
