//! Huge-page host buffers: batch-, pair- and n-sized `Vec`s that ask
//! the kernel for 2 MiB pages.
//!
//! A 64 MiB output written through 4 KiB pages takes ≈ 16 k minor
//! faults; through 2 MiB pages it takes 32. On Linux every constructor
//! here calls `madvise(MADV_HUGEPAGE)` on the 2 MiB-aligned interior of
//! the memory it has just allocated, and ignores the result: the advice
//! only takes effect when transparent huge pages are set to `always` or
//! `madvise`, and a refused or ignored advice changes nothing but
//! speed. On other targets, and for any buffer without an aligned
//! interior (every buffer under 2 MiB), it is a no-op.
//!
//! Each constructor makes exactly the allocation of the `std` call it
//! names, with the same contents, so a counting allocator sees the same
//! calls and bytes either way.

/// The transparent huge page size on x86-64 and aarch64 (4 KiB base
/// pages).
pub const HUGE_PAGE: usize = 2 << 20;

/// `vec![x; n]`, its buffer advised to use huge pages.
///
/// For a zero `x` of a plain numeric type `vec!` asks the allocator for
/// zeroed memory (`calloc`), which writes no fresh page, so the advice
/// precedes the first write. `vec!` fills any other value itself, and
/// pages that fill touched keep their 4 KiB size.
pub fn huge_vec<T: Clone>(n: usize, x: T) -> Vec<T> {
    let v = vec![x; n];
    advise(v.as_ptr() as usize, v.capacity() * std::mem::size_of::<T>());
    v
}

/// `Vec::with_capacity(n)`, its buffer advised to use huge pages.
pub fn huge_with_capacity<T>(n: usize) -> Vec<T> {
    let v = Vec::with_capacity(n);
    advise_spare(&v);
    v
}

/// `v.resize(n, x)`, any memory it grows into advised to use huge pages
/// before the fill writes it. It reserves as `resize` does, so the
/// allocation is the one `resize` makes.
pub fn huge_resize<T: Clone>(v: &mut Vec<T>, n: usize, x: T) {
    if n > v.len() {
        v.reserve(n - v.len());
        advise_spare(v);
    }
    v.resize(n, x);
}

/// Advise `v`'s unwritten capacity.
fn advise_spare<T>(v: &Vec<T>) {
    let elem = std::mem::size_of::<T>();
    let start = v.as_ptr() as usize + v.len() * elem;
    advise(start, (v.capacity() - v.len()) * elem);
}

/// Advise the aligned interior of `[start, start + bytes)`, if any.
fn advise(start: usize, bytes: usize) {
    if let Some((addr, len)) = aligned_interior(start, bytes) {
        madvise_huge(addr, len);
    }
}

/// The largest `HUGE_PAGE`-aligned range `(addr, len)` inside
/// `[start, start + bytes)`, or `None` when it holds no whole huge page.
pub(crate) fn aligned_interior(start: usize, bytes: usize) -> Option<(usize, usize)> {
    let end = start.checked_add(bytes)?;
    let lo = start.checked_next_multiple_of(HUGE_PAGE)?;
    let hi = end - end % HUGE_PAGE;
    (hi > lo).then(|| (lo, hi - lo))
}

#[cfg(target_os = "linux")]
fn madvise_huge(addr: usize, len: usize) {
    use std::ffi::{c_int, c_void};
    const MADV_HUGEPAGE: c_int = 14;
    extern "C" {
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }
    // SAFETY: `[addr, addr + len)` lies inside the capacity of a live
    // `Vec` this module has just allocated or grown, and `addr` is
    // page-aligned. MADV_HUGEPAGE changes only which page size backs
    // the range, never its contents or its validity; no Rust reference
    // is derived from the call. Failure (EINVAL where THP is compiled
    // out) is ignored.
    let _ = unsafe { madvise(addr as *mut c_void, len, MADV_HUGEPAGE) };
}

#[cfg(not(target_os = "linux"))]
fn madvise_huge(_addr: usize, _len: usize) {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyValue;

    const MIB: usize = 1 << 20;

    #[test]
    fn nothing_under_a_huge_page_is_advised() {
        for start in [0, 4096, HUGE_PAGE, HUGE_PAGE - 16] {
            for bytes in [0, 1, 4096, HUGE_PAGE - 1] {
                assert_eq!(aligned_interior(start, bytes), None, "{start} {bytes}");
            }
        }
    }

    #[test]
    fn interior_is_rounded_in_at_both_ends() {
        // Page-aligned, not huge-aligned: the first 2 MiB boundary up.
        let start = 8 * HUGE_PAGE + 4096;
        assert_eq!(
            aligned_interior(start, 3 * HUGE_PAGE),
            Some((9 * HUGE_PAGE, 2 * HUGE_PAGE))
        );
        // 4 MiB starting 4 KiB past a boundary holds one huge page.
        assert_eq!(
            aligned_interior(start, 4 * MIB),
            Some((9 * HUGE_PAGE, HUGE_PAGE))
        );
        // Just under the two boundaries it needs: none.
        assert_eq!(aligned_interior(start, 2 * HUGE_PAGE - 4097), None);
        // An end exactly on a boundary keeps the last huge page.
        assert_eq!(
            aligned_interior(start, HUGE_PAGE - 4096 + HUGE_PAGE),
            Some((9 * HUGE_PAGE, HUGE_PAGE))
        );
        // Aligned both ends: the whole range.
        assert_eq!(
            aligned_interior(HUGE_PAGE, 2 * HUGE_PAGE),
            Some((HUGE_PAGE, 2 * HUGE_PAGE))
        );
        // Near the top of the address space nothing overflows.
        assert_eq!(aligned_interior(usize::MAX - 10, 5), None);
        assert_eq!(aligned_interior(usize::MAX - 10, 20), None);
    }

    #[test]
    fn zero_sized_elements_advise_nothing() {
        // A `Vec<()>` has capacity `usize::MAX` and no bytes at all.
        let v: Vec<()> = huge_vec(3 * HUGE_PAGE, ());
        assert_eq!(v.len(), 3 * HUGE_PAGE);
        let mut w: Vec<()> = huge_with_capacity(10);
        huge_resize(&mut w, 3 * HUGE_PAGE, ());
        assert_eq!(w.len(), 3 * HUGE_PAGE);
        assert_eq!(aligned_interior(w.as_ptr() as usize, 0), None);
    }

    /// Element counts just under, at and over one and two huge pages.
    fn lengths(elem: usize) -> Vec<usize> {
        [HUGE_PAGE, 2 * HUGE_PAGE + 4096, 3 * HUGE_PAGE]
            .iter()
            .flat_map(|&b| [b / elem - 1, b / elem, b / elem + 1])
            .chain([0, 1, 1000])
            .collect()
    }

    #[test]
    fn contents_equal_vec_macro_f64() {
        for n in lengths(8) {
            for x in [0.0f64, -0.0, 1.5, f64::NAN] {
                let v = huge_vec(n, x);
                let want = vec![x; n];
                assert_eq!(v.len(), n);
                assert!(
                    v.iter().zip(&want).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "n = {n}"
                );
            }
        }
    }

    #[test]
    fn contents_equal_vec_macro_key_value() {
        let elem = std::mem::size_of::<KeyValue>();
        for n in lengths(elem) {
            let x = KeyValue {
                key: -2.5,
                value: 7,
            };
            let v = huge_vec(n, x);
            assert_eq!(v.len(), n);
            assert!(v
                .iter()
                .all(|r| r.key.to_bits() == x.key.to_bits() && r.value == 7));
        }
    }

    #[test]
    fn resize_grows_and_shrinks_like_vec_resize() {
        let mut v: Vec<u64> = (0..1000).collect();
        let mut w = v.clone();
        huge_resize(&mut v, 3 * HUGE_PAGE / 8, 9);
        w.resize(3 * HUGE_PAGE / 8, 9);
        assert_eq!(v, w);
        huge_resize(&mut v, 10, 0);
        w.resize(10, 0);
        assert_eq!(v, w);

        let mut c = huge_with_capacity::<u64>(HUGE_PAGE);
        assert!(c.is_empty() && c.capacity() >= HUGE_PAGE);
        c.extend(0..HUGE_PAGE as u64);
        assert!(c.iter().enumerate().all(|(i, &x)| x == i as u64));
    }
}
