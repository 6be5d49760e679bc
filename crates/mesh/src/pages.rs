//! Field storage: the one allocation function behind every [`Field3`]
//! array, volume or surface.
//!
//! [`zeroed`] returns the same `vec![0.0; n]` as a plain allocation: a
//! zeroed request, which for a large buffer is fresh pages the kernel
//! zero-fills on first touch.  Nothing here memsets, pre-touches or pads,
//! so a field's memory is faulted in by whatever writes it first.  On Linux
//! a buffer of at least one PMD page (2 MiB) is first advised
//! `MADV_HUGEPAGE` over the 2 MiB pages that lie wholly inside it, so on a
//! host whose transparent huge pages are in `madvise` mode those first
//! touches map 2 MiB at a time instead of 4 KiB.  The range is rounded
//! inward: a page shared with another allocation is never advised.  The
//! advice changes how the pages are backed, never what they hold; its
//! result is ignored, so on a host whose mode is `never` (or whose kernel
//! refuses it) nothing changes.
//!
//! [`Field3`]: crate::Field3

/// One PMD (huge) page on x86-64.
const HUGE_PAGE: usize = 2 << 20;

/// A zero-filled buffer of `n` values; see the module docs.
pub(crate) fn zeroed(n: usize) -> Vec<f64> {
    let buf = vec![0.0; n];
    advise_huge(&buf);
    buf
}

/// A copy of `src` in a buffer from [`zeroed`].
pub(crate) fn copied(src: &[f64]) -> Vec<f64> {
    let mut buf = zeroed(src.len());
    buf.copy_from_slice(src);
    buf
}

/// The 2 MiB pages wholly inside `[addr, addr + len)`, as `(start, len)`:
/// none for a buffer under 2 MiB.
#[cfg_attr(not(all(target_os = "linux", not(miri))), allow(dead_code))]
fn inner_huge_pages(addr: usize, len: usize) -> Option<(usize, usize)> {
    let start = addr.checked_next_multiple_of(HUGE_PAGE)?;
    let end = addr.checked_add(len)? & !(HUGE_PAGE - 1);
    (end > start).then(|| (start, end - start))
}

#[cfg(all(target_os = "linux", not(miri)))]
#[allow(unsafe_code)]
fn advise_huge(buf: &[f64]) {
    extern "C" {
        fn madvise(addr: *mut std::ffi::c_void, len: usize, advice: i32) -> i32;
    }
    const MADV_HUGEPAGE: i32 = 14;
    let bytes = std::mem::size_of_val(buf);
    if let Some((start, len)) = inner_huge_pages(buf.as_ptr() as usize, bytes) {
        // SAFETY: `[start, start + len)` is whole, aligned pages inside `buf`,
        // a live allocation, and MADV_HUGEPAGE changes how those pages are
        // backed, never what they hold; a refusal is harmless and ignored.
        let _ = unsafe { madvise(start as *mut _, len, MADV_HUGEPAGE) };
    }
}

#[cfg(not(all(target_os = "linux", not(miri))))]
fn advise_huge(_buf: &[f64]) {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Field3, HaloWidths};

    #[test]
    fn only_whole_huge_pages_inside_the_buffer_are_advised() {
        let m = HUGE_PAGE;
        assert_eq!(inner_huge_pages(m, 2 * m), Some((m, 2 * m)));
        assert_eq!(inner_huge_pages(m + 16, 2 * m), Some((2 * m, m)));
        assert_eq!(inner_huge_pages(m + 16, 2 * m - 32), None);
        assert_eq!(inner_huge_pages(16, m), None);
        assert_eq!(inner_huge_pages(usize::MAX - 8, 4), None);
    }

    /// A clone is its source bit for bit: halos, `-0.0` and NaN payloads
    /// included, in a buffer of its own.
    #[test]
    fn clones_are_bitwise() {
        let specials = [-0.0, f64::from_bits(0x7ff8_dead_beef_0001), 1.5];
        let mut f = Field3::new(5, 4, 3, HaloWidths::uniform(2));
        let mut g = Field3::surface(5, 4, HaloWidths::uniform(1));
        for (n, v) in f.raw_mut().iter_mut().enumerate() {
            *v = specials[n % 3];
        }
        for (n, v) in g.raw_mut().iter_mut().enumerate() {
            *v = specials[(n + 1) % 3];
        }
        let bits = |s: &[f64]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let (f2, g2) = (f.clone(), g.clone());
        assert_eq!(bits(f2.raw()), bits(f.raw()));
        assert_eq!(bits(g2.raw()), bits(g.raw()));
        assert_eq!((f2.extents(), f2.halo()), (f.extents(), f.halo()));
        assert_eq!((g2.extents(), g2.halo()), (g.extents(), g.halo()));
        assert_ne!(f2.raw().as_ptr(), f.raw().as_ptr());
        assert_eq!(f2.get(-2, -2, -2).to_bits(), (-0.0f64).to_bits());
    }

    /// An 8 MiB field lies in a mapping the kernel may back with huge
    /// pages.  The mapping looked up is the one holding the field's second
    /// 2 MiB: its first bytes share a page with the allocator's header, which
    /// is left unadvised.  Eligibility only: whether it *is* huge-backed
    /// depends on fragmentation.
    #[test]
    #[cfg(target_os = "linux")]
    #[cfg_attr(miri, ignore)]
    fn a_large_field_is_huge_page_eligible() {
        let mode = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled")
            .unwrap_or_default();
        if !mode.contains('[') || mode.contains("[never]") {
            println!("transparent huge pages are off on this host ({mode:?}): passed unchecked");
            return;
        }
        let f = Field3::dense(128, 128, 64);
        assert!(f.total_len() * 8 >= 8 << 20);
        let at = f.raw().as_ptr() as usize;
        let smaps = std::fs::read_to_string("/proc/self/smaps").unwrap();
        let mut inside = false;
        for line in smaps.lines() {
            let range = line
                .split_whitespace()
                .next()
                .and_then(|r| r.split_once('-'));
            if let Some((lo, hi)) = range {
                if let (Ok(lo), Ok(hi)) =
                    (usize::from_str_radix(lo, 16), usize::from_str_radix(hi, 16))
                {
                    inside = (lo..hi).contains(&(at + HUGE_PAGE));
                    continue;
                }
            }
            if let (true, Some(v)) = (inside, line.strip_prefix("THPeligible:")) {
                assert_eq!(v.trim(), "1", "mapping of {at:#x} is not THP-eligible");
                return;
            }
        }
        panic!("no THPeligible line for the mapping of {at:#x}");
    }
}
