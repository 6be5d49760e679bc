//! Field storage: the one allocation function behind every [`Field3`]
//! array, volume or surface.
//!
//! [`zeroed`] returns the same `vec![0.0; n]` as a plain allocation: a
//! zeroed request.  Nothing here memsets, pre-touches or pads, so a field's
//! memory is faulted in by whatever writes it first.
//!
//! On Linux with glibc, a buffer of at least 1 MiB is its own kernel
//! mapping from allocation to drop.  Before the first such buffer,
//! `mallopt` fixes glibc's mmap threshold at 1 MiB and its trim threshold
//! at twice that, once per process.  Left alone, glibc raises both to the
//! size of every mapped chunk it frees (the mmap threshold up to 32 MiB),
//! so after one model is dropped the next model's fields would come from
//! recycled heap chunks that `calloc` memsets and that keep the old pages
//! resident.  Pinned, every request of 1 MiB and up — field or not,
//! anywhere in the process — is a fresh anonymous mapping the kernel
//! zero-fills on first touch, and its drop returns the pages to the
//! kernel.  The trim threshold keeps glibc's own ratio to the mmap
//! threshold: a smaller heap request, such as a halo message buffer, still
//! reuses warm heap memory instead of refaulting it after every free.
//!
//! A buffer of at least one PMD page (2 MiB) is then advised
//! `MADV_HUGEPAGE` over the 2 MiB pages that lie wholly inside it, so on a
//! host whose transparent huge pages are in `madvise` mode those first
//! touches map 2 MiB at a time instead of 4 KiB.  The range is rounded
//! inward: the page holding the allocator's header is never advised.
//! No call changes what a buffer holds; their results are ignored, so
//! on a host whose THP mode is `never` (or whose kernel refuses the advice)
//! only the backing differs.  Off Linux, off glibc and under Miri the
//! function is `vec![0.0; n]`.
//!
//! [`Field3`]: crate::Field3

/// One PMD (huge) page on x86-64.
const HUGE_PAGE: usize = 2 << 20;

/// A zero-filled buffer of `n` values; see the module docs.
#[cfg(all(target_os = "linux", target_env = "gnu", not(miri)))]
#[allow(unsafe_code)]
pub(crate) fn zeroed(n: usize) -> Vec<f64> {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
        fn madvise(addr: *mut std::ffi::c_void, len: usize, advice: i32) -> i32;
    }
    // The pinned mmap threshold lies above every halo message of the
    // benchmark's workloads (the largest, the paper mesh's, are 578 KB) and
    // below the paper mesh's two-rank surface fields (1.03 MiB).
    const MMAP_THRESHOLD: usize = 1 << 20;
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    const MADV_HUGEPAGE: i32 = 14;
    static PIN: std::sync::Once = std::sync::Once::new();
    if n < MMAP_THRESHOLD / 8 {
        return vec![0.0; n];
    }
    // SAFETY: `mallopt` only moves two of glibc's size cut-offs, and an
    // allocation racing it reads the old or the new value, either valid;
    // `Once` runs it once, before this buffer is allocated.  `[start,
    // start + len)` is whole, aligned pages inside `buf`, a live
    // allocation, and MADV_HUGEPAGE changes how those pages are backed,
    // never what they hold.  A refusal of any call is harmless and ignored.
    unsafe {
        PIN.call_once(|| {
            mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD as i32);
            mallopt(M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD as i32);
        });
        let buf = vec![0.0; n];
        if let Some((start, len)) = inner_huge_pages(buf.as_ptr() as usize, 8 * n) {
            madvise(start as *mut _, len, MADV_HUGEPAGE);
        }
        buf
    }
}

/// A zero-filled buffer of `n` values; see the module docs.
#[cfg(not(all(target_os = "linux", target_env = "gnu", not(miri))))]
pub(crate) fn zeroed(n: usize) -> Vec<f64> {
    vec![0.0; n]
}

/// A copy of `src` in a buffer from [`zeroed`].
pub(crate) fn copied(src: &[f64]) -> Vec<f64> {
    let mut buf = zeroed(src.len());
    buf.copy_from_slice(src);
    buf
}

/// The 2 MiB pages wholly inside `[addr, addr + len)`, as `(start, len)`:
/// none for a buffer under 2 MiB.
#[cfg_attr(
    not(all(target_os = "linux", target_env = "gnu", not(miri))),
    allow(dead_code)
)]
fn inner_huge_pages(addr: usize, len: usize) -> Option<(usize, usize)> {
    let start = addr.checked_next_multiple_of(HUGE_PAGE)?;
    let end = addr.checked_add(len)? & !(HUGE_PAGE - 1);
    (end > start).then(|| (start, end - start))
}

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

    /// Held by the tests that map large fields: a mapping made by one right
    /// below another's would merge with it in `/proc/self/maps`.
    static LARGE: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// A 3 MiB field, and a paper-mesh rank's 1.03 MiB surface field, are
    /// each their own mapping even after a 24 MiB field has been dropped,
    /// which unpinned would have raised glibc's mmap threshold past both
    /// and sent them to recycled heap chunks.  glibc puts a mapped chunk's
    /// 16-byte header at the first byte of its mapping, so some
    /// `/proc/self/maps` entry starts 16 bytes before each field's data.
    /// Each is looked up before the next is mapped: a mapping placed right
    /// below another merges with it in `/proc/self/maps`.
    #[test]
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    #[cfg_attr(miri, ignore)]
    fn a_field_is_its_own_mapping_after_a_larger_one_is_dropped() {
        let _alone = LARGE.lock().unwrap_or_else(|e| e.into_inner());
        let assert_own_mapping = |f: &Field3| {
            let header = f.raw().as_ptr() as usize - 16;
            let maps = std::fs::read_to_string("/proc/self/maps").unwrap();
            let own = maps
                .lines()
                .filter_map(|line| line.split('-').next())
                .any(|lo| usize::from_str_radix(lo, 16) == Ok(header));
            assert!(
                own,
                "the field at {:#x} is not its own mapping",
                header + 16
            );
        };
        drop(Field3::dense(128, 128, 192));
        let volume = Field3::dense(128, 128, 24);
        assert_eq!(volume.total_len() * 8, 3 << 20);
        assert_own_mapping(&volume);
        let surface = Field3::surface(720, 180, HaloWidths::uniform(3));
        assert_eq!(surface.total_len() * 8, 726 * 186 * 8);
        assert_own_mapping(&surface);
    }

    /// An 8 MiB field lies in a mapping the kernel may back with huge
    /// pages.  The mapping looked up is the one holding the field's second
    /// 2 MiB: its first bytes share a page with the allocator's header, which
    /// is left unadvised.  Eligibility only: whether it *is* huge-backed
    /// depends on fragmentation.
    #[test]
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    #[cfg_attr(miri, ignore)]
    fn a_large_field_is_huge_page_eligible() {
        let mode = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled")
            .unwrap_or_default();
        if !mode.contains('[') || mode.contains("[never]") {
            println!("transparent huge pages are off on this host ({mode:?}): passed unchecked");
            return;
        }
        let _alone = LARGE.lock().unwrap_or_else(|e| e.into_inner());
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
