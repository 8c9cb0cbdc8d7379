//! The portable software-prefetch hint.
//!
//! Randomised edge switching makes inherently unstructured memory accesses
//! (Sec. 5.4 of the paper).  The in-order kernel of the exact chains hides
//! part of the resulting cache-miss latency by prefetching a fixed distance
//! ahead: the edge-array slots of a switch it will stage, and the home
//! buckets of the edges of a switch it has staged
//! ([`AtomicEdgeList::prefetch`](crate::AtomicEdgeList::prefetch),
//! [`ConcurrentEdgeSet::prefetch`](crate::ConcurrentEdgeSet::prefetch)).
//! [`prefetch_read`] issues the hint; on platforms without a stable prefetch
//! intrinsic it compiles to a no-op, so the surrounding algorithm stays
//! portable.

/// Prefetch the cache line containing `slice[index]` for reading.
///
/// A best-effort hint: out-of-range indices are ignored, and on targets other
/// than x86_64 the call is a no-op.
#[inline]
pub fn prefetch_read<T>(slice: &[T], index: usize) {
    if index >= slice.len() {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    {
        let ptr = &slice[index] as *const T;
        // SAFETY: `ptr` points into a live slice element; _mm_prefetch has no
        // memory side effects and is safe for any readable address.
        unsafe {
            core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(
                ptr as *const i8,
            );
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = slice;
        let _ = index;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_is_harmless() {
        let data = vec![1u64, 2, 3, 4];
        prefetch_read(&data, 0);
        prefetch_read(&data, 3);
        prefetch_read(&data, 100); // out of range: ignored
        prefetch_read::<u64>(&[], 0);
        assert_eq!(data, vec![1, 2, 3, 4]);
    }
}
