//! Portable software-prefetch helpers.
//!
//! Randomised edge switching makes inherently unstructured memory accesses
//! (Sec. 5.4 of the paper).  `SeqES` hides part of the resulting cache-miss
//! latency by splitting every hash-set operation into a *hash-and-prefetch*
//! step and an *operate* step, with a small window of switches in flight
//! between the two.  These helpers issue the prefetch; on
//! platforms without a stable prefetch intrinsic they compile to a no-op, so
//! the surrounding algorithm stays portable.

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

/// Prefetch `slice[index]` and its successor (`index + 1`).
///
/// Linear-probing hash sets with a low load factor nearly always resolve a
/// query within two consecutive buckets, so prefetching the pair removes
/// almost all misses (this mirrors the paper's "prefetch this bucket as well
/// as its direct successor").
#[inline]
pub fn prefetch_read_pair<T>(slice: &[T], index: usize) {
    prefetch_read(slice, index);
    prefetch_read(slice, index + 1);
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
        prefetch_read_pair(&data, 3); // second element out of range: ignored
        prefetch_read_pair::<u64>(&[], 0);
        assert_eq!(data, vec![1, 2, 3, 4]);
    }
}
