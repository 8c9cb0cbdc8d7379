//! Sequential and parallel uniform random permutations.
//!
//! A global switch (Def. 3 in the paper) is parameterised by a uniformly
//! random permutation `π` of the edge indices `[m]`.  For large `m` the
//! permutation must be generated in parallel; we follow the bucket-scatter
//! approach of Sanders (reference \[59\] in the paper): every element is
//! assigned to one of `B` buckets uniformly at random, buckets are
//! materialised independently, locally shuffled with Fisher–Yates, and then
//! concatenated.  Conditioned on the (multinomially distributed) bucket
//! sizes, every interleaving is equally likely, so the concatenation is a
//! uniformly random permutation.

use crate::bounded::gen_index;
use crate::seeds::SeedSequence;
use rand::RngCore;
use rayon::prelude::*;

/// Shuffle `data` in place with the Fisher–Yates algorithm.
///
/// Uses the unbiased bounded sampler from [`crate::bounded`]; this is the
/// sequential reference implementation against which the parallel variant is
/// tested.
pub fn shuffle_in_place<T, R: RngCore + ?Sized>(rng: &mut R, data: &mut [T]) {
    let n = data.len();
    if n < 2 {
        return;
    }
    for i in (1..n).rev() {
        let j = gen_index(rng, i + 1);
        data.swap(i, j);
    }
}

/// Generate a uniformly random permutation of `[0, n)` sequentially.
pub fn random_permutation<R: RngCore + ?Sized>(rng: &mut R, n: usize) -> Vec<u64> {
    let mut perm: Vec<u64> = (0..n as u64).collect();
    shuffle_in_place(rng, &mut perm);
    perm
}

/// Number of scatter buckets used by [`parallel_permutation`] for `n`
/// elements.
///
/// The count depends on `n` alone, never on the number of threads, because
/// the permutation depends on it: one bucket below 2^14 elements, otherwise
/// about one per 2^13 elements (a power of two, at most 1024).  Buckets that
/// small shuffle in cache, and there are enough of them to balance work over
/// many threads.
fn bucket_count(n: usize) -> usize {
    if n < 1 << 14 {
        1
    } else {
        (n >> 13).next_power_of_two().min(1024)
    }
}

/// Generate a uniformly random permutation of `[0, n)` in parallel.
///
/// The permutation is a deterministic function of `seed` (and `n`): the
/// bucket count depends on `n` only, bucket assignment uses one random stream
/// per fixed-size chunk of elements, and each bucket is shuffled with a seed
/// derived from its index, so results do not depend on the number of threads
/// or the scheduling order.
pub fn parallel_permutation(seed: u64, n: usize) -> Vec<u64> {
    let buckets = bucket_count(n);
    let seq = SeedSequence::new(seed);

    if buckets == 1 {
        let mut rng = seq.child_rng(0);
        return random_permutation(&mut rng, n);
    }

    // Phase 1: assign each element to a bucket. The assignment RNG is indexed
    // by chunk so the result is independent of thread scheduling.
    let chunk = 1 << 16;
    let assignments: Vec<u32> = (0..n)
        .into_par_iter()
        .chunks(chunk)
        .enumerate()
        .flat_map_iter(|(c, items)| {
            let mut rng = seq.child_rng(0x5EED_0000 + c as u64);
            let buckets = buckets as u64;
            items.into_iter().map(move |_| crate::bounded::gen_range_u64(&mut rng, buckets) as u32)
        })
        .collect();

    // Phase 2: counting sort by bucket (sequential counting, parallel scatter
    // via per-bucket collection).
    let mut counts = vec![0usize; buckets];
    for &b in &assignments {
        counts[b as usize] += 1;
    }
    let mut offsets = vec![0usize; buckets + 1];
    for b in 0..buckets {
        offsets[b + 1] = offsets[b] + counts[b];
    }

    // Scatter the element ids into their buckets.
    let mut scattered: Vec<u64> = vec![0; n];
    {
        let mut cursors = offsets[..buckets].to_vec();
        for (i, &b) in assignments.iter().enumerate() {
            let pos = cursors[b as usize];
            scattered[pos] = i as u64;
            cursors[b as usize] += 1;
        }
    }

    // Phase 3: shuffle every bucket independently, in parallel.
    let mut result = scattered;
    {
        // Split the vector into per-bucket slices.
        let mut slices: Vec<&mut [u64]> = Vec::with_capacity(buckets);
        let mut rest: &mut [u64] = &mut result;
        for &count in counts.iter() {
            let (head, tail) = rest.split_at_mut(count);
            slices.push(head);
            rest = tail;
        }
        slices.into_par_iter().enumerate().for_each(|(b, slice)| {
            let mut rng = seq.child_rng(0xB0CC_0000 + b as u64);
            shuffle_in_place(&mut rng, slice);
        });
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng_from_seed;

    fn is_permutation(perm: &[u64]) -> bool {
        let n = perm.len();
        let mut seen = vec![false; n];
        for &p in perm {
            if p as usize >= n || seen[p as usize] {
                return false;
            }
            seen[p as usize] = true;
        }
        true
    }

    #[test]
    fn sequential_permutation_is_valid() {
        let mut rng = rng_from_seed(5);
        for n in [0usize, 1, 2, 3, 17, 1000] {
            let p = random_permutation(&mut rng, n);
            assert_eq!(p.len(), n);
            assert!(is_permutation(&p));
        }
    }

    #[test]
    fn parallel_permutation_is_valid_small_and_large() {
        for n in [0usize, 1, 10, 1 << 10, (1 << 15) + 123] {
            let p = parallel_permutation(77, n);
            assert_eq!(p.len(), n);
            assert!(is_permutation(&p), "not a permutation for n = {n}");
        }
    }

    #[test]
    fn parallel_permutation_is_independent_of_the_thread_count() {
        let n = (1 << 16) + 123;
        let with_threads = |threads| {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            pool.install(|| parallel_permutation(9, n))
        };
        let one = with_threads(1);
        assert!(is_permutation(&one));
        for threads in [2, 8] {
            assert!(with_threads(threads) == one, "{threads} threads permute differently");
        }
    }

    #[test]
    fn bucket_count_depends_on_the_size_only() {
        assert_eq!(bucket_count(0), 1);
        assert_eq!(bucket_count((1 << 14) - 1), 1);
        assert_eq!(bucket_count(1 << 14), 2);
        assert_eq!(bucket_count(1 << 30), 1024);
    }

    #[test]
    fn parallel_permutation_is_deterministic_in_seed() {
        let a = parallel_permutation(123, 1 << 15);
        let b = parallel_permutation(123, 1 << 15);
        assert_eq!(a, b);
        let c = parallel_permutation(124, 1 << 15);
        assert_ne!(a, c);
    }

    #[test]
    fn sequential_shuffle_uniform_on_three_elements() {
        // All 6 permutations of [0,1,2] should appear with roughly equal
        // frequency.
        let mut rng = rng_from_seed(42);
        let mut counts = std::collections::HashMap::new();
        let trials = 60_000;
        for _ in 0..trials {
            let mut v = vec![0u64, 1, 2];
            shuffle_in_place(&mut rng, &mut v);
            *counts.entry(v).or_insert(0u64) += 1;
        }
        assert_eq!(counts.len(), 6);
        let expected = trials as f64 / 6.0;
        for (_, &c) in counts.iter() {
            let rel = (c as f64 - expected).abs() / expected;
            assert!(rel < 0.05, "relative deviation {rel}");
        }
    }

    #[test]
    fn parallel_permutation_first_position_uniform() {
        // For a uniform permutation the value at position 0 is uniform over
        // [0, n). Use a small n and many seeds; chi-square style tolerance.
        let n = 8usize;
        let trials = 4000;
        let mut counts = vec![0u64; n];
        for seed in 0..trials {
            let p = parallel_permutation(seed as u64, n);
            counts[p[0] as usize] += 1;
        }
        let expected = trials as f64 / n as f64;
        for &c in &counts {
            let rel = (c as f64 - expected).abs() / expected;
            assert!(rel < 0.25, "relative deviation {rel}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn parallel_permutation_always_valid(seed in any::<u64>(), n in 0usize..5000) {
            let p = parallel_permutation(seed, n);
            prop_assert_eq!(p.len(), n);
            let mut sorted = p.clone();
            sorted.sort_unstable();
            for (i, v) in sorted.into_iter().enumerate() {
                prop_assert_eq!(i as u64, v);
            }
        }

        #[test]
        fn shuffle_preserves_multiset(seed in any::<u64>(), mut data in proptest::collection::vec(any::<u32>(), 0..200)) {
            let mut rng = crate::rng_from_seed(seed);
            let mut original = data.clone();
            shuffle_in_place(&mut rng, &mut data);
            original.sort_unstable();
            data.sort_unstable();
            prop_assert_eq!(original, data);
        }
    }
}
