//! Host-only software prefetch.
//!
//! The simulators spend much of their host time waiting on host memory:
//! directory words, cache-model sets and backing-store bytes are touched
//! at random node and block indices. Where an address is known well
//! before it is loaded, a prefetch hides part of that latency. It is a
//! hint to the host CPU only: it reads no value, writes nothing, and so
//! never changes a simulated event, cycle or counter.

/// Asks the host CPU to pull the cache line holding `value` into all
/// levels of its cache (`_MM_HINT_T0`). A no-op on targets other than
/// x86_64.
///
/// # Example
///
/// ```
/// let words = vec![7u64; 1024];
/// wwt_sim::prefetch(&words[900]);
/// assert_eq!(words[900], 7); // a hint only: nothing changes
/// ```
#[inline(always)]
pub fn prefetch<T>(value: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `value` is a live reference, and a prefetch neither faults
    // nor writes memory whatever its address.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>((value as *const T).cast::<i8>());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = value;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_changes_nothing() {
        let words: Vec<u64> = (0..4096).collect();
        for w in words.iter().step_by(61) {
            prefetch(w);
        }
        // The last element and a zero-sized value are valid references too.
        prefetch(words.last().expect("non-empty"));
        prefetch(&());
        assert!(words.iter().enumerate().all(|(i, &w)| w == i as u64));
    }
}
