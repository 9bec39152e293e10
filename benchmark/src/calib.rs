//! The host-speed calibration loop.
//!
//! The shared host this benchmark runs on drifts: the same binary has
//! taken 12.5 s and then 30.6 s for paper-scale EM3D-SM ten minutes
//! apart. One unit of this loop is a fixed amount of host work, timed
//! around every measured run so wall times can be rescaled to a quiet
//! host. It mixes, in about equal time, the kinds of work the
//! simulator's hot paths do: pointer chases through a table larger than
//! the L2 and through one within it, binary-heap churn, and a dependent
//! chain of `f64` `ln` and divides. Measured on the reference host, an
//! even mix tracks the workloads' slowdowns better than any one part.
//!
//! The work must never change: [`CALIB_REF_S`] is the time of one unit
//! on a quiet period, and rescaled times from before and after a change
//! to this file are not comparable.

use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Seconds one unit takes on the reference host in a quiet period (see
/// README.md, "Host noise").
pub const CALIB_REF_S: f64 = 0.20;

const FAR_SLOTS: usize = 1 << 21;
const FAR_STEPS: usize = 500_000;
const NEAR_SLOTS: usize = 1 << 16;
const NEAR_STEPS: usize = 10_000_000;
const HEAP_ITEMS: usize = 1 << 15;
const HEAP_ROUNDS: usize = 26;
const FLOAT_STEPS: usize = 6_000_000;

/// Times one calibration unit, in seconds.
pub fn unit() -> f64 {
    let t = Instant::now();
    black_box(work());
    t.elapsed().as_secs_f64()
}

/// Times `n` units and returns each.
pub fn units(n: usize) -> Vec<f64> {
    (0..n).map(|_| unit()).collect()
}

/// xorshift64*: a fixed sequence, independent of the host.
fn next_rand(state: &mut u64) -> u64 {
    *state ^= *state >> 12;
    *state ^= *state << 25;
    *state ^= *state >> 27;
    state.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

/// Follows `steps` links of one random cycle through `slots` slots
/// (Sattolo's shuffle), so every load depends on the one before.
fn chase(rng: &mut u64, slots: usize, steps: usize) -> u32 {
    let mut next: Vec<u32> = (0..slots as u32).collect();
    for i in (1..slots).rev() {
        let j = (next_rand(rng) % i as u64) as usize;
        next.swap(i, j);
    }
    let mut p = 0u32;
    for _ in 0..steps {
        p = next[p as usize];
    }
    p
}

#[inline(never)]
fn work() -> u64 {
    let mut rng = 0x9e37_79b9_7f4a_7c15u64;
    let far = chase(&mut rng, FAR_SLOTS, FAR_STEPS);
    let near = chase(&mut rng, NEAR_SLOTS, NEAR_STEPS);

    let mut heap = BinaryHeap::with_capacity(HEAP_ITEMS);
    let mut acc = 0u64;
    for _ in 0..HEAP_ROUNDS {
        for _ in 0..HEAP_ITEMS {
            heap.push(next_rand(&mut rng));
        }
        while let Some(x) = heap.pop() {
            acc = acc.rotate_left(5) ^ x;
        }
    }

    let mut s = 0.0f64;
    for i in 0..FLOAT_STEPS {
        s += (1.5 + i as f64).ln() / (1.0 + s.abs());
    }
    u64::from(far) ^ u64::from(near) ^ acc ^ s.to_bits()
}
