//! The host-speed reference: a fixed, allocation- and cache-heavy workload
//! timed beside every wall-clock measurement.
//!
//! On a shared host the same simulation can run 1.5–1.8× slower for tens of
//! seconds at a time, and the slowdown is in user time, not in stolen time
//! or page faults. Ordered-map churn, allocator churn and random updates
//! over a few MiB slow down with it, while an ALU-bound loop or a pointer
//! chase over a large buffer barely moves. The benchmark times this
//! reference right before and right after each measurement and reports
//! wall-clock metrics scaled to [`NOMINAL_S`], the reference's time at
//! nominal host speed: `value × NOMINAL_S ÷ reference time`. The reference is
//! fixed code of the benchmark, so any change to the simulator still moves
//! the scaled figures in full.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::time::Instant;

/// Seconds one reference block takes at nominal host speed (the lower
/// quartile of [`Reference::time_s`] on the 2-vCPU host `DESIGN.md`
/// describes).
pub const NOMINAL_S: f64 = 0.038;

/// One 64-byte record of the random-update part.
#[derive(Clone, Copy)]
struct Slot {
    a: u64,
    b: u64,
    c: [u32; 12],
}

/// Entries in the random-update table (4 MiB).
const SLOTS: usize = 1 << 16;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// The reference workload; owns the table it updates in place.
pub struct Reference {
    slots: Vec<Slot>,
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

impl Reference {
    /// Allocates the update table.
    #[must_use]
    pub fn new() -> Reference {
        let slots = (0..SLOTS as u64)
            .map(|i| Slot {
                a: i.wrapping_mul(2_654_435_761),
                b: i,
                c: [0; 12],
            })
            .collect();
        Reference { slots }
    }

    /// Runs the reference block three times and returns the median of its
    /// wall seconds, so that one interrupted block does not count. Every
    /// block does the same number of operations.
    pub fn time_s(&mut self) -> f64 {
        let mut times = [0.0; 3];
        for t in &mut times {
            let started = Instant::now();
            std::hint::black_box(ordered_map_churn(35_000, 100_000));
            std::hint::black_box(hash_map_churn(100_000, 100_000));
            std::hint::black_box(self.random_updates(350_000));
            std::hint::black_box(allocator_churn(70_000));
            *t = started.elapsed().as_secs_f64();
        }
        times.sort_by(f64::total_cmp);
        times[1]
    }

    fn random_updates(&mut self, n: usize) -> u64 {
        let mut s = 9u64;
        let mut acc = 0u64;
        for _ in 0..n {
            let e = &mut self.slots[(xorshift(&mut s) % SLOTS as u64) as usize];
            if e.a & 1 == 0 {
                e.b = e.b.wrapping_add(e.a);
                e.c[(e.b % 12) as usize] += 1;
            } else {
                e.a = e.a.wrapping_mul(3) ^ e.b;
            }
            acc = acc.wrapping_add(u64::from(e.c[(e.a % 12) as usize]));
        }
        acc
    }
}

fn ordered_map_churn(n: u64, keys: u64) -> usize {
    let mut s = 5u64;
    let mut m = BTreeMap::new();
    for i in 0..n {
        m.insert(xorshift(&mut s) % keys, i);
        m.remove(&(xorshift(&mut s) % keys));
    }
    m.len()
}

fn hash_map_churn(n: u64, keys: u64) -> usize {
    let mut s = 7u64;
    let mut m: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for i in 0..n {
        m.insert(xorshift(&mut s) % keys, i);
        if i % 3 == 0 {
            m.remove(&(xorshift(&mut s) % keys));
        }
    }
    m.len()
}

fn allocator_churn(n: usize) -> usize {
    let mut s = 11u64;
    let mut pool: Vec<Vec<u64>> = vec![Vec::new(); 4096];
    for _ in 0..n {
        let i = (xorshift(&mut s) % 4096) as usize;
        let len = (xorshift(&mut s) % 200) as usize;
        pool[i] = vec![i as u64; len];
    }
    pool.iter().map(Vec::len).sum()
}

/// `value` scaled to nominal host speed, given the reference times taken
/// right before and right after it was measured.
#[must_use]
pub fn at_nominal_speed(value: f64, reference_before_s: f64, reference_after_s: f64) -> f64 {
    value * NOMINAL_S / (0.5 * (reference_before_s + reference_after_s)).max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_repeats_its_work_and_scales_linearly() {
        let mut r = Reference::new();
        assert_eq!(ordered_map_churn(500, 100), ordered_map_churn(500, 100));
        assert_eq!(allocator_churn(300), allocator_churn(300));
        assert!(r.time_s() > 0.0);
        assert_eq!(at_nominal_speed(10.0, NOMINAL_S, NOMINAL_S), 10.0);
        assert!((at_nominal_speed(10.0, 2.0 * NOMINAL_S, 2.0 * NOMINAL_S) - 5.0).abs() < 1e-12);
    }
}
