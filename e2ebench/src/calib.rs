//! Host-speed calibration.
//!
//! The benchmark shares a few cores of a host whose speed drifts with its
//! co-tenants: the same sweep took 3.5 s in one quarter of an hour and
//! 6.2 s in another, and a serve trace 0.55 s in one run and 0.79 s in the
//! next. Such drift is far beyond any bound a change is judged by. So
//! before every timed sample, and once after the last, a run times a
//! fixed reference kernel of this package (the same code in every
//! checkout, untouched by any change to the program), and scales each
//! sample to the kernel's nominal time:
//!
//! ```text
//! scaled = raw × NOMINAL_S / median(kernel times just before and just after the sample)
//! ```
//!
//! A change to the program moves the scaled figure as it moves the raw
//! one; the host's phase moves both the sample and the kernel beside it,
//! and cancels. The raw figures and the kernel's own time are printed
//! beside the scaled ones.

use crate::util::median;
use crate::Report;
use std::hint::black_box;
use std::time::Instant;

/// Kernel time taken as the reference speed: about its time on a
/// quiet 2-vCPU host, so scaled figures read close to raw ones there.
pub const NOMINAL_S: f64 = 0.045;

/// Words in the kernel's table (256 KB), which stays in a core's cache
/// as the learner's subset bitsets do.
const TABLE_WORDS: usize = 1 << 15;
/// Words per block: a 2,000-row subset bitset.
const BLOCK: usize = 32;
/// Chunks of the kernel, each a chain of dependent steps.
const CHUNKS: u64 = 32;
/// Dependent steps per chunk.
const STEPS: usize = 6_000;

pub struct Calib {
    table: Vec<u64>,
    /// The kernel's checksum, the same on every run of it.
    sum: Option<u64>,
    /// Kernel times in seconds, one group before each sample and one
    /// after the last.
    groups: Vec<Vec<f64>>,
}

impl Calib {
    /// Builds the table and warms the kernel once, untimed.
    pub fn new() -> Calib {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let table = (0..TABLE_WORDS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        let mut c = Calib {
            table,
            sum: None,
            groups: Vec::new(),
        };
        c.tick();
        c
    }

    /// Times one run of the kernel on this thread. One thread, not one
    /// per core: a kernel that spawns threads onto an idle vCPU also
    /// times the host's wake-up of that vCPU, which slowed it 1.6× in
    /// phases that slowed the 2-thread mnist sweep, whose threads stay
    /// busy, by 1.1×.
    fn tick(&mut self) -> f64 {
        let t0 = Instant::now();
        let sum = (0..CHUNKS).fold(0u64, |acc, c| acc.wrapping_add(chunk(&self.table, c)));
        let secs = t0.elapsed().as_secs_f64();
        let sum = black_box(sum);
        assert_eq!(
            *self.sum.get_or_insert(sum),
            sum,
            "calibration kernel is not deterministic"
        );
        secs
    }

    /// Runs the kernel `n` times in a row, then `f`, one timed sample.
    /// Samples are numbered from 0 in the order they are taken.
    pub fn sample<R>(&mut self, n: usize, f: impl FnOnce() -> R) -> R {
        self.ticks(n);
        f()
    }

    /// Runs the kernel `n` times after the last sample.
    pub fn finish(&mut self, n: usize) {
        self.ticks(n);
    }

    fn ticks(&mut self, n: usize) {
        let g = (0..n).map(|_| self.tick()).collect();
        self.groups.push(g);
    }

    /// The factor that scales sample `i` to the nominal host speed, from
    /// the kernel times just before and just after it.
    fn factor(&self, i: usize) -> Option<f64> {
        let near: Vec<f64> = self.groups.get(i..i + 2)?.concat();
        median(&near).map(|t| NOMINAL_S / t)
    }

    /// Puts `setup_s` and `wall_s`, the medians of the samples
    /// `(index, raw seconds)` each scaled to the nominal host speed, and
    /// prints the raw medians and the kernel's median time beside them.
    pub fn report(&self, rep: &mut Report, setups: &[(usize, f64)], walls: &[(usize, f64)]) {
        eprintln!("# calibration kernel (s), by sample: {:?}", self.groups);
        let scaled = |v: &[(usize, f64)]| {
            let s: Option<Vec<f64>> = v.iter().map(|&(i, t)| Some(t * self.factor(i)?)).collect();
            median(&s?)
        };
        let raw = |v: &[(usize, f64)]| median(&v.iter().map(|p| p.1).collect::<Vec<_>>());
        rep.put("setup_s", scaled(setups));
        rep.put("wall_s", scaled(walls));
        rep.extra("setup_raw_s", "s", raw(setups));
        rep.extra("wall_raw_s", "s", raw(walls));
        rep.extra(
            "calib_ms",
            "ms",
            median(&self.groups.concat()).map(|t| t * 1e3),
        );
    }
}

/// One chunk: a chain of dependent steps, each AND-ing one 32-word block
/// of the table with four others and popcounting the results, like the
/// learner's subset kernels. Its checksum depends only on `c`.
fn chunk(table: &[u64], c: u64) -> u64 {
    let blocks = (table.len() / BLOCK) as u64;
    let mut x = c.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut acc = 0u64;
    for _ in 0..STEPS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(acc | 1);
        let a = &table[((x >> 11) % blocks) as usize * BLOCK..][..BLOCK];
        for k in 0..4 {
            let b = ((x >> (20 + 8 * k)) % blocks) as usize * BLOCK;
            let pop: u32 = a
                .iter()
                .zip(&table[b..b + BLOCK])
                .map(|(p, q)| (p & q).count_ones())
                .sum();
            acc = acc.wrapping_add(pop as u64);
        }
    }
    acc
}
