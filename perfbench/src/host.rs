//! The host's speed, sampled through the timed phase.
//!
//! The benchmark shares a machine whose speed drifts by tens of percent
//! over seconds to minutes, and everything on the VM slows down
//! together. A fixed reference computation, run between ops once every
//! [`INTERVAL_S`] of the phase, measures that drift: each sample is
//! weighted by the stretch of the phase it follows, so the weighted mean
//! is the host's speed over the ops' own time. CPU-bound timings are
//! reported scaled to the speed at which one sample takes
//! [`REF_SAMPLE_S`]. The reference is this file's code and the standard
//! library only, so a change to the program under test cannot move it.

use std::hint::black_box;
use std::time::Instant;

/// Phase time between two samples, seconds.
pub const INTERVAL_S: f64 = 0.05;

/// Time of one sample at the reference speed, seconds: about what it
/// takes on an idle core of the 2-vCPU Intel Xeon VM the benchmark was
/// sized on.
pub const REF_SAMPLE_S: f64 = 0.001;

/// `u64` words in the sample's buffer (8 MiB, more than a core's
/// private caches hold).
const BUF_WORDS: usize = 1 << 20;

/// Next value of a xorshift64 generator.
fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// One sample's work: random read-modify-writes over an 8 MiB buffer
/// (shared cache and memory), a sort of 4096 random words (branches),
/// then a churn of 3000 small vectors of random lengths (allocator).
fn reference(buf: &mut [u64], seed: u64) -> u64 {
    let mask = buf.len() - 1;
    let mut x = seed | 1;
    for _ in 0..60_000 {
        let i = (xorshift(&mut x) as usize) & mask;
        buf[i] = buf[i].wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ x;
    }
    let mut v: Vec<u64> = (0..4096u64).map(|k| xorshift(&mut x) ^ k).collect();
    v.sort_unstable();
    let mut vs: Vec<Vec<u64>> = Vec::new();
    for i in 0..3000 {
        let r = xorshift(&mut x);
        vs.push(vec![r; (r % 64) as usize + 1]);
        if i % 3 == 0 {
            vs.swap_remove((r as usize) % vs.len());
        }
    }
    v[v.len() / 2] ^ vs.iter().map(|w| w[0]).fold(0, u64::wrapping_add)
}

/// Time-weighted host speed samples of one timed phase.
pub struct HostSpeed {
    buf: Vec<u64>,
    seed: u64,
    last: Instant,
    weighted_s: f64,
    weight_s: f64,
    spent_s: f64,
    samples: usize,
}

impl HostSpeed {
    /// Starts sampling; the first sample covers the phase from now. One
    /// untimed sample first touches the buffer's pages.
    #[must_use]
    pub fn start() -> Self {
        let mut buf = vec![1; BUF_WORDS];
        black_box(reference(&mut buf, 0));
        HostSpeed {
            buf,
            seed: 1,
            last: Instant::now(),
            weighted_s: 0.0,
            weight_s: 0.0,
            spent_s: 0.0,
            samples: 0,
        }
    }

    /// Takes a sample when [`INTERVAL_S`] has passed since the last one.
    /// Call it between ops.
    pub fn tick(&mut self) {
        if self.last.elapsed().as_secs_f64() >= INTERVAL_S {
            self.sample();
        }
    }

    /// Takes a sample covering the phase since the last one; call it
    /// once the phase has ended.
    pub fn finish(&mut self) {
        self.sample();
    }

    /// Runs the reference twice and times the second run: the first
    /// brings the buffer back into the caches the preceding ops used, so
    /// what an op leaves behind in them does not reach the sample.
    fn sample(&mut self) {
        let covered_s = self.last.elapsed().as_secs_f64();
        let began = Instant::now();
        black_box(reference(&mut self.buf, self.seed));
        let t0 = Instant::now();
        black_box(reference(&mut self.buf, self.seed + 1));
        let took_s = t0.elapsed().as_secs_f64();
        self.seed += 2;
        self.weighted_s += covered_s * took_s;
        self.weight_s += covered_s;
        self.spent_s += began.elapsed().as_secs_f64();
        self.samples += 1;
        self.last = Instant::now();
    }

    /// How much slower than the reference speed the host ran: the
    /// weighted mean sample time over [`REF_SAMPLE_S`].
    #[must_use]
    pub fn slowdown(&self) -> f64 {
        if self.weight_s > 0.0 {
            self.weighted_s / self.weight_s / REF_SAMPLE_S
        } else {
            1.0
        }
    }

    /// Wall time spent sampling, seconds; the phase leaves it out.
    #[must_use]
    pub fn spent_s(&self) -> f64 {
        self.spent_s
    }

    /// Samples taken.
    #[must_use]
    pub fn samples(&self) -> usize {
        self.samples
    }
}
