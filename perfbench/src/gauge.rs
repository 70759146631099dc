//! The host-speed gauge.
//!
//! The benchmark shares a few virtual cores with other tenants, and their
//! speed drifts: the same cold request took 12 s in one minute and 6 s a
//! few minutes later, and every CPU-bound timing moved with it.  A gauge
//! run is a fixed piece of work owned by the benchmark (fill a buffer from
//! a fixed generator, sort it, hash it), so it never changes with the
//! program under test.  It runs between the timed pieces of a workload,
//! never beside them, on as many threads as the workload computes on.
//! Every gated time is rescaled to the reference speed: a piece that took
//! `t` wall seconds while the gauge ran at `g` seconds per run reads
//! `t * REFERENCE_S / g`.  A program that gets faster reads faster by the
//! same factor, since the gauge does not change; a host that slows down
//! slows the gauge too.

use std::time::Instant;

use cluster_sim::stats::median;

/// Elements sorted by one gauge run (256 KiB of `u32`, so it stays in the
/// core's L2 cache and the gauge reads the cores, not the memory bus).
const GAUGE_LEN: usize = 1 << 16;

/// Gauge seconds per run at the reference speed, by thread count: the
/// medians measured on a 2-vCPU shared host.  A two-thread run is a
/// one-thread step followed by a two-thread step.
const REFERENCE_S: [f64; 2] = [1.9e-3, 4.4e-3];

/// Gauge time per sample: at least `MIN_S`, and at least `SHARE` of the
/// piece it rescales, so a long piece gets a longer look at the host.
const MIN_S: f64 = 0.02;
const SHARE: f64 = 0.1;

/// One gauge run on `buf`; returns a digest so the work cannot be elided.
fn run(buf: &mut [u32], round: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15 ^ round;
    for v in buf.iter_mut() {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        *v = (x >> 33) as u32;
    }
    buf.sort_unstable();
    buf.iter().fold(0xcbf2_9ce4_8422_2325, |h, &v| {
        (h ^ u64::from(v)).wrapping_mul(0x100_0000_01b3)
    })
}

/// A gauge on one or two threads, with its buffers made up front so that
/// sampling allocates nothing.
pub struct Gauge {
    bufs: Vec<Vec<u32>>,
    round: u64,
    digest: u64,
    /// Seconds of each run of the current sample.
    runs: Vec<f64>,
    /// Seconds per run of the latest sample.
    last: f64,
    /// Seconds per run of every sample taken, for the report.
    pub samples: Vec<f64>,
}

impl Gauge {
    /// `threads` is 1 or 2: the number of threads the gauged work computes
    /// on.
    pub fn new(threads: usize) -> Gauge {
        assert!(
            (1..=REFERENCE_S.len()).contains(&threads),
            "the gauge runs on 1 or 2 threads"
        );
        let mut g = Gauge {
            bufs: vec![vec![0; GAUGE_LEN]; threads],
            round: 0,
            digest: 0,
            runs: Vec::with_capacity(1024),
            last: 0.0,
            samples: Vec::new(),
        };
        // first touch and lazy thread start-up are not the host's speed; the
        // second sample is the one before the first timed piece
        g.sample(0.0);
        g.sample(0.0);
        g.samples.clear();
        g
    }

    fn reference(&self) -> f64 {
        REFERENCE_S[self.bufs.len() - 1]
    }

    /// Runs the gauge for at least `MIN_S` and `SHARE * piece_s` seconds;
    /// returns the median seconds per run, so that a run the scheduler
    /// preempted (or whose helper thread started late) does not count.
    pub fn sample(&mut self, piece_s: f64) -> f64 {
        let budget = MIN_S.max(SHARE * piece_s);
        let start = Instant::now();
        self.runs.clear();
        while self.runs.len() < 4 || start.elapsed().as_secs_f64() < budget {
            let run_start = Instant::now();
            let round = self.round;
            self.digest ^= match self.bufs.as_mut_slice() {
                [one] => run(one, round),
                // a sequential step, then a step split evenly over two
                // threads, as the mappers do: the split waits for the
                // slower core, the sequential step does not
                [a, b] => {
                    let x = run(a, round);
                    let (y, z) = rayon::join(|| run(a, round ^ 1), || run(b, round ^ 3));
                    x ^ y ^ z
                }
                _ => unreachable!("1 or 2 threads"),
            };
            self.round += 4;
            self.runs.push(run_start.elapsed().as_secs_f64());
        }
        let per_run = median(&self.runs);
        self.samples.push(per_run);
        self.last = per_run;
        per_run
    }

    /// `secs` of wall time, taken while the gauge read `per_run`, at the
    /// reference speed.
    pub fn rescale(&self, secs: f64, per_run: f64) -> f64 {
        secs * self.reference() / per_run
    }

    /// Times `f`, then gauges the host; returns `f`'s result with its wall
    /// seconds and its seconds at the reference speed, rescaled by the mean
    /// of the samples just before and just after it.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64, f64) {
        let before = self.last;
        let start = Instant::now();
        let out = f();
        let wall = start.elapsed().as_secs_f64();
        let after = self.sample(wall);
        (out, wall, self.rescale(wall, (before + after) / 2.0))
    }

    /// The digest of every run so far (printed, so no run is dead code).
    pub fn digest(&self) -> u64 {
        self.digest
    }
}
