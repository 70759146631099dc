//! Small shared pieces: the seeded generator, timing helpers, `/proc`
//! readers and the error type every workload returns.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use cluster_sim::stats::{median, quantile};

/// A benchmark failure.  `Wrong` is an answer that failed its check (it
/// still produces a result line with `"correct": false`); `Setup` is
/// anything that prevents a measurement at all (missing binary, a server
/// that never comes up, too few samples) and produces no result line.
#[derive(Debug)]
pub enum Fail {
    Wrong(String),
    Setup(String),
}

pub type Res<T> = Result<T, Fail>;

/// Answers checked so far in this process, set-up checks included.  A
/// wrong answer's result line reports it as `attempted`.
static CHECKED: AtomicU64 = AtomicU64::new(0);

/// Counts one checked answer.
pub fn checked() {
    CHECKED.fetch_add(1, Ordering::Relaxed);
}

/// The answers checked so far (see `checked`).
pub fn checked_count() -> u64 {
    CHECKED.load(Ordering::Relaxed)
}

/// Shorthand for a set-up failure.
pub fn setup_err<T>(msg: impl Into<String>) -> Res<T> {
    Err(Fail::Setup(msg.into()))
}

/// Shorthand for a wrong answer.
pub fn wrong<T>(msg: impl Into<String>) -> Res<T> {
    Err(Fail::Wrong(msg.into()))
}

/// SplitMix64: the whole input stream of a run is a pure function of
/// `--seed`, independent of thread count and timing.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Seconds elapsed since `t`.
pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Times `f`, returning its result and the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, secs_since(t))
}

/// Median of a non-empty sample; an empty sample is a set-up failure, never
/// a silently skipped metric.
pub fn median_of(what: &str, values: &[f64]) -> Res<f64> {
    if values.is_empty() {
        return setup_err(format!("{what}: zero samples"));
    }
    Ok(median(values))
}

/// The 99th percentile, only when the sample has at least 1000 values, so
/// that at least ten samples lie beyond it.
pub fn p99_of(what: &str, values: &[f64]) -> Res<f64> {
    if values.len() < 1000 {
        return setup_err(format!(
            "{what}: {} samples are too few for a 99th percentile (need 1000)",
            values.len()
        ));
    }
    Ok(quantile(values, 0.99))
}

/// Reads a `kB` field of `/proc/<pid>/status` (for example `VmHWM`, the
/// peak resident set) in MiB.
pub fn proc_status_mb(pid: u32, field: &str) -> Res<f64> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path)
        .or_else(|e| setup_err(format!("cannot read {path}: {e}")))?;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix(field).and_then(|r| r.strip_prefix(':')) {
            let kb: f64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .or_else(|_| setup_err(format!("malformed {field} line in {path}: {line:?}")))?;
            return Ok(kb / 1024.0);
        }
    }
    setup_err(format!("{path} has no {field} field"))
}

/// Peak resident set of this process in MiB.
pub fn self_peak_rss_mb() -> Res<f64> {
    proc_status_mb(std::process::id(), "VmHWM")
}

/// The 1-minute load average (`/proc/loadavg`), or `-1` where it cannot
/// be read.
pub fn loadavg_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|x| x.parse().ok()))
        .unwrap_or(-1.0)
}

/// Replaces every `"cached":true` by `"cached":false`, so a response can be
/// compared with a reference captured while the entry was cold (or warm):
/// the cached flag is the only field that legitimately differs.
pub fn without_cached_flag(response: &str) -> std::borrow::Cow<'_, str> {
    if response.contains("\"cached\":true") {
        std::borrow::Cow::Owned(response.replace("\"cached\":true", "\"cached\":false"))
    } else {
        std::borrow::Cow::Borrowed(response)
    }
}

/// Checks a response against its reference, ignoring the cached flag.
pub fn check_same(what: &str, got: &str, reference: &str) -> Res<()> {
    checked();
    if got == reference || without_cached_flag(got) == without_cached_flag(reference) {
        return Ok(());
    }
    let cut = |s: &str| s.chars().take(300).collect::<String>();
    wrong(format!(
        "{what}: response differs from the in-process reference\n  got:      {}\n  expected: {}",
        cut(got),
        cut(reference)
    ))
}
