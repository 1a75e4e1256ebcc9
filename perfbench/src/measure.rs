//! Measurement helpers shared by every workload: seeded input
//! generation, percentiles, and process memory.

use std::time::Instant;

/// SplitMix64: a tiny seeded generator, so a workload's inputs are a
/// pure function of `--seed` and a stream number.
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniformly shuffled `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i + 1));
        }
        v
    }
}

/// The seed of sub-run `k` of benchmark seed `seed`: it seeds that
/// sub-run's image (`WorkloadConfig.seed`) and its op schedule.
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    Rng::new(seed, 0x1a6e_0000 + k).next_u64()
}

/// The image of sub-run `k`: the paper's dials
/// (`WorkloadConfig::default()`) with the sub-run's seed.
pub fn image(seed: u64, k: u64) -> ksim::workload::WorkloadConfig {
    ksim::workload::WorkloadConfig {
        seed: sub_seed(seed, k),
        ..Default::default()
    }
}

/// Nanoseconds elapsed since `t` on the wall clock.
pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// The clock every timed figure is read on: the CPU time of the threads
/// that do a workload's work, summed. It runs only while those threads
/// run, so time the host or another process takes the CPU away (steal
/// time, which Linux leaves out of a thread's CPU time, and preemption)
/// and time a thread sleeps waiting for another does not count; a busy
/// host slows the figures only through shared caches and memory.
#[derive(Clone, Copy)]
pub struct CpuClock {
    ids: [i32; 3],
    n: usize,
}

#[cfg(not(target_os = "linux"))]
compile_error!("perfbench reads Linux CPU clocks and /proc/self/status");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn pthread_getcpuclockid(thread: std::os::unix::thread::RawPthread, clock: *mut i32) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` from `time.h`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

impl CpuClock {
    /// The calling thread's CPU time. Read it only on the thread that
    /// reads it first: the id names whichever thread asks.
    pub const THREAD: CpuClock = CpuClock {
        ids: [CLOCK_THREAD_CPUTIME_ID, 0, 0],
        n: 1,
    };

    /// This clock plus the CPU time of the thread behind `h`, from the
    /// thread's start. Read it only while that thread runs.
    pub fn with<T>(mut self, h: &std::thread::JoinHandle<T>) -> Result<CpuClock, String> {
        use std::os::unix::thread::JoinHandleExt;
        if self.n == self.ids.len() {
            return Err("a CPU clock sums at most three threads".into());
        }
        let mut id = 0;
        // SAFETY: `h` is joinable, so its pthread handle is valid; the
        // call writes one clock id.
        let rc = unsafe { pthread_getcpuclockid(h.as_pthread_t(), &mut id) };
        if rc != 0 {
            return Err(format!("pthread_getcpuclockid: error {rc}"));
        }
        self.ids[self.n] = id;
        self.n += 1;
        Ok(self)
    }

    /// The summed CPU time, in nanoseconds.
    pub fn now(&self) -> u64 {
        self.ids[..self.n]
            .iter()
            .map(|&id| {
                let mut ts = Timespec {
                    tv_sec: 0,
                    tv_nsec: 0,
                };
                // SAFETY: `ts` is a valid `struct timespec` to write.
                let rc = unsafe { clock_gettime(id, &mut ts) };
                assert_eq!(rc, 0, "clock_gettime on CPU clock {id} failed");
                ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
            })
            .sum()
    }

    /// Nanoseconds of CPU time since the reading `t`.
    pub fn since(&self, t: u64) -> u64 {
        self.now().saturating_sub(t)
    }
}

/// Run `f`; when `traced`, add the CPU time it took on `clock` to `acc`.
pub fn timed<T>(clock: &CpuClock, traced: bool, acc: &mut u64, f: impl FnOnce() -> T) -> T {
    if !traced {
        return f();
    }
    let t = clock.now();
    let v = f();
    *acc += clock.since(t);
    v
}

/// Nanoseconds as milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Half-width of the band [`quantile_ms`] averages over.
const BAND: f64 = 0.025;

/// The `p` quantile of unsorted nanosecond samples, in milliseconds:
/// the mean of the order statistics from `p - BAND` to `p + BAND`. Op
/// latencies come in steps (each figure has its own cost), and a single
/// order statistic near the edge of a step jumps from one step to the
/// next between runs; an average over a fixed band moves smoothly.
pub fn quantile_ms(samples: &[u64], p: f64) -> f64 {
    let n = samples.len();
    if n == 0 {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    let lo = (((p - BAND) * n as f64).floor().max(0.0) as usize).min(n - 1);
    let hi = (((p + BAND) * n as f64).ceil() as usize).clamp(lo + 1, n);
    ms(v[lo..hi].iter().sum()) / (hi - lo) as f64
}

/// Op-time figures of a timed run on the CPU clock, each the median
/// over the run's lives of `life` ops. Every life does the same work,
/// so the lives are samples of one quantity, and a stretch of host
/// load that slows a few lives drops out of the median.
pub struct OpTimes {
    /// Ops per second of system time (`sys_ns`: the op plus whatever
    /// the load generator does around it).
    pub ops_per_s: f64,
    /// Median op time (`op_ns`), in ms.
    pub p50_ms: f64,
    /// 90th-percentile op time, in ms.
    pub p90_ms: f64,
    /// Lives the medians are taken over.
    pub lives: usize,
}

impl OpTimes {
    /// Split the parallel per-op lists `op_ns` and `sys_ns` into whole
    /// lives of `life` ops (a remainder is left out).
    pub fn by_life(op_ns: &[u64], sys_ns: &[u64], life: usize) -> OpTimes {
        let ops: Vec<&[u64]> = op_ns.chunks_exact(life).collect();
        let rates: Vec<f64> = sys_ns
            .chunks_exact(life)
            .map(|s| ratio(life as f64, s.iter().sum::<u64>() as f64 / 1e9))
            .collect();
        let q = |p: f64| median(&ops.iter().map(|s| quantile_ms(s, p)).collect::<Vec<_>>());
        OpTimes {
            ops_per_s: median(&rates),
            p50_ms: q(0.50),
            p90_ms: q(0.90),
            lives: ops.len(),
        }
    }
}

/// Median of a list (0 when it is empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unparseable `{line}`"))?;
    Ok(kb / 1024.0)
}

/// Throughput over the first and the last quarter of every life of
/// `life` ops, pooled over the lives, in ops per second of CPU time: how
/// much the work a life piles up slows its later ops.
pub fn quarter_rates(op_ns: &[u64], life: usize) -> (f64, f64) {
    let q = (life / 4).max(1);
    let (mut first, mut last) = (0u64, 0u64);
    let mut n = 0;
    for l in op_ns.chunks_exact(life) {
        first += l[..q].iter().sum::<u64>();
        last += l[life - q..].iter().sum::<u64>();
        n += q;
    }
    let rate = |ns: u64| ratio(n as f64, ns as f64 / 1e9);
    (rate(first), rate(last))
}

/// A 64-bit digest of one output, so the timed loop can keep what it
/// produced and the reference session can check it after the loop.
pub fn digest(bytes: &str) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    bytes.hash(&mut h);
    h.finish()
}

/// First difference between two runs' deterministic counter records,
/// as a message naming the op.
pub fn first_drift(what: &str, a: &[Vec<u64>], b: &[Vec<u64>]) -> Option<String> {
    if a.len() != b.len() {
        return Some(format!("{what}: {} ops vs {} ops", a.len(), b.len()));
    }
    a.iter()
        .zip(b)
        .position(|(x, y)| x != y)
        .map(|i| format!("{what}: op {i} counters {:?} vs {:?}", a[i], b[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_seeded_and_complete() {
        let a = Rng::new(7, 1).permutation(21);
        let b = Rng::new(7, 1).permutation(21);
        let c = Rng::new(8, 1).permutation(21);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut s = a.clone();
        s.sort_unstable();
        assert_eq!(s, (0..21).collect::<Vec<_>>());
    }

    #[test]
    fn band_quantiles() {
        let v: Vec<u64> = (1..=100).map(|i| i * 1_000_000).collect();
        assert_eq!(quantile_ms(&v, 0.5), 50.5);
        assert_eq!(quantile_ms(&v, 0.9), 90.5);
        assert_eq!(quantile_ms(&[7_000_000; 40], 0.9), 7.0);
        assert_eq!(quantile_ms(&[3_000_000], 0.9), 3.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let ns: Vec<u64> = (1..=40).map(|i| i * 1_000_000).collect();
        let w = OpTimes::by_life(&ns, &[20_000_000; 40], 10);
        assert_eq!(w.lives, 4);
        assert_eq!(w.p50_ms, 20.5);
        assert_eq!(w.ops_per_s, 10.0 / 0.2);
    }

    #[test]
    fn quarters_pool_over_lives() {
        let ns: Vec<u64> = [1, 2, 2, 4, 1, 2, 2, 4, 9].map(|m| m * 1_000_000).into();
        assert_eq!(quarter_rates(&ns, 4), (1000.0, 250.0));
    }
}
