//! Small helpers: order statistics, process-level measurements, a seeded
//! generator and the result line.

use std::fmt::Write as _;

/// Median of `v` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` in [0, 1] of `v`; 0 when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(v: &[f64]) -> f64 {
    ratio(v.iter().sum(), v.len() as f64)
}

/// Geometric mean of positive values; 0 when empty.
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    (v.iter().map(|x| x.max(1e-9).ln()).sum::<f64>() / v.len() as f64).exp()
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Whole-process CPU time (user + system, every thread: query threads,
/// scan producers, Page Store workers, server sessions and clients) in
/// seconds.
pub fn process_cpu_s() -> f64 {
    /// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
    const CLOCK_PROCESS_CPUTIME_ID: libc::clockid_t = 2;
    let mut ts = libc::timespec::default();
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call, and the clock id names a clock every Linux kernel provides.
    let rc = unsafe { libc::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Cumulative steal ticks of the machine: time the hypervisor ran other
/// guests while this one wanted a CPU (the eighth counter of the `cpu`
/// line of `/proc/stat`); 0 where the kernel does not report it.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().next()?;
            line.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// The samples no steal touched, when at least two are left; otherwise
/// all of them. A sample taken while the hypervisor held a CPU back
/// measures the neighbours as much as the program.
pub fn unstolen<T: Clone>(samples: &[T], stolen: impl Fn(&T) -> bool) -> Vec<T> {
    let clean: Vec<T> = samples.iter().filter(|s| !stolen(s)).cloned().collect();
    if clean.len() >= 2 {
        clean
    } else {
        samples.to_vec()
    }
}

/// Peak resident set size of this process (VmHWM) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status")
        / 1024.0
}

/// SplitMix64: the benchmark's only source of randomness, so one seed
/// always gives the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The result line: one JSON object, the last line of standard output.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, mt) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // NaN/inf are not JSON; report them as 0 so the line stays valid.
        let v = if mt.value.is_finite() { mt.value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            mt.name, mt.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 1.0), 5.0);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn unstolen_keeps_clean_samples_unless_too_few() {
        let v = [(1, false), (2, true), (3, false)];
        assert_eq!(unstolen(&v, |s| s.1), vec![(1, false), (3, false)]);
        let w = [(1, false), (2, true)];
        assert_eq!(unstolen(&w, |s| s.1), w.to_vec());
    }

    #[test]
    fn rng_repeats_per_seed() {
        let a: Vec<u64> = (0..4)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..4)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..4)
            .scan(Rng::new(8), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_json(true, 3, 0, &[m("a_ms", 1.5, "ms"), m("b", 2.0, "count")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a_ms\": \
             {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 2.0, \"unit\": \"count\"}}}"
        );
    }
}
