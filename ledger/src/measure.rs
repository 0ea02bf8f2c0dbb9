//! Clock, statistics, memory and check bookkeeping shared by every
//! workload.

use dqec_obs::Clock;

/// Seconds since `t0_ns` on the workspace clock.
pub fn secs_since(t0_ns: u64) -> f64 {
    Clock::now_ns().saturating_sub(t0_ns) as f64 / 1e9
}

/// Runs `f` and returns its result with the elapsed seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Clock::now_ns();
    let r = f();
    (r, secs_since(t0))
}

/// Median of `xs` (mean of the middle pair for even lengths); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of `xs` by linear interpolation between order
/// statistics; 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// A `/proc/self/status` memory field (`VmHWM`, `VmRSS`) in MB; 0 when
/// unavailable.
fn status_mb(field: &str) -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM")
}

/// Current resident set of this process, in MB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS")
}

/// Tally of checked operations: every operation the benchmark runs is
/// attempted once, and fails when it errors or its output check does
/// not hold.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// When set, the next check is forced to fail (the smoke test's
    /// proof that a failing check is reported).
    pub sabotage: bool,
}

impl Checks {
    /// Records one operation whose output check is `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        let ok = ok && !std::mem::take(&mut self.sabotage);
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

/// Runs `unit` once untimed, so the worker pool, allocator and caches
/// are warm, then repeats it until `seconds` have elapsed and at least
/// `min_reps` timed repetitions ran. Returns each timed repetition's
/// wall time in seconds. `unit` receives the repetition index, 0 being
/// the warm-up.
pub fn repeat_for(seconds: f64, min_reps: usize, mut unit: impl FnMut(usize)) -> Vec<f64> {
    unit(0);
    let t0 = Clock::now_ns();
    let mut walls = Vec::new();
    while walls.len() < min_reps || secs_since(t0) < seconds {
        let ((), wall) = timed(|| unit(walls.len() + 1));
        walls.push(wall);
    }
    walls
}
