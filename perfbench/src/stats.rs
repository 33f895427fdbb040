//! Timing, process counters and the end-to-end metric set shared by every
//! workload.

use std::time::Instant;

/// One reported metric: name, unit and value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Nearest-rank quantile of an ascending slice (`0 < p <= 1`).
pub fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Process user+sys CPU seconds from `/proc/self/stat` (fields 14 and 15,
/// in the kernel's fixed 100 Hz user tick).
pub fn process_cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // The command name (field 2) may contain spaces; fields restart after ')'.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return f64::NAN;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3, so utime (14) and stime (15) sit at 11 and 12.
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (tick(11), tick(12)) {
        (Some(u), Some(s)) => (u + s) / 100.0,
        _ => f64::NAN,
    }
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// The host fingerprint printed with every run: CPU model, the SIMD feature
/// flags the kernels could use, `nproc` and the build profile.
pub fn host_fingerprint() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map(str::trim)
        .unwrap_or("unknown");
    let flags_line = cpuinfo
        .lines()
        .find(|l| l.starts_with("flags"))
        .unwrap_or("");
    let wanted = ["sse4_2", "avx", "avx2", "fma", "avx512f"];
    let flags: Vec<&str> = wanted
        .iter()
        .copied()
        .filter(|f| flags_line.split_whitespace().any(|x| x == *f))
        .collect();
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "host: cpu=\"{model}\" flags={} nproc={} profile={profile}",
        flags.join(","),
        nproc()
    )
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The timed phase of a run: per-op latencies, the busy time they add up
/// to, and the process CPU time spent over the whole phase.
pub struct Phase {
    started: Instant,
    cpu_start: f64,
    /// Process CPU time spent between rounds on work that is not an op.
    cpu_outside: f64,
    seconds: f64,
    latencies_ns: Vec<u64>,
}

impl Phase {
    pub fn start(seconds: f64) -> Phase {
        Phase {
            started: Instant::now(),
            cpu_start: process_cpu_seconds(),
            cpu_outside: 0.0,
            seconds,
            latencies_ns: Vec::new(),
        }
    }

    /// Closes a round; returns whether the run's measuring time is used up
    /// (runs stop only between whole rounds).
    pub fn end_round(&mut self) -> bool {
        self.started.elapsed().as_secs_f64() >= self.seconds
    }

    /// Records an op timed by the caller.
    pub fn record(&mut self, ns: u64) {
        self.latencies_ns.push(ns);
    }

    /// Runs `f` between rounds, outside the ops: its process CPU time is not
    /// charged to them.
    pub fn outside<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let cpu = process_cpu_seconds();
        let r = f();
        self.cpu_outside += process_cpu_seconds() - cpu;
        r
    }

    pub fn finish(self) -> PhaseResult {
        let cpu_s = process_cpu_seconds() - self.cpu_start - self.cpu_outside;
        let mut lat: Vec<f64> = self.latencies_ns.iter().map(|&ns| ns as f64).collect();
        let busy_ns: f64 = lat.iter().sum();
        lat.sort_by(f64::total_cmp);
        PhaseResult {
            sorted_ns: lat,
            busy_s: busy_ns * 1e-9,
            cpu_s,
            wall_s: self.started.elapsed().as_secs_f64(),
        }
    }
}

pub struct PhaseResult {
    pub sorted_ns: Vec<f64>,
    pub busy_s: f64,
    pub cpu_s: f64,
    pub wall_s: f64,
}

impl PhaseResult {
    pub fn ops(&self) -> usize {
        self.sorted_ns.len()
    }

    pub fn mean_ns(&self) -> f64 {
        self.busy_s * 1e9 / self.ops().max(1) as f64
    }

    /// The end-to-end metric set every workload reports.
    pub fn end_to_end(&self, setup_times: &[f64]) -> Vec<Metric> {
        let ops = self.ops() as f64;
        if self.ops() < 100 {
            eprintln!(
                "warning: {} ops leave fewer than ten beyond p90; lengthen the run",
                self.ops()
            );
        }
        eprintln!(
            "{} ops in {:.2} s busy ({:.2} s wall): {:.1} ops/s",
            self.ops(),
            self.busy_s,
            self.wall_s,
            ops / self.busy_s
        );
        vec![
            metric("setup_s", "s", median(setup_times)),
            metric("ops_per_s", "1/s", ops / self.busy_s),
            metric("p50_us", "us", quantile_sorted(&self.sorted_ns, 0.5) / 1e3),
            metric("p90_us", "us", quantile_sorted(&self.sorted_ns, 0.9) / 1e3),
            metric("cpu_us_per_op", "us", self.cpu_s * 1e6 / ops),
            metric("peak_rss_mb", "MB", peak_rss_mb()),
        ]
    }
}

/// Times one set-up.
pub fn timed<T>(setup: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let product = setup();
    (product, t.elapsed().as_secs_f64())
}

/// A run's set-up times.  Besides the set-ups made before the timed phase,
/// further ones run between its rounds, evenly over its measuring time, and
/// their products are dropped.  `setup_s` is the median of them all, so it
/// samples the host over the whole run, as the op metrics do, and not only
/// over its first moments: on a shared host the speed drifts over seconds.
pub struct Setups {
    pub times: Vec<f64>,
    spread: usize,
    done: usize,
    seconds: f64,
}

impl Setups {
    /// `times` from the set-ups already made; `spread` more to come over a
    /// phase of `seconds`.
    pub fn new(times: Vec<f64>, spread: usize, seconds: f64) -> Setups {
        Setups {
            times,
            spread,
            done: 0,
            seconds,
        }
    }

    /// At a round boundary: runs the next spread set-up once it is due.
    pub fn between_rounds<T>(&mut self, phase: &mut Phase, setup: impl FnOnce() -> T) {
        let next_at = self.seconds * (self.done + 1) as f64 / (self.spread + 1) as f64;
        if self.done < self.spread && phase.started.elapsed().as_secs_f64() >= next_at {
            let t = phase.outside(|| timed(|| drop(setup())).1);
            self.times.push(t);
            self.done += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50.0);
        assert_eq!(quantile_sorted(&v, 0.9), 90.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn proc_counters_read() {
        assert!(process_cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
