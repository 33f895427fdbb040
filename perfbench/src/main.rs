//! `perfbench`: runs one named workload of the dlaperf stack from one
//! process and prints its metrics as one JSON line.
//!
//! ```text
//! perfbench --workload <tune|serve|build> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the JSON carries the end-to-end metrics; with
//! `--trace 1` it carries the per-layer breakdown, timed by wrappers around
//! the program's public seams (see `trace.rs`).  See README.md.

mod build;
mod checks;
mod rng;
mod serve;
mod stats;
mod trace;
mod tune;

use std::collections::BTreeMap;

use stats::Metric;

/// `BENCHMARK.json`'s per-layer metrics, `(name, unit)` in file order.  The
/// file is the one list of them: a traced run's result line carries each,
/// and a layer the workload does not exercise reads 0 (README.md maps the
/// layers to the workloads that exercise them).
fn per_layer_metrics() -> Vec<(&'static str, &'static str)> {
    const SPEC: &str = include_str!("../../BENCHMARK.json");
    let start = SPEC
        .find("\"per_layer\"")
        .expect("BENCHMARK.json lists per_layer");
    let list = &SPEC[start..];
    let list = &list[..list.find(']').expect("per_layer is a closed list")];
    let field = |entry: &'static str, key: &str| -> &'static str {
        let at = entry
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("a per_layer entry without {key}"));
        let value = &entry[at + key.len() + 2..];
        let value = &value[value.find('"').expect("a quoted value") + 1..];
        &value[..value.find('"').expect("a closed string")]
    };
    list.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Worker threads for every model construction: explicit, never the
/// program's `0 = all cores` default.  One worker keeps set-up times and
/// peak memory steady on a shared host and lets a build's layer times add up
/// to its wall time.
pub const WORKERS: usize = 1;

/// What a workload hands back.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Failed operations tallied by kind (error, shed, crossing,
    /// non-positive, proxy-bound).
    pub failures: BTreeMap<&'static str, u64>,
    /// Correctness-check violations; any makes the run incorrect.
    pub violations: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn fail(&mut self, kind: &'static str) {
        *self.failures.entry(kind).or_default() += 1;
    }

    pub fn violation(&mut self, message: String) {
        if self.violations.len() < 20 {
            eprintln!("check failed: {message}");
        }
        self.violations.push(message);
    }

    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(message) = result {
            self.violation(message);
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    eprintln!("{}", stats::host_fingerprint());
    eprintln!(
        "workload={} seed={} seconds={} trace={} workers={WORKERS}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let outcome = match args.workload.as_str() {
        "tune" => tune::run(&args),
        "serve" => serve::run(&args),
        "build" => build::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other} (tune, serve, build)");
            std::process::exit(2);
        }
    };

    let mut metrics: Vec<Metric> = Vec::new();
    if args.trace {
        let listed = per_layer_metrics();
        for m in &outcome.metrics {
            assert!(
                listed.contains(&(m.name, m.unit)),
                "{} ({}) is not a per_layer metric of BENCHMARK.json",
                m.name,
                m.unit
            );
        }
        let given: BTreeMap<&str, &Metric> = outcome.metrics.iter().map(|m| (m.name, m)).collect();
        for (name, unit) in listed {
            let value = given.get(name).map_or(0.0, |m| m.value);
            metrics.push(stats::metric(name, unit, value));
        }
    } else {
        metrics = outcome.metrics;
    }
    let failed: u64 = outcome.failures.values().sum();
    if !outcome.failures.is_empty() {
        eprintln!("failed operations by kind: {:?}", outcome.failures);
    }
    let correct = outcome.violations.is_empty();
    if !correct {
        eprintln!("{} correctness violations", outcome.violations.len());
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        body.join(", ")
    );
}

/// Where traced runs write their spans: under the build directory, which the
/// repository ignores.
pub fn spans_path(args: &Args) -> std::path::PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from(".bench_build"));
    dir.join("perfbench")
        .join(format!("spans-{}-{}.jsonl", args.workload, args.seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_metrics_come_from_benchmark_json() {
        let listed = per_layer_metrics();
        assert!(listed.len() > 20);
        assert_eq!(listed[0], ("algos.trace_us", "us"));
        assert!(listed.contains(&("model.binary_bytes", "bytes")));
        let mut names: Vec<_> = listed.iter().map(|m| m.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), listed.len(), "names are used once");
    }
}
