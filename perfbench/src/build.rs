//! `build`: offline construction up to a servable file.  Each op builds the
//! trinv+sylv repository for one (preset, locality) pair, compiles it,
//! validates it, and encodes and decodes the binary format.

use std::time::Instant;

use dla_core::machine::presets::{
    harpertown_mkl, harpertown_openblas, sandy_bridge_openblas, sandy_bridge_openblas_threaded,
};
use dla_core::machine::{Executor, SimExecutor};
use dla_core::model::{binfmt, CompiledRepository, RepositoryValidator};
use dla_core::modeler::{ModelingReport, Strategy};
use dla_core::predict::modelset::{
    build_repository, build_tasks, enumerate_build_tasks, workload_templates, ModelSetConfig,
    Workload,
};
use dla_core::{Locality, MachineConfig, ModelRepository};

use crate::checks;
use crate::rng::Rng;
use crate::stats::{metric, timed, Phase, Setups};
use crate::trace::{self, TimedExecutor};
use crate::{Args, Outcome};

/// Set-ups per untraced run: one before timing, the rest spread over the
/// timed phase.
const SETUPS: usize = 11;
const WORKLOADS: [Workload; 2] = [Workload::Trinv, Workload::Sylv];
/// Held-out points per submodel for the fit check, and measurements per
/// point.
const HELD_OUT_POINTS: usize = 8;
const HELD_OUT_REPS: usize = 5;

/// The rotation: five (preset, locality) pairs, one op each per round.
fn pairs() -> Vec<(MachineConfig, Locality)> {
    vec![
        (harpertown_openblas(), Locality::InCache),
        (harpertown_openblas(), Locality::OutOfCache),
        (sandy_bridge_openblas(), Locality::InCache),
        (sandy_bridge_openblas_threaded(), Locality::InCache),
        (harpertown_mkl(), Locality::InCache),
    ]
}

fn model_config() -> ModelSetConfig {
    ModelSetConfig::default().with_workers(crate::WORKERS)
}

/// The sampling-noise seed of pair `index`: from `--seed`, and the same in
/// every round, so every round rebuilds the same repositories.
fn build_seed(seed: u64, index: usize) -> u64 {
    let mut rng = Rng::new(seed ^ (index as u64).wrapping_mul(0x9e37_79b9));
    rng.next_u64()
}

struct Built {
    bytes: Vec<u8>,
    decoded: CompiledRepository,
    reports: Vec<ModelingReport>,
}

fn finish(repo: ModelRepository, reports: Vec<ModelingReport>) -> Result<Built, String> {
    let compiled = trace::span("model.compile", true, || CompiledRepository::compile(repo));
    trace::span("model.validate", true, || {
        RepositoryValidator::new().validate(compiled.source())
    })
    .map_err(|e| format!("validation failed: {e}"))?;
    let bytes = trace::span("model.binfmt_encode", true, || binfmt::encode(&compiled))
        .map_err(|e| format!("encode failed: {e}"))?;
    let decoded = trace::span("model.binfmt_decode", true, || binfmt::decode(&bytes))
        .map_err(|e| format!("decode failed: {e}"))?;
    Ok(Built {
        bytes,
        decoded,
        reports,
    })
}

/// One op, as a user runs it.
fn build_op(machine: &MachineConfig, locality: Locality, seed: u64) -> Result<Built, String> {
    let (repo, reports) = build_repository(machine, locality, seed, &model_config(), &WORKLOADS);
    finish(repo, reports)
}

/// The same op with the executor behind a timing wrapper: `build_repository`
/// is exactly `enumerate_build_tasks` + `build_tasks` over a `SimExecutor`.
fn build_op_traced(
    machine: &MachineConfig,
    locality: Locality,
    seed: u64,
) -> Result<Built, String> {
    let config = model_config();
    let (repo, reports) = trace::span("modeler.build", true, || {
        let executor = TimedExecutor(SimExecutor::new(machine.clone(), seed));
        let tasks = enumerate_build_tasks(&WORKLOADS, &config);
        build_tasks(&executor, locality, &config, &tasks)
    });
    finish(repo, reports)
}

fn error_bound(strategy: &Strategy) -> f64 {
    match strategy {
        Strategy::Refinement(c) => c.error_bound,
        Strategy::Expansion(c) => c.error_bound,
    }
}

/// The fit check: random held-out points in every submodel's space,
/// measured by a differently seeded executor, against the model's median.
fn check_fit(
    repo: &ModelRepository,
    machine: &MachineConfig,
    locality: Locality,
    seed: u64,
) -> Result<f64, String> {
    let config = model_config();
    let templates: Vec<_> = WORKLOADS
        .iter()
        .flat_map(|&w| workload_templates(w, &config))
        .flat_map(|(calls, _)| calls)
        .collect();
    let mut executor = SimExecutor::new(machine.clone(), seed ^ 0x4e1d_0007);
    let mut rng = Rng::new(seed);
    let mut errors = Vec::new();
    for (_, model) in repo.iter() {
        for (flags, sub) in &model.submodels {
            let template = templates
                .iter()
                .find(|t| {
                    t.routine() == model.routine && dla_core::model::submodel_key(t) == *flags
                })
                .ok_or_else(|| format!("no template for {} flags {flags:?}", model.routine))?;
            for _ in 0..HELD_OUT_POINTS {
                let point: Vec<usize> = sub
                    .space
                    .lo()
                    .iter()
                    .zip(sub.space.hi())
                    .map(|(&lo, &hi)| lo + rng.below(hi - lo + 1))
                    .collect();
                let call = template.with_sizes(&point);
                let mut ticks: Vec<f64> = (0..HELD_OUT_REPS)
                    .map(|_| executor.execute(&call, locality).ticks)
                    .collect();
                ticks.sort_by(f64::total_cmp);
                let truth = ticks[HELD_OUT_REPS / 2];
                let predicted = model
                    .estimate(&call)
                    .map_err(|e| format!("held-out estimate failed: {e}"))?
                    .median;
                errors.push((predicted - truth).abs() / truth);
            }
        }
    }
    errors.sort_by(f64::total_cmp);
    let median = errors[errors.len() / 2];
    checks::check_fit(
        &format!("{} {locality}", machine.id()),
        median,
        error_bound(&config.strategy),
    )?;
    Ok(median)
}

pub fn run(args: &Args) -> Outcome {
    let pairs = pairs();
    let seeds: Vec<u64> = (0..pairs.len()).map(|i| build_seed(args.seed, i)).collect();
    let mut out = Outcome::default();

    // Set-up: the cold first build of the rotation's first pair, up to a
    // servable (compiled, validated) repository.
    let setup = || build_op(&pairs[0].0, pairs[0].1, seeds[0]);
    let (first, first_setup) = timed(setup);
    if let Err(e) = first {
        out.violation(format!("set-up build: {e}"));
        return out;
    }

    // Warm-up round, untimed: full checks once per pair.  Timed rounds must
    // rebuild these exact bytes.
    let mut expected: Vec<Vec<u8>> = Vec::new();
    for (i, (machine, locality)) in pairs.iter().enumerate() {
        match build_op(machine, *locality, seeds[i]) {
            Ok(built) => {
                match binfmt::encode(&built.decoded) {
                    Ok(again) => out.check(checks::check_roundtrip(
                        &format!("{} {locality}", machine.id()),
                        &built.bytes,
                        &again,
                    )),
                    Err(e) => out.violation(format!("re-encode failed: {e}")),
                }
                match check_fit(built.decoded.source(), machine, *locality, seeds[i]) {
                    Ok(median) => eprintln!(
                        "{} {locality}: {} bytes, held-out median relative error {median:.4}",
                        machine.id(),
                        built.bytes.len()
                    ),
                    Err(e) => out.violation(e),
                }
                expected.push(built.bytes);
            }
            Err(e) => {
                out.violation(format!("warm-up build: {e}"));
                expected.push(Vec::new());
            }
        }
    }

    let mut rng = Rng::new(args.seed);
    let mut order: Vec<usize> = (0..pairs.len()).collect();
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let spread = if args.trace { 0 } else { SETUPS - 1 };
    let mut setups = Setups::new(vec![first_setup], spread, seconds);
    let mut phases = Vec::new();
    for traced in [false, true] {
        if traced && !args.trace {
            break;
        }
        trace::set_enabled(traced);
        let mut phase = Phase::start(seconds);
        let (mut samples, mut regions, mut bytes) = (0u64, 0u64, 0u64);
        loop {
            rng.shuffle(&mut order);
            for &i in &order {
                let (machine, locality) = &pairs[i];
                let t = Instant::now();
                let built = trace::span("op", true, || {
                    if traced {
                        build_op_traced(machine, *locality, seeds[i])
                    } else {
                        build_op(machine, *locality, seeds[i])
                    }
                });
                phase.record(t.elapsed().as_nanos() as u64);
                out.attempted += 1;
                match built {
                    Ok(b) => {
                        if b.bytes != expected[i] {
                            out.violation(format!(
                                "{} {locality}: rebuilt repository differs from the checked one",
                                machine.id()
                            ));
                        }
                        samples += b.reports.iter().map(|r| r.samples as u64).sum::<u64>();
                        regions += b.reports.iter().map(|r| r.regions as u64).sum::<u64>();
                        bytes += b.bytes.len() as u64;
                    }
                    Err(e) => {
                        eprintln!("error: {e}");
                        out.fail("error");
                    }
                }
            }
            if phase.end_round() {
                break;
            }
            setups.between_rounds(&mut phase, setup);
        }
        trace::set_enabled(false);
        phases.push((phase.finish(), samples, regions, bytes));
    }
    if !args.trace {
        eprintln!("set-up times (s): {:?}", setups.times);
        out.metrics = phases[0].0.end_to_end(&setups.times);
        return out;
    }

    let (traced, samples, regions, bytes) = &phases[1];
    let snap = trace::snapshot();
    let ops = traced.ops() as f64;
    let ms = |ns: u64| ns as f64 / 1e6 / ops;
    let layers = [
        ("machine.execute", snap.layer("machine.execute").total_ns),
        ("modeler.build (self)", snap.layer("modeler.build").self_ns),
        ("model.compile", snap.layer("model.compile").total_ns),
        ("model.validate", snap.layer("model.validate").total_ns),
        (
            "model.binfmt_encode",
            snap.layer("model.binfmt_encode").total_ns,
        ),
        (
            "model.binfmt_decode",
            snap.layer("model.binfmt_decode").total_ns,
        ),
        ("tracing bookkeeping", snap.bookkeeping_ns),
    ];
    let op_ns = snap.layer("op").total_ns;
    let layer_ns: u64 = layers.iter().map(|l| l.1).sum();
    let remainder_ns = op_ns as f64 - layer_ns as f64;
    eprintln!(
        "traced op {:.2} ms = {} + remainder {:.3}",
        ms(op_ns),
        layers
            .iter()
            .map(|(n, v)| format!("{n} {:.3}", ms(*v)))
            .collect::<Vec<_>>()
            .join(" + "),
        remainder_ns / 1e6 / ops
    );
    match trace::write_spans(&crate::spans_path(args)) {
        Ok(n) => eprintln!("{n} spans written to {}", crate::spans_path(args).display()),
        Err(e) => eprintln!("spans not written: {e}"),
    }
    out.metrics = vec![
        metric("machine.execute_ms", "ms", ms(layers[0].1)),
        metric(
            "machine.measurements",
            "count",
            snap.count("machine.measurements") as f64 / ops,
        ),
        metric("modeler.build_ms", "ms", ms(layers[1].1)),
        metric("modeler.samples", "count", *samples as f64 / ops),
        metric("modeler.regions", "count", *regions as f64 / ops),
        metric("model.compile_ms", "ms", ms(layers[2].1)),
        metric("model.validate_ms", "ms", ms(layers[3].1)),
        metric("model.binfmt_encode_ms", "ms", ms(layers[4].1)),
        metric("model.binfmt_decode_ms", "ms", ms(layers[5].1)),
        metric("model.binary_bytes", "bytes", *bytes as f64 / ops),
        metric("trace.remainder_us", "us", remainder_ns / 1e3 / ops),
        metric(
            "trace.overhead_pct",
            "%",
            100.0 * (traced.mean_ns() / phases[0].0.mean_ns() - 1.0),
        ),
    ];
    out
}
