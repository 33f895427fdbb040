//! `tune`: ranking and block-size tuning requests through `Pipeline`, the
//! paper's user path (§IV), against a trinv+sylv repository built at set-up.

use std::time::Instant;

use dla_core::algos::{sylv_trace, trinv_trace};
use dla_core::blas::flops::trinv_useful_flops;
use dla_core::blas::Call;
use dla_core::machine::presets::harpertown_openblas;
use dla_core::predict::blocksize::optimize_block_size_trinv;
use dla_core::predict::modelset::{ModelSetConfig, Workload};
use dla_core::predict::workloads::{
    rank_sylv_variants, rank_trinv_variants, sylv_useful_flops_total, MeasurementMode,
};
use dla_core::predict::{EfficiencyPrediction, TraceEvaluator};
use dla_core::{Locality, Pipeline, SylvVariant, TrinvVariant};

use crate::checks;
use crate::rng::Rng;
use crate::stats::{metric, quantile_sorted, timed, Phase, Setups};
use crate::trace::{self, TimedEvaluator};
use crate::{Args, Outcome};

/// Noise seed of the set-up build: fixed, so every run serves the same
/// repository and the seed varies only the request sequence.
const REPO_SEED: u64 = 0x7e57;
/// Pipelines built before timing; untraced runs make `SPREAD_SETUPS` more
/// between rounds of the timed phase.
const PIPELINES: usize = 5;
const SPREAD_SETUPS: usize = 20;
/// Problem sizes shared by the request kinds, so calls repeat within and
/// across requests.
const TRINV_SIZES: [usize; 3] = [384, 512, 640];
const SYLV_SIZES: [usize; 4] = [256, 288, 320, 352];
const RANK_BLOCKS: [usize; 4] = [32, 64, 96, 128];
const SWEEP_SIZES: [usize; 3] = [832, 896, 1000];
/// The share of the best measured efficiency a predicted choice must reach
/// (see README.md, "Correctness checks").
pub const CHOICE_FRACTION: f64 = 0.80;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Request {
    RankTrinv { n: usize, b: usize },
    RankSylv { n: usize, b: usize },
    Sweep { variant: TrinvVariant, n: usize },
}

impl Request {
    fn is_sweep(&self) -> bool {
        matches!(self, Request::Sweep { .. })
    }

    fn kind(&self) -> usize {
        match self {
            Request::RankTrinv { .. } => 0,
            Request::RankSylv { .. } => 1,
            Request::Sweep { .. } => 2,
        }
    }
}

/// One round: every request of the pool once.
fn round() -> Vec<Request> {
    let mut requests = Vec::new();
    for &n in &TRINV_SIZES {
        for &b in &RANK_BLOCKS {
            requests.push(Request::RankTrinv { n, b });
        }
    }
    for &n in &SYLV_SIZES {
        for &b in &RANK_BLOCKS {
            requests.push(Request::RankSylv { n, b });
        }
    }
    for &n in &SWEEP_SIZES {
        for variant in TrinvVariant::ALL {
            requests.push(Request::Sweep { variant, n });
        }
    }
    requests
}

fn sweep_candidates() -> Vec<usize> {
    (2..=32).map(|i| i * 8).collect()
}

/// `(variant id or block size, predicted efficiency)`, best first for
/// rankings, candidate order for sweeps.
type Answer = Vec<(usize, EfficiencyPrediction)>;

fn serve_pipeline(p: &Pipeline, r: Request) -> Result<Answer, String> {
    let answer = match r {
        Request::RankTrinv { n, b } => p
            .rank_trinv(n, b)
            .map(|v| v.into_iter().map(|(v, e)| (v.id(), e)).collect()),
        Request::RankSylv { n, b } => p
            .rank_sylv(n, b)
            .map(|v| v.into_iter().map(|(v, e)| (v.id(), e)).collect()),
        Request::Sweep { variant, n } => p
            .tune_trinv_block_size(variant, n, &sweep_candidates())
            .map(|s| s.candidates),
    };
    answer.map_err(|e| format!("{r:?}: {e}"))
}

/// The same request through the public functions `Pipeline` delegates to,
/// with `evaluator` in place of the pipeline's service.
fn serve_with<E: TraceEvaluator>(evaluator: &E, r: Request) -> Result<Answer, String> {
    let answer = match r {
        Request::RankTrinv { n, b } => rank_trinv_variants(evaluator, n, b)
            .map(|v| v.into_iter().map(|(v, e)| (v.id(), e)).collect()),
        Request::RankSylv { n, b } => rank_sylv_variants(evaluator, n, b)
            .map(|v| v.into_iter().map(|(v, e)| (v.id(), e)).collect()),
        Request::Sweep { variant, n } => {
            optimize_block_size_trinv(evaluator, variant, n, &sweep_candidates())
                .map(|s| s.candidates)
        }
    };
    answer.map_err(|e| format!("{r:?}: {e}"))
}

/// The traces a request evaluates, with their useful flop counts, keyed by
/// variant id or block size.
fn traces(r: Request) -> Vec<(usize, Vec<Call>, f64)> {
    match r {
        Request::RankTrinv { n, b } => TrinvVariant::ALL
            .iter()
            .map(|&v| (v.id(), trinv_trace(v, n, b, n), trinv_useful_flops(n)))
            .collect(),
        Request::RankSylv { n, b } => SylvVariant::all()
            .into_iter()
            .map(|v| {
                (
                    v.id(),
                    sylv_trace(v, n, n, b, n),
                    sylv_useful_flops_total(n, n),
                )
            })
            .collect(),
        Request::Sweep { variant, n } => sweep_candidates()
            .into_iter()
            .filter(|&b| b <= n)
            .map(|b| (b, trinv_trace(variant, n, b, n), trinv_useful_flops(n)))
            .collect(),
    }
}

fn same_answer(a: &Answer, b: &Answer) -> bool {
    let bits = |e: &EfficiencyPrediction| [e.median, e.mean, e.min, e.max].map(f64::to_bits);
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && bits(&x.1) == bits(&y.1))
}

/// Full checks of one request's answer: trace sums against the uncompiled
/// reference, and the predicted choice against simulated execution.
fn check_request(p: &Pipeline, r: Request, answer: &Answer, out: &mut Outcome) -> f64 {
    let repository = p.repository();
    let machine = p.machine();
    let mut expected_keys = Vec::new();
    for (key, trace, useful) in traces(r) {
        expected_keys.push(key);
        let Some((_, served)) = answer.iter().find(|(k, _)| *k == key) else {
            out.violation(format!("{r:?}: no answer for {key}"));
            continue;
        };
        let label = format!("{r:?} key {key}");
        match checks::reference_ticks(&repository, machine, p.locality(), &trace) {
            Ok(reference) => out.check(checks::check_trace_sum(
                &label, served, &reference, machine, useful,
            )),
            Err(e) => out.violation(format!("{label}: {e}")),
        }
    }
    if answer.len() != expected_keys.len() {
        out.violation(format!(
            "{r:?}: {} answers for {} traces",
            answer.len(),
            expected_keys.len()
        ));
    }
    let mode = MeasurementMode::Fixed(Locality::InCache);
    let (predicted, measured): (usize, Vec<(usize, f64)>) = match r {
        Request::RankTrinv { n, b } => (
            answer[0].0,
            TrinvVariant::ALL
                .iter()
                .map(|&v| (v.id(), p.measure_trinv(v, n, b, mode).efficiency))
                .collect(),
        ),
        Request::RankSylv { n, b } => (
            answer[0].0,
            SylvVariant::all()
                .into_iter()
                .map(|v| (v.id(), p.measure_sylv(v, n, b, mode).efficiency))
                .collect(),
        ),
        Request::Sweep { variant, n } => {
            let best = answer
                .iter()
                .max_by(|a, b| a.1.median.total_cmp(&b.1.median))
                .map_or(0, |(b, _)| *b);
            (
                best,
                answer
                    .iter()
                    .map(|&(b, _)| (b, p.measure_trinv(variant, n, b, mode).efficiency))
                    .collect(),
            )
        }
    };
    match checks::check_choice(&format!("{r:?}"), predicted, &measured, CHOICE_FRACTION) {
        Ok(reached) => reached,
        Err(e) => {
            out.violation(e);
            f64::NAN
        }
    }
}

const SERVICE_TRACES: &str = "predict.service.traces";
const PREDICTOR_TRACES: &str = "predict.predictor.traces";
const ALGOS_TRACE: &str = "algos.trace";
const OP: &str = "op";

pub fn run(args: &Args) -> Outcome {
    let machine = harpertown_openblas();
    let config = ModelSetConfig::default().with_workers(crate::WORKERS);
    // Several independent pipelines, one per set-up: timed rounds rotate
    // over them, so no one instance's memory layout (hash-map placement, the
    // allocator's arenas) sets the figures of a whole run.
    let setup = || {
        let mut p = Pipeline::new(machine.clone())
            .with_model_config(config)
            .with_seed(REPO_SEED);
        p.build_models(&[Workload::Trinv, Workload::Sylv]);
        p
    };
    let (pipelines, setup_times): (Vec<Pipeline>, Vec<f64>) =
        (0..PIPELINES).map(|_| timed(setup)).unzip();
    let pipeline = &pipelines[0];
    eprintln!(
        "set-up times before timing (s): {setup_times:?}; {} models, {} samples",
        pipeline.repository().len(),
        pipeline.repository().total_samples()
    );

    let requests = round();
    let mut rng = Rng::new(args.seed);
    let mut out = Outcome::default();

    // Warm-up round, untimed: fills the memo cache and runs the full checks
    // once per distinct request.  Timed rounds must reproduce these answers
    // bit for bit.
    let mut order: Vec<usize> = (0..requests.len()).collect();
    rng.shuffle(&mut order);
    let mut expected: Vec<Answer> = vec![Vec::new(); requests.len()];
    let mut worst_reach = [f64::INFINITY; 3];
    for &i in &order {
        match serve_pipeline(pipeline, requests[i]) {
            Ok(answer) => {
                let reached = check_request(pipeline, requests[i], &answer, &mut out);
                let kind = requests[i].kind();
                worst_reach[kind] = worst_reach[kind].min(reached);
                expected[i] = answer;
            }
            Err(e) => out.violation(format!("warm-up: {e}")),
        }
    }
    eprintln!(
        "worst reached fraction of the best measured efficiency: trinv {:.3}, sylv {:.3}, sweep {:.3}",
        worst_reach[0], worst_reach[1], worst_reach[2]
    );

    let compare = |out: &mut Outcome, i: usize, answer: Result<Answer, String>| {
        out.attempted += 1;
        match answer {
            Ok(a) if same_answer(&a, &expected[i]) => {}
            Ok(_) => out.violation(format!("{:?}: answer changed between rounds", requests[i])),
            Err(e) => {
                eprintln!("error: {e}");
                out.fail("error");
            }
        }
    };

    // The other pipelines' warm-up rounds must give the checked answers.
    for p in &pipelines[1..] {
        for &i in &order {
            let answer = serve_pipeline(p, requests[i]);
            compare(&mut out, i, answer);
        }
    }
    out.attempted = 0;

    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let spread = if args.trace { 0 } else { SPREAD_SETUPS };
    let mut setups = Setups::new(setup_times, spread, seconds);
    let mut phase = Phase::start(seconds);
    let mut by_kind: [Vec<f64>; 3] = Default::default();
    for round in 0.. {
        let pipeline = &pipelines[round % pipelines.len()];
        rng.shuffle(&mut order);
        for &i in &order {
            let t = Instant::now();
            let answer = serve_pipeline(pipeline, requests[i]);
            let ns = t.elapsed().as_nanos() as u64;
            phase.record(ns);
            by_kind[requests[i].kind()].push(ns as f64 / 1e3);
            compare(&mut out, i, answer);
        }
        if phase.end_round() {
            break;
        }
        setups.between_rounds(&mut phase, setup);
    }
    let untraced = phase.finish();
    for (kind, lat) in ["rank_trinv", "rank_sylv", "sweep"]
        .iter()
        .zip(&mut by_kind)
    {
        lat.sort_by(f64::total_cmp);
        eprintln!(
            "{kind}: {} ops, p10 {:.1} us, p50 {:.1} us, p90 {:.1} us",
            lat.len(),
            quantile_sorted(lat, 0.1),
            quantile_sorted(lat, 0.5),
            quantile_sorted(lat, 0.9)
        );
    }
    if !args.trace {
        eprintln!("set-up times (s): {:?}", setups.times);
        out.metrics = untraced.end_to_end(&setups.times);
        return out;
    }

    // Traced half: the same requests through the functions `Pipeline`
    // delegates to, with the service behind a timing wrapper.  Outside the
    // op, the request's traces are generated standalone (the algos layer)
    // and predicted again through an uncached `Predictor` (the baseline).
    let predictor = pipeline.predictor();
    let services: Vec<_> = pipelines
        .iter()
        .map(|p| TimedEvaluator {
            inner: p.service(),
            layer: SERVICE_TRACES,
        })
        .collect();
    let baseline = TimedEvaluator {
        inner: &predictor,
        layer: PREDICTOR_TRACES,
    };
    trace::set_enabled(true);
    let mut phase = Phase::start(seconds);
    let (mut sweeps, mut sweep_ns) = (0u64, 0u64);
    let mut request_id = 0u64;
    for round in 0.. {
        let service = &services[round % services.len()];
        rng.shuffle(&mut order);
        for &i in &order {
            request_id += 1;
            trace::set_request(request_id);
            let r = requests[i];
            let t = Instant::now();
            let answer = trace::span(OP, true, || serve_with(service, r));
            let ns = t.elapsed().as_nanos() as u64;
            phase.record(ns);
            if r.is_sweep() {
                sweeps += 1;
                sweep_ns += ns;
            }
            let calls = trace::span(ALGOS_TRACE, true, || {
                std::hint::black_box(traces(r))
                    .iter()
                    .map(|t| t.1.len())
                    .sum::<usize>()
            });
            trace::count("algos.calls", calls as u64);
            let base = serve_with(&baseline, r);
            if let (Ok(a), Ok(b)) = (&answer, &base) {
                if !close_answers(a, b) {
                    out.violation(format!(
                        "{r:?}: predictor baseline disagrees with the service"
                    ));
                }
            }
            compare(&mut out, i, answer);
        }
        if phase.end_round() {
            break;
        }
    }
    trace::set_enabled(false);
    let traced = phase.finish();
    let snap = trace::snapshot();
    let ops = traced.ops() as f64;
    let us = |layer: &str| snap.layer(layer).total_ns as f64 / 1e3 / ops;
    let op_us = us(OP);
    let bookkeeping_us = snap.bookkeeping_ns as f64 / 1e3 / ops;
    // Trace generation runs inside the library's ranking and sweep
    // functions, out of the wrappers' reach, so it is timed on its own next
    // to the op.  The pipeline's own work is therefore an estimate: the op
    // less two figures timed apart from each other.  It can come out
    // negative when the op runs faster than the standalone generation.
    let overhead = op_us - us(SERVICE_TRACES) - us(ALGOS_TRACE) - bookkeeping_us;
    eprintln!(
        "traced op {op_us:.2} us = algos.trace {:.2} (timed apart) + predict.service.traces {:.2} \
         + tracing bookkeeping {bookkeeping_us:.2} + core.pipeline_overhead {overhead:.2} (estimate)",
        us(ALGOS_TRACE),
        us(SERVICE_TRACES)
    );
    match trace::write_spans(&crate::spans_path(args)) {
        Ok(n) => eprintln!("{n} spans written to {}", crate::spans_path(args).display()),
        Err(e) => eprintln!("spans not written: {e}"),
    }
    out.metrics = vec![
        metric("algos.trace_us", "us", us(ALGOS_TRACE)),
        metric(
            "algos.calls_per_request",
            "count",
            snap.count("algos.calls") as f64 / ops,
        ),
        metric("predict.service.traces_us", "us", us(SERVICE_TRACES)),
        metric("predict.predictor.traces_us", "us", us(PREDICTOR_TRACES)),
        metric(
            "predict.blocksize.sweep_us",
            "us",
            sweep_ns as f64 / 1e3 / sweeps.max(1) as f64,
        ),
        metric("core.pipeline_overhead_us", "us", overhead),
        metric(
            "trace.overhead_pct",
            "%",
            100.0 * (traced.mean_ns() / untraced.mean_ns() - 1.0),
        ),
    ];
    out
}

/// The uncached baseline may sum in another order than the service.
fn close_answers(a: &Answer, b: &Answer) -> bool {
    let close = |x: f64, y: f64| (x - y).abs() <= 1e-12 * x.abs().max(y.abs());
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.0 == y.0
                && close(x.1.median, y.1.median)
                && close(x.1.mean, y.1.mean)
                && close(x.1.min, y.1.min)
                && close(x.1.max, y.1.max)
        })
}
