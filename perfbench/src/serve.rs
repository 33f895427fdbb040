//! `serve`: per-call `FleetService::query` traffic over three machine-preset
//! shards, one held down, with a refine → merge → swap round publishing into
//! another shard once per cycle.

use std::sync::Arc;
use std::time::Instant;

use dla_core::algos::{sylv_trace, trinv_trace};
use dla_core::blas::flops::is_empty_call;
use dla_core::blas::Call;
use dla_core::machine::presets::{
    harpertown_openblas, sandy_bridge_openblas, sandy_bridge_openblas_threaded,
};
use dla_core::machine::{ChaosConfig, Executor, SimExecutor};
use dla_core::mat::stats::Summary;
use dla_core::model::binfmt;
use dla_core::modeler::online::dedupe_templates;
use dla_core::modeler::{OnlineRefiner, OnlineRefinerConfig, RefinementConfig};
use dla_core::predict::modelset::{build_repository, workload_templates, ModelSetConfig, Workload};
use dla_core::predict::{
    ChaosShard, FleetBuilder, FleetConfig, FleetQuery, FleetService, Priority, Served,
    ServiceClient, ShardClient,
};
use dla_core::{Locality, MachineConfig, ModelRepository, ModelService, SylvVariant, TrinvVariant};

use crate::checks;
use crate::rng::Rng;
use crate::stats::{metric, timed, Phase, Setups};
use crate::trace::{self, TimedExecutor, TimedShard};
use crate::{Args, Outcome};

const MAX_SIZE: usize = 256;
/// Set-ups per untraced run: one before timing, the rest spread over the
/// timed phase.
const SETUPS: usize = 21;
/// Shard roles, in `machines()` order: the held-down shard (Sandy Bridge,
/// one thread) is answered through its nearest healthy neighbour
/// (Harpertown), and refinement rounds publish into that neighbour, so the
/// proxied answers after a publish pass through models that moved since the
/// fleet calibrated its transfer ratios.  The warm-up cycle checks that the
/// proxy is the publisher.
const PUBLISHER: usize = 0;
const DOWN: usize = 1;
/// Build-noise seeds of the three shards (fixed: every run serves the same
/// repositories; the seed varies the query sequence).
const REPO_SEEDS: [u64; 3] = [11, 12, 13];
/// Seed of the drifted machine the refiner measures, and of the separate
/// drifted executor the refinement check re-measures with.
const DRIFT_SEED: u64 = 0xd41f7;
const CHECK_SEED: u64 = 0xc4ec;
/// Queries per timed batch: long against the timer.
const BATCH: usize = 64;
/// Each phase of a cycle sends the call mix this many times.
const REPEATS_PER_PHASE: usize = 4;
/// Deadline budget, in the fleet's virtual cost units: ample, so the held-down
/// shard's queries always reach the proxy rung instead of being shed.
const DEADLINE: u64 = 100_000;
/// The fleet's documented bound on proxied medians against the target
/// machine's own model (the fleet chaos suite's `PROXY_ERROR_BOUND`).
pub const PROXY_ERROR_BOUND: f64 = 0.15;

fn machines() -> [MachineConfig; 3] {
    [
        harpertown_openblas(),
        sandy_bridge_openblas(),
        sandy_bridge_openblas_threaded(),
    ]
}

fn model_config() -> ModelSetConfig {
    ModelSetConfig::quick(MAX_SIZE).with_workers(crate::WORKERS)
}

/// The post-drift publisher machine: same identity, slower kernels.
fn drifted(machine: &MachineConfig) -> MachineConfig {
    let mut m = machine.clone();
    m.blas.gemm.peak_efficiency *= 0.55;
    m.blas.trsm.peak_efficiency *= 0.62;
    m.blas.trmm.peak_efficiency *= 0.58;
    m.blas.trsm.half_dim *= 1.8;
    m.blas.trtri_unb.peak_efficiency *= 0.7;
    m
}

/// The call mix: every non-degenerate call of trinv and sylv traces, with
/// the repetition the traces give it, so popularity is skewed the way the
/// algorithms skew it.  Query `j` targets shard `TARGETS[j % 5]`: 40% to
/// Harpertown (the publisher), 20% to the held-down shard, 40% to Sandy
/// Bridge threaded.
fn call_mix() -> Vec<(usize, Call)> {
    const TARGETS: [usize; 5] = [0, 2, 1, 0, 2];
    let mut calls = Vec::new();
    for (n, b) in [(96, 32), (160, 32), (224, 64), (256, 64)] {
        for v in TrinvVariant::ALL {
            calls.extend(trinv_trace(v, n, b, n));
        }
    }
    for (n, b) in [(96, 32), (192, 64)] {
        for v in SylvVariant::all() {
            calls.extend(sylv_trace(v, n, n, b, n));
        }
    }
    calls
        .into_iter()
        .filter(|c| !is_empty_call(c))
        .enumerate()
        .map(|(j, c)| (TARGETS[j % TARGETS.len()], c))
        .collect()
}

/// Calibration grid for the proxy rung: every template over a size grid
/// offset from the lattice the blocked algorithms walk (block sizes 32 and
/// 64 make every trace dimension a multiple of 32) and bracketing it, so the
/// proxied check measures interpolation between calibration points rather
/// than the calibration points themselves; gemm's inner dimension runs over
/// 24..=176.
fn calibration_calls(config: &ModelSetConfig) -> Vec<Call> {
    let grid = [8usize, 24, 48, 80, 112, 144, 176, 208, 240, 256];
    let mut calls = Vec::new();
    for w in [Workload::Trinv, Workload::Sylv] {
        for (templates, _) in workload_templates(w, config) {
            for t in dedupe_templates(&templates) {
                let dims = t.sizes().len();
                for &a in &grid {
                    let rows: Vec<Vec<usize>> = match dims {
                        1 => vec![vec![a]],
                        2 => grid.iter().map(|&b| vec![a, b]).collect(),
                        _ => grid
                            .iter()
                            .flat_map(|&b| grid[2..8].iter().map(move |&k| vec![a, b, k]))
                            .collect(),
                    };
                    calls.extend(rows.iter().map(|sizes| t.with_sizes(sizes)));
                }
            }
        }
    }
    calls.dedup();
    calls
}

struct Setup {
    services: Vec<Arc<ModelService>>,
    chaos: Vec<Arc<ChaosShard<ServiceClient>>>,
    fleet: FleetService,
    fleet_config: FleetConfig,
    /// The publisher's set-up repository in binary form: every cycle starts
    /// again from it.
    publisher_bytes: Vec<u8>,
}

fn build_fleet(
    config: &FleetConfig,
    services: &[Arc<ModelService>],
    clients: Vec<Arc<dyn ShardClient>>,
) -> FleetService {
    let mut builder = FleetBuilder::new(config.clone());
    for (service, client) in services.iter().zip(clients) {
        builder = builder.shard_with_client(Arc::clone(service), client);
    }
    builder
        .build()
        .expect("three distinct machines make a valid fleet")
}

fn setup() -> Setup {
    let config = model_config();
    let services: Vec<Arc<ModelService>> = machines()
        .into_iter()
        .zip(REPO_SEEDS)
        .map(|(machine, seed)| {
            let (repo, _) = build_repository(
                &machine,
                Locality::InCache,
                seed,
                &config,
                &[Workload::Trinv, Workload::Sylv],
            );
            Arc::new(ModelService::new(repo, machine, Locality::InCache))
        })
        .collect();
    let fleet_config = FleetConfig {
        seed: 0x5eed_f1ee,
        calibration_calls: calibration_calls(&config),
        ..FleetConfig::default()
    };
    let chaos: Vec<Arc<ChaosShard<ServiceClient>>> = services
        .iter()
        .map(|s| {
            Arc::new(ChaosShard::new(
                ServiceClient::new(Arc::clone(s), fleet_config.nominal_cost),
                ChaosConfig::default(),
            ))
        })
        .collect();
    chaos[DOWN].set_forced_down(true);
    let clients = chaos
        .iter()
        .map(|c| Arc::clone(c) as Arc<dyn ShardClient>)
        .collect();
    let fleet = build_fleet(&fleet_config, &services, clients);
    let publisher_bytes = binfmt::encode(&services[PUBLISHER].compiled_snapshot())
        .expect("a freshly built repository encodes");
    Setup {
        services,
        chaos,
        fleet,
        fleet_config,
        publisher_bytes,
    }
}

/// What a query's answer must be, fixed by the warm-up cycle.
#[derive(Clone)]
struct Expected {
    rung: u8,
    summary: Option<Summary>,
    /// Why the answer counts as a failed query, if it does.
    fault: Option<&'static str>,
}

fn rung(served: &Served) -> u8 {
    match served {
        Served::Fresh { .. } => 0,
        Served::Stale { .. } => 1,
        Served::Proxied { .. } => 2,
        Served::Shed { .. } => 3,
    }
}

fn same_bits(a: &Summary, b: &Summary) -> bool {
    a.to_quantities()
        .iter()
        .zip(b.to_quantities())
        .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn refiner_config() -> OnlineRefinerConfig {
    OnlineRefinerConfig {
        fit: RefinementConfig {
            error_bound: 0.10,
            min_region_size: 64,
            grid_per_dim: 4,
            degree: 2,
        },
        sample_budget: 512,
        max_cells: 8,
        min_queries: 1,
        ..OnlineRefinerConfig::default()
    }
}

fn templates(config: &ModelSetConfig) -> Vec<Call> {
    let all: Vec<Call> = [Workload::Trinv, Workload::Sylv]
        .iter()
        .flat_map(|&w| workload_templates(w, config))
        .flat_map(|(calls, _)| calls)
        .collect();
    dedupe_templates(&all)
}

/// One refine → merge → swap round on the publisher, measuring the drifted
/// machine through `executor`.
fn publish<E: Executor>(
    service: &ModelService,
    executor: E,
    templates: &[Call],
) -> Result<dla_core::RefineOutcome, String> {
    let mut refiner = OnlineRefiner::new(executor, Locality::InCache, 2, refiner_config())
        .with_templates(templates);
    let report = service.refinement_report();
    let snapshot = service.snapshot();
    let (delta, outcome) = trace::span("modeler.refine", true, || {
        refiner.refine(&snapshot, &report)
    });
    trace::count("modeler.refine_samples", outcome.samples_used as u64);
    trace::span("predict.service.publish", true, || service.merge(delta))
        .map_err(|e| format!("publish rejected: {e}"))?;
    Ok(outcome)
}

/// Mean relative error of `repo`'s median against `truth` over `calls`.
fn mean_error(repo: &ModelRepository, machine_id: &str, calls: &[(Call, f64)]) -> f64 {
    let mut acc = 0.0;
    for (call, truth) in calls {
        let model = repo
            .get(call.routine(), machine_id, Locality::InCache)
            .expect("refined routines are in the repository");
        let predicted = model.estimate(call).map_or(f64::NAN, |s| s.median);
        acc += (predicted - truth).abs() / truth;
    }
    acc / calls.len().max(1) as f64
}

/// The refinement check: probe the centre of every region the round added,
/// measure it afresh on the drifted machine (a differently seeded executor),
/// and compare the old and new models' errors there.
fn check_refinement(
    before: &ModelRepository,
    after: &ModelRepository,
    machine: &MachineConfig,
    templates: &[Call],
) -> Result<(), String> {
    let id = machine.id();
    let mut fresh = SimExecutor::new(drifted(machine), CHECK_SEED);
    let mut probes = Vec::new();
    for (key, model) in after.iter() {
        let Some(old) = before.get(model.routine, &id, Locality::InCache) else {
            continue;
        };
        for (flags, sub) in &model.submodels {
            let old_sub = old.submodels.get(flags);
            for region in &sub.regions {
                let existed = old_sub.is_some_and(|o| {
                    o.regions
                        .iter()
                        .any(|r| r.region == region.region && r.revision == region.revision)
                });
                if existed {
                    continue;
                }
                let Some(template) = templates.iter().find(|t| {
                    t.routine() == model.routine && dla_core::model::submodel_key(t) == *flags
                }) else {
                    return Err(format!("no template for {key:?} flags {flags:?}"));
                };
                let centre: Vec<usize> = region
                    .region
                    .lo()
                    .iter()
                    .zip(region.region.hi())
                    .map(|(lo, hi)| (lo + hi) / 2)
                    .collect();
                let call = template.with_sizes(&centre);
                let mut ticks: Vec<f64> = (0..5)
                    .map(|_| fresh.execute(&call, Locality::InCache).ticks)
                    .collect();
                ticks.sort_by(f64::total_cmp);
                probes.push((call, ticks[2]));
            }
        }
    }
    if probes.is_empty() {
        return Err("the refinement round added no region".into());
    }
    let e_before = mean_error(before, &id, &probes);
    let e_after = mean_error(after, &id, &probes);
    eprintln!(
        "refinement: {} new regions, mean error vs fresh drifted measurements {e_before:.4} -> {e_after:.4}",
        probes.len()
    );
    checks::check_refinement("refinement round", e_before, e_after)
}

/// Fleet query spans, filed by the rung that answered.
const FLEET_LAYERS: [&str; 5] = [
    "predict.fleet:fresh",
    "predict.fleet:stale",
    "predict.fleet:proxied",
    "predict.fleet:shed",
    "predict.fleet:error",
];

fn fleet_layer<E>(response: &Result<dla_core::predict::FleetResponse, E>) -> &'static str {
    match response {
        Ok(r) => FLEET_LAYERS[rung(&r.served) as usize],
        Err(_) => FLEET_LAYERS[4],
    }
}

/// Per-cycle tallies.
#[derive(Default, Clone, Copy)]
struct Rungs {
    fresh: u64,
    stale: u64,
    proxied: u64,
}

pub fn run(args: &Args) -> Outcome {
    let (s, first_setup) = timed(setup);
    let config = model_config();
    let templates = templates(&config);
    let machines = machines();
    let publisher_machine = machines[PUBLISHER].clone();
    let mix = call_mix();
    let mut rng = Rng::new(args.seed);
    let mut out = Outcome::default();

    // The phase multiset: the mix, REPEATS_PER_PHASE times.
    let phase_len = mix.len() * REPEATS_PER_PHASE;
    eprintln!(
        "call mix: {} calls ({} distinct); {} queries per phase in batches of {BATCH}",
        mix.len(),
        {
            let mut d: Vec<String> = mix.iter().map(|(t, c)| format!("{t}{c:?}")).collect();
            d.sort();
            d.dedup();
            d.len()
        },
        phase_len
    );
    let reset = |s: &Setup| {
        let compiled = trace::span("model.binfmt_decode", true, || {
            binfmt::decode(&s.publisher_bytes)
        })
        .expect("the set-up bytes decode");
        s.services[PUBLISHER]
            .swap_compiled(Arc::new(compiled))
            .expect("the set-up repository validates");
    };

    // Warm-up cycle, untimed: every answer is checked against an
    // independent computation and becomes the expected answer of the timed
    // cycles.
    let mut expected: [Vec<Expected>; 2] = [Vec::new(), Vec::new()];
    let mut worst_proxy = 0.0f64;
    let mut proxy_misses = [0usize; 2];
    let mut cycle_failures: Vec<&'static str> = Vec::new();
    reset(&s);
    for (phase, expected_answers) in expected.iter_mut().enumerate() {
        if phase == 1 {
            let before = s.services[PUBLISHER].snapshot();
            match publish(
                &s.services[PUBLISHER],
                SimExecutor::new(drifted(&publisher_machine), DRIFT_SEED),
                &templates,
            ) {
                Ok(outcome) => eprintln!(
                    "publish: {} cells refined, {} samples",
                    outcome.cells_refined, outcome.samples_used
                ),
                Err(e) => out.violation(e),
            }
            let after = s.services[PUBLISHER].snapshot();
            out.check(check_refinement(
                &before,
                &after,
                &publisher_machine,
                &templates,
            ));
        }
        let predictors: Vec<_> = s.services.iter().map(|svc| svc.predictor()).collect();
        for (j, (target, call)) in mix.iter().enumerate() {
            let query = FleetQuery {
                id: j as u64,
                machine_id: machines[*target].id(),
                call: call.clone(),
                deadline: DEADLINE,
                priority: Priority::Normal,
            };
            let label = format!("phase {phase} query {j} on {} {:?}", query.machine_id, call);
            let response = match s.fleet.query(&query) {
                Ok(r) => r,
                Err(e) => {
                    out.violation(format!("{label}: {e}"));
                    expected_answers.push(Expected {
                        rung: 4,
                        summary: None,
                        fault: Some("error"),
                    });
                    continue;
                }
            };
            let r = rung(&response.served);
            let label = format!("{label} served {:?}", response.served);
            let mut fault = match &response.summary {
                Some(summary) => checks::answer_fault(summary),
                None => Some("shed"),
            };
            if let Some(summary) = &response.summary {
                match &response.served {
                    Served::Fresh { .. } => match predictors[*target].predict_call(call) {
                        Ok(want) => out.check(checks::check_same(&label, summary, &want)),
                        Err(e) => out.violation(format!("{label}: reference failed: {e}")),
                    },
                    Served::Proxied { via, .. } if *via != machines[PUBLISHER].id() => {
                        out.violation(format!("{label}: proxied through {via}, not the publisher"))
                    }
                    Served::Proxied { .. } => match predictors[*target].predict_call(call) {
                        // A target model that itself breaks the
                        // invariants gives no reference.
                        Ok(truth) if checks::answer_fault(&truth).is_some() => {}
                        Ok(truth) => match checks::check_proxied(
                            &label,
                            summary.median,
                            truth.median,
                            PROXY_ERROR_BOUND,
                        ) {
                            Ok(e) => worst_proxy = worst_proxy.max(e),
                            // The same calls miss the bound every cycle:
                            // a program fault, counted as failed queries
                            // unless the answer failed already.
                            Err(e) => {
                                eprintln!("failed query: {e}");
                                if fault.is_none() {
                                    proxy_misses[phase] += 1;
                                    fault = Some("proxy-bound");
                                }
                            }
                        },
                        Err(e) => out.violation(format!("{label}: reference failed: {e}")),
                    },
                    _ => {}
                }
            }
            if let Some(kind) = fault {
                cycle_failures.push(kind);
            }
            expected_answers.push(Expected {
                rung: r,
                summary: response.summary,
                fault,
            });
        }
    }
    eprintln!(
        "warm-up cycle: worst proxied error within the bound {worst_proxy:.4} (bound {PROXY_ERROR_BOUND}); \
         proxied answers failed for it alone: {} before the publish, {} after; \
         {} of {} answers fail",
        proxy_misses[0],
        proxy_misses[1],
        cycle_failures.len(),
        2 * mix.len()
    );

    // Timed cycles.
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let spread = if args.trace { 0 } else { SETUPS - 1 };
    let mut setups = Setups::new(vec![first_setup], spread, seconds);
    let untraced = run_cycles(
        &s,
        &s.fleet,
        args,
        seconds,
        &mut rng,
        &mix,
        &expected,
        &templates,
        &mut out,
        &reset,
        &mut setups,
    );
    if !args.trace {
        eprintln!("set-up times (s): {:?}", setups.times);
        out.metrics = untraced.0.end_to_end(&setups.times);
        return out;
    }

    // Traced half: the same services behind a second fleet whose shard
    // clients are wrapped in timers.  The fleet calibrates its transfer
    // ratios when it is built, so it is built on the set-up repositories,
    // as the first fleet was.
    reset(&s);
    let clients: Vec<Arc<dyn ShardClient>> = s
        .chaos
        .iter()
        .map(|c| {
            Arc::new(TimedShard {
                inner: Arc::clone(c),
                layer: "predict.service.predict_call",
            }) as Arc<dyn ShardClient>
        })
        .collect();
    let traced_fleet = build_fleet(&s.fleet_config, &s.services, clients);
    trace::set_enabled(true);
    let (traced, rungs, cycles) = run_cycles(
        &s,
        &traced_fleet,
        args,
        seconds,
        &mut rng,
        &mix,
        &expected,
        &templates,
        &mut out,
        &reset,
        &mut Setups::new(Vec::new(), 0, seconds),
    );
    trace::set_enabled(false);
    let snap = trace::snapshot();
    let ops = traced.ops() as f64;
    let per_cycle = |x: u64| x as f64 / cycles.max(1) as f64;
    let ms_per_cycle = |layer: &str| snap.layer(layer).total_ns as f64 / 1e6 / cycles.max(1) as f64;
    let fleet: Vec<(&str, trace::Totals)> =
        FLEET_LAYERS.iter().map(|&l| (l, snap.layer(l))).collect();
    let fleet_self_ns: u64 = fleet.iter().map(|(_, t)| t.self_ns).sum();
    let fresh = snap.layer(FLEET_LAYERS[0]);
    let shard = snap.layer("predict.service.predict_call");
    let baseline = snap.layer("predict.predictor.predict_call");
    let refine = snap.layer("modeler.refine");
    let execute = snap.layer("machine.execute");
    let publish_t = snap.layer("predict.service.publish");
    let op_ns = snap.layer("op").total_ns as f64;
    let layers_ns = (fleet_self_ns
        + shard.total_ns
        + refine.self_ns
        + execute.total_ns
        + publish_t.total_ns
        + snap.bookkeeping_ns) as f64;
    let remainder_us = (op_ns - layers_ns) / 1e3 / ops;
    eprintln!(
        "traced ops {:.1} ms = fleet self {:.1} + shard calls {:.1} + refine self {:.1} + execute {:.1} + publish {:.1} + tracing bookkeeping {:.1} + remainder {:.1}",
        op_ns / 1e6,
        fleet_self_ns as f64 / 1e6,
        shard.total_ns as f64 / 1e6,
        refine.self_ns as f64 / 1e6,
        execute.total_ns as f64 / 1e6,
        publish_t.total_ns as f64 / 1e6,
        snap.bookkeeping_ns as f64 / 1e6,
        (op_ns - layers_ns) / 1e6
    );
    for (layer, t) in fleet.iter().filter(|(_, t)| t.calls > 0) {
        eprintln!(
            "{layer}: {} queries, self {:.0} ns, total {:.0} ns per query",
            t.calls,
            t.self_ns as f64 / t.calls as f64,
            t.total_ns as f64 / t.calls as f64
        );
    }
    match trace::write_spans(&crate::spans_path(args)) {
        Ok(n) => eprintln!("{n} spans written to {}", crate::spans_path(args).display()),
        Err(e) => eprintln!("spans not written: {e}"),
    }
    out.metrics = vec![
        metric(
            "predict.fleet.self_ns",
            "ns",
            fresh.self_ns as f64 / fresh.calls.max(1) as f64,
        ),
        metric(
            "predict.service.predict_call_ns",
            "ns",
            shard.total_ns as f64 / shard.calls.max(1) as f64,
        ),
        metric(
            "predict.predictor.predict_call_ns",
            "ns",
            baseline.total_ns as f64 / baseline.calls.max(1) as f64,
        ),
        metric("predict.fleet.fresh", "count", per_cycle(rungs.fresh)),
        metric("predict.fleet.stale", "count", per_cycle(rungs.stale)),
        metric("predict.fleet.proxied", "count", per_cycle(rungs.proxied)),
        metric(
            "predict.service.publish_ms",
            "ms",
            ms_per_cycle("predict.service.publish"),
        ),
        metric(
            "modeler.refine_ms",
            "ms",
            refine.self_ns as f64 / 1e6 / cycles.max(1) as f64,
        ),
        metric(
            "modeler.refine_samples",
            "count",
            per_cycle(snap.count("modeler.refine_samples")),
        ),
        metric("machine.execute_ms", "ms", ms_per_cycle("machine.execute")),
        metric(
            "machine.measurements",
            "count",
            per_cycle(snap.count("machine.measurements")),
        ),
        metric(
            "model.binfmt_decode_ms",
            "ms",
            ms_per_cycle("model.binfmt_decode"),
        ),
        metric("trace.remainder_us", "us", remainder_us),
        metric(
            "trace.overhead_pct",
            "%",
            100.0 * (traced.mean_ns() / untraced.0.mean_ns() - 1.0),
        ),
    ];
    out
}

/// Runs whole cycles until `seconds` are used: reset → phase 0 → publish →
/// phase 1, with the spread set-ups between cycles.  Returns the timed
/// phase, the rung tallies and the cycle count.
#[allow(clippy::too_many_arguments)]
fn run_cycles(
    s: &Setup,
    fleet: &FleetService,
    args: &Args,
    seconds: f64,
    rng: &mut Rng,
    mix: &[(usize, Call)],
    expected: &[Vec<Expected>; 2],
    templates: &[Call],
    out: &mut Outcome,
    reset: &dyn Fn(&Setup),
    setups: &mut Setups,
) -> (crate::stats::PhaseResult, Rungs, u64) {
    let machines = machines();
    let ids: Vec<String> = machines.iter().map(|m| m.id()).collect();
    let publisher_machine = machines[PUBLISHER].clone();
    let mut order: Vec<usize> = (0..mix.len() * REPEATS_PER_PHASE).collect();
    let mut phase = Phase::start(seconds);
    let mut rungs = Rungs::default();
    let mut cycles = 0u64;
    let mut next_id = (args.seed << 32) | 1 << 31;
    let mut responses = Vec::with_capacity(BATCH);
    loop {
        reset(s);
        for (p, wanted) in expected.iter().enumerate() {
            if p == 1 {
                let t = Instant::now();
                let result = trace::span("op", true, || {
                    if args.trace {
                        publish(
                            &s.services[PUBLISHER],
                            TimedExecutor(SimExecutor::new(
                                drifted(&publisher_machine),
                                DRIFT_SEED,
                            )),
                            templates,
                        )
                    } else {
                        publish(
                            &s.services[PUBLISHER],
                            SimExecutor::new(drifted(&publisher_machine), DRIFT_SEED),
                            templates,
                        )
                    }
                });
                phase.record(t.elapsed().as_nanos() as u64);
                out.attempted += 1;
                if let Err(e) = result {
                    eprintln!("error: {e}");
                    out.fail("error");
                }
            }
            rng.shuffle(&mut order);
            let predictors: Vec<_> = if args.trace {
                s.services.iter().map(|svc| svc.predictor()).collect()
            } else {
                Vec::new()
            };
            for batch in order.chunks(BATCH) {
                responses.clear();
                let t = Instant::now();
                trace::span("op", true, || {
                    for &k in batch {
                        let (target, call) = &mix[k % mix.len()];
                        next_id += 1;
                        let query = FleetQuery {
                            id: next_id,
                            machine_id: ids[*target].clone(),
                            call: call.clone(),
                            deadline: DEADLINE,
                            priority: Priority::Normal,
                        };
                        responses.push(trace::span_by(false, || fleet.query(&query), fleet_layer));
                    }
                });
                phase.record(t.elapsed().as_nanos() as u64);
                for (&k, response) in batch.iter().zip(responses.drain(..)) {
                    let j = k % mix.len();
                    out.attempted += 1;
                    let want = &wanted[j];
                    let Ok(response) = response else {
                        out.fail("error");
                        continue;
                    };
                    let r = rung(&response.served);
                    match r {
                        0 => rungs.fresh += 1,
                        1 => rungs.stale += 1,
                        2 => rungs.proxied += 1,
                        _ => {}
                    }
                    let same = r == want.rung
                        && match (&response.summary, &want.summary) {
                            (Some(a), Some(b)) => same_bits(a, b),
                            (None, None) => true,
                            _ => false,
                        };
                    if !same {
                        out.violation(format!(
                            "phase {p} query {j}: answer {:?} {:?} differs from the checked warm-up answer {} {:?}",
                            response.served, response.summary, want.rung, want.summary
                        ));
                    }
                    // The answer is the warm-up's, bit for bit, so it fails
                    // the way the warm-up answer failed.
                    if let Some(kind) = want.fault {
                        out.fail(kind);
                    }
                }
                if args.trace {
                    // The baseline: the same calls through an uncached
                    // `Predictor` on each target shard's current snapshot.
                    for &k in batch {
                        let (target, call) = &mix[k % mix.len()];
                        let _ = trace::span("predict.predictor.predict_call", false, || {
                            std::hint::black_box(predictors[*target].predict_call(call))
                        });
                    }
                }
            }
        }
        cycles += 1;
        if phase.end_round() {
            break;
        }
        setups.between_rounds(&mut phase, setup);
    }
    (phase.finish(), rungs, cycles)
}
