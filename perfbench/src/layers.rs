//! The layer suite of a traced run: per-layer metrics for every crate.
//!
//! One traced round of each workload supplies the span-derived metrics
//! (search and code build, per-cell MSED cost, per-code fleet cost, the
//! service steps); direct probes time what no workload round isolates
//! (classification, the engine, the lane kernel against its oracle,
//! checkpoint and cache writes, the supervisor, telemetry).

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use muse_core::{presets, Classifier, MuseClassifier, Strike, WordRead};
use muse_faultsim::{muse_msed, muse_msed_scalar, MsedConfig, Rng, SimEngine};
use muse_lifetime::{
    all_environments, cell_label, run_sharded, run_sharded_with, scenario_codes, simulate_fleet,
    Checkpoint, CheckpointStore, FleetConfig, FleetTelemetry, LifetimeTally, RsClassifier,
    RunnerConfig,
};
use muse_rs::RsMemoryCode;
use muse_service::{CacheLookup, ResultCache};
use muse_telemetry::{Metrics, Tracer};

use crate::fleet::{Fleet, CODE_KEYS, DEGRADED_SPAN, HEALTHY_SPAN};
use crate::service::{job_spec, Service, JOB_SHARDS};
use crate::stats::{median, mix, percentile};
use crate::table4::{CellCode, Table4, WIDTHS};
use crate::trace::Trace;
use crate::{Ctx, Metric, PhaseLog, Workload, WORKERS};

/// Repeats of each timed probe; the probe reports their median. Probes
/// that compare two settings alternate them, so host drift hits both.
const REPS: usize = 5;

/// Runs the suite; spans of each traced workload round are written to
/// `trace_dir`.
pub fn run(ctx: &Ctx, trace_dir: &Path, lines: &mut Vec<String>) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    table4_layers(ctx, trace_dir, &mut out)?;
    fleet_layers(ctx, trace_dir, &mut out)?;
    service_layers(ctx, trace_dir, &mut out)?;
    probes(ctx, &mut out, lines)?;
    for m in &out {
        lines.push(format!("{} = {} {}", m.name, m.value, m.unit));
    }
    Ok(out)
}

/// Sets `W` up (traced), warms it up and runs `rounds` traced rounds.
fn traced_rounds<W: Workload>(
    ctx: &Ctx,
    setups: usize,
    rounds: u64,
    trace_dir: &Path,
) -> Result<(W, Trace), String> {
    let mut trace = Trace::new(true);
    let mut workload = None;
    for rep in 0..setups {
        workload = Some(W::setup(ctx, rep, &mut trace)?);
    }
    let mut w = workload.expect("at least one set-up");
    w.warm_up()?;
    let (mut phase1, mut phase2) = (PhaseLog::default(), PhaseLog::default());
    for round in 0..rounds {
        phase1.begin_round();
        phase2.begin_round();
        trace.span("perfbench.round", W::NAME, round, |t| {
            w.round(round, t, &mut phase1, &mut phase2)
        })?;
    }
    let path = trace_dir.join(format!("trace-layers-{}.jsonl", W::NAME));
    trace
        .write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok((w, trace))
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn table4_layers(ctx: &Ctx, trace_dir: &Path, out: &mut Vec<Metric>) -> Result<(), String> {
    let (w, trace) = traced_rounds::<Table4>(ctx, REPS, 3, trace_dir)?;
    for p in WIDTHS {
        let d = trace.durations("muse_core.search", Some(&format!("r{p}")));
        out.push(Metric::new(
            format!("muse_core.search.r{p}.ms"),
            ms(median(&d)),
            "ms",
        ));
    }
    let builds = trace.durations("muse_core.code_build", None);
    out.push(Metric::new(
        "muse_core.code_build.ms",
        ms(median(&builds)),
        "ms",
    ));
    for cell in &w.cells {
        let span = match cell.code {
            CellCode::Muse(_) => "muse_msed",
            CellCode::Rs(..) => "rs_msed",
        };
        let d = trace.durations(&format!("muse_faultsim.{span}"), Some(&cell.name));
        out.push(Metric::new(
            format!("muse_faultsim.{span}.{}.ns_per_trial", cell.name),
            median(&d) / cell.trials() as f64,
            "ns/trial",
        ));
    }
    // The part of the streams' time in the rounds that no cell chunk
    // covers: spawning, the queue, and the stream that finishes first
    // waiting for the other.
    let spans = trace.spans();
    let sum = |names: &[&str]| -> f64 {
        spans
            .iter()
            .filter(|s| names.contains(&s.name))
            .map(|s| s.ns() as f64)
            .sum()
    };
    let cells = sum(&["muse_faultsim.muse_msed", "muse_faultsim.rs_msed"]);
    let streams = WORKERS as f64 * sum(&["perfbench.round"]);
    out.push(Metric::new(
        "muse_faultsim.msed_unattributed_pct",
        100.0 * (1.0 - cells / streams.max(1.0)),
        "%",
    ));
    Ok(())
}

fn fleet_layers(ctx: &Ctx, trace_dir: &Path, out: &mut Vec<Metric>) -> Result<(), String> {
    let (w, trace) = traced_rounds::<Fleet>(ctx, 1, 1, trace_dir)?;
    for key in CODE_KEYS {
        let d = trace.durations(HEALTHY_SPAN, Some(key));
        out.push(Metric::new(
            format!("muse_lifetime.healthy.{key}.ms"),
            ms(median(&d)),
            "ms",
        ));
    }
    for (ci, key) in CODE_KEYS.iter().enumerate() {
        let d: f64 = trace.durations(DEGRADED_SPAN, Some(key)).iter().sum();
        out.push(Metric::new(
            format!("muse_lifetime.degraded.{key}.ms"),
            ms(d),
            "ms",
        ));
        out.push(Metric::new(
            format!("muse_lifetime.degraded.{key}.erasure_reads"),
            w.erasure_reads[ci] as f64,
            "count",
        ));
    }
    Ok(())
}

fn service_layers(ctx: &Ctx, trace_dir: &Path, out: &mut Vec<Metric>) -> Result<(), String> {
    let (w, trace) = traced_rounds::<Service>(ctx, 1, 1, trace_dir)?;
    let submit = trace.durations("muse_service.submit", None);
    out.push(Metric::new(
        "muse_service.submit.ms",
        ms(median(&submit)),
        "ms",
    ));
    for phase in ["cold", "cached"] {
        let d = trace.durations("muse_service.serve", Some(phase));
        out.push(Metric::new(
            format!("muse_service.serve_{phase}.ms"),
            ms(median(&d)),
            "ms",
        ));
    }
    let read = trace.durations("muse_service.result_read", None);
    out.push(Metric::new(
        "muse_service.result_read.us",
        median(&read) / 1e3,
        "us",
    ));
    out.push(Metric::new(
        "muse_service.cache_hit_ratio",
        w.cache_hit_ratio(),
        "ratio",
    ));
    Ok(())
}

/// Median seconds of `REPS` calls of `f`.
fn time_median(mut f: impl FnMut()) -> f64 {
    let secs: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&secs)
}

/// Nanoseconds per `classify` call on strikes of one surviving device.
fn classify_ns<C: Classifier>(backend: &mut C, erased: &[u16], seed: u64) -> Result<f64, String> {
    const CALLS: usize = 200_000;
    let ctx = backend
        .resolve(erased)
        .ok_or_else(|| format!("no decode context for erased set {erased:?}"))?;
    let mut rng = Rng::seeded(seed);
    let devices = backend.devices() as u64;
    let strikes: Vec<(u16, Strike)> = (0..4096)
        .map(|_| loop {
            let dev = rng.below(devices) as u16;
            if !erased.contains(&dev) {
                let width = backend.device_width(dev);
                break (dev, Strike::Xor(rng.nonzero_below(1 << width) as u16));
            }
        })
        .collect();
    let secs = time_median(|| {
        let mut correct = 0u64;
        for i in 0..CALLS {
            let strike = std::slice::from_ref(&strikes[i % strikes.len()]);
            correct += u64::from(backend.classify(&ctx, strike, &mut rng) == WordRead::Correct);
        }
        black_box(correct);
    });
    Ok(secs * 1e9 / CALLS as f64)
}

fn probes(ctx: &Ctx, out: &mut Vec<Metric>, lines: &mut Vec<String>) -> Result<(), String> {
    let seed = ctx.seed;

    // Classification backends, healthy and with device 3 erased.
    let muse = presets::muse_144_132();
    let kernel = muse.kernel().ok_or("MUSE(144,132) has no kernel")?;
    let mut backend = MuseClassifier::new(kernel);
    out.push(Metric::new(
        "muse_core.classify.ns",
        classify_ns(&mut backend, &[], seed)?,
        "ns",
    ));
    let degraded = classify_ns(&mut backend, &[3], seed)?;
    out.push(Metric::new(
        "muse_core.classify_degraded.ns",
        degraded,
        "ns",
    ));
    for t in [1usize, 2] {
        let code = RsMemoryCode::new(8, 144, t).map_err(|e| format!("RS t={t}: {e:?}"))?;
        let mut backend = RsClassifier::new(&code, 4);
        let healthy = classify_ns(&mut backend, &[], seed)?;
        out.push(Metric::new(
            format!("muse_rs.classify.t{t}.ns"),
            healthy,
            "ns",
        ));
        let degraded = classify_ns(&mut backend, &[3], seed)?;
        out.push(Metric::new(
            format!("muse_rs.classify_degraded.t{t}.ns"),
            degraded,
            "ns",
        ));
    }

    // Engine scheduling alone: trials that take their RNG stream and
    // count themselves.
    const EMPTY_TRIALS: u64 = 4_000_000;
    for workers in [1usize, 2] {
        let engine = SimEngine::new(workers);
        let mut count = 0u64;
        let secs = time_median(|| {
            count = engine.run_with(
                seed,
                EMPTY_TRIALS,
                || (),
                |_, rng, (), n: &mut u64| {
                    black_box(rng);
                    *n += 1;
                },
            );
        });
        if count != EMPTY_TRIALS {
            return Err(format!(
                "empty engine run counted {count} of {EMPTY_TRIALS} trials"
            ));
        }
        out.push(Metric::new(
            format!("muse_faultsim.engine.empty_ns_per_trial.w{workers}"),
            secs * 1e9 / EMPTY_TRIALS as f64,
            "ns/trial",
        ));
    }

    // Two-worker efficiency on one healthy fleet cell.
    let codes = scenario_codes();
    let envs = all_environments();
    let cell = FleetConfig {
        seed: mix(seed, 7, 7),
        ..FleetConfig::default()
    };
    let (mut one_s, mut two_s) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        for (threads, secs) in [(1, &mut one_s), (WORKERS, &mut two_s)] {
            let config = FleetConfig { threads, ..cell };
            let start = Instant::now();
            black_box(simulate_fleet(&codes[0], &envs[0], &config));
            secs.push(start.elapsed().as_secs_f64());
        }
    }
    let (one, two) = (median(&one_s), median(&two_s));
    out.push(Metric::new(
        "muse_faultsim.engine.efficiency",
        one / (WORKERS as f64 * two),
        "ratio",
    ));

    // Lane kernel against its scalar oracle.
    let config = MsedConfig {
        trials: 2_000_000,
        seed: mix(seed, 8, 8),
        threads: 1,
        ..MsedConfig::default()
    };
    let (mut lane_s, mut scalar_s) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let start = Instant::now();
        black_box(muse_msed(&muse, config));
        lane_s.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        black_box(muse_msed_scalar(&muse, config));
        scalar_s.push(start.elapsed().as_secs_f64());
    }
    let (lane, scalar) = (median(&lane_s), median(&scalar_s));
    lines.push(format!(
        "lane speedup base: muse_msed_scalar {:.3} ns/trial, muse_msed {:.3} ns/trial on {}",
        scalar * 1e9 / config.trials as f64,
        lane * 1e9 / config.trials as f64,
        muse.name()
    ));
    out.push(Metric::new(
        "muse_faultsim.lane_speedup",
        scalar / lane,
        "x",
    ));

    // Checkpoint writes of a job-sized run.
    let spec = job_spec(seed, u64::MAX - 1, 0);
    let (code, env, job_config) = spec.resolve()?;
    let plain_tally = simulate_fleet(&code, &env, &job_config).tally;
    let dir = ctx.work.join("probe-checkpoints");
    let store =
        CheckpointStore::open(&dir, "probe").map_err(|e| format!("checkpoint store: {e}"))?;
    let mut save_ms = Vec::new();
    for generation in 1..=150u64 {
        let checkpoint = Checkpoint {
            config_hash: 1,
            generation,
            shard_count: JOB_SHARDS,
            dimms: job_config.dimms,
            epoch_cursor: generation,
            done: (0..JOB_SHARDS).map(|s| (s, plain_tally)).collect(),
        };
        let start = Instant::now();
        store
            .save(&checkpoint)
            .map_err(|e| format!("checkpoint save: {e}"))?;
        save_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    for (q, name) in [(0.5, "p50"), (0.9, "p90")] {
        let p = percentile(&save_ms, q)?;
        out.push(Metric::new(
            format!("muse_lifetime.checkpoint_save.{name}_ms"),
            p.value,
            "ms",
        ));
    }

    // The supervisor with a checkpoint directory against the plain run.
    let runner = RunnerConfig {
        shards: JOB_SHARDS,
        checkpoint_dir: Some(dir.join("sharded")),
        checkpoint_prefix: "job".into(),
        ..RunnerConfig::default()
    };
    let (mut plain_s, mut sharded_s) = (Vec::new(), Vec::new());
    let mut writes = 0u32;
    for _ in 0..REPS {
        let start = Instant::now();
        black_box(simulate_fleet(&code, &env, &job_config));
        plain_s.push(start.elapsed().as_secs_f64());
        let _ = std::fs::remove_dir_all(dir.join("sharded"));
        let start = Instant::now();
        let outcome = run_sharded(&code, &env, &job_config, &runner, None)
            .map_err(|e| format!("run_sharded: {e}"))?;
        sharded_s.push(start.elapsed().as_secs_f64());
        writes = outcome.stats().checkpoint_writes;
        if outcome.report().map(|r| r.tally) != Some(plain_tally) {
            return Err("run_sharded tally differs from simulate_fleet".into());
        }
    }
    out.push(Metric::new(
        "muse_lifetime.run_sharded.overhead_pct",
        100.0 * (median(&sharded_s) / median(&plain_s) - 1.0),
        "%",
    ));
    out.push(Metric::new(
        "muse_lifetime.checkpoint_writes",
        f64::from(writes),
        "count",
    ));

    // Result cache records.
    let cache = ResultCache::open(&dir.join("cache"), None).map_err(|e| format!("cache: {e}"))?;
    let (mut put_ms, mut get_us) = (Vec::new(), Vec::new());
    for hash in 0..150u64 {
        let start = Instant::now();
        cache
            .put(hash, &plain_tally)
            .map_err(|e| format!("cache put: {e}"))?;
        put_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    for hash in 0..150u64 {
        let start = Instant::now();
        let lookup = cache.get(hash);
        get_us.push(start.elapsed().as_secs_f64() * 1e6);
        if lookup != CacheLookup::Hit(plain_tally) {
            return Err(format!("cache get {hash}: {lookup:?}"));
        }
    }
    out.push(Metric::new(
        "muse_service.cache_put.ms",
        median(&put_ms),
        "ms",
    ));
    out.push(Metric::new(
        "muse_service.cache_get.us",
        median(&get_us),
        "us",
    ));

    // Telemetry on against off, on one healthy cell.
    let telemetry_config = FleetConfig {
        threads: WORKERS,
        ..cell
    };
    let runner = RunnerConfig::default();
    let (mut off_s, mut on_s) = (Vec::new(), Vec::new());
    let mut tallies: Vec<LifetimeTally> = Vec::new();
    for _ in 0..REPS {
        for on in [false, true] {
            let tracer = Tracer::new(Box::new(std::io::sink()), 4096);
            let metrics = Metrics::new();
            let telemetry = if on {
                FleetTelemetry {
                    tracer: Some(&tracer),
                    metrics: Some(&metrics),
                    label: cell_label(&codes[0].name(), envs[0].name),
                    ..FleetTelemetry::default()
                }
            } else {
                FleetTelemetry::disabled()
            };
            let start = Instant::now();
            let outcome = run_sharded_with(
                &codes[0],
                &envs[0],
                &telemetry_config,
                &runner,
                None,
                &telemetry,
            )
            .map_err(|e| format!("run_sharded_with: {e}"))?;
            let secs = start.elapsed().as_secs_f64();
            drop(telemetry);
            tracer.finish();
            if on { &mut on_s } else { &mut off_s }.push(secs);
            tallies.extend(outcome.report().map(|r| r.tally));
        }
    }
    if tallies.len() != 2 * REPS || tallies.windows(2).any(|w| w[0] != w[1]) {
        return Err("telemetry perturbed the fleet tally".into());
    }
    out.push(Metric::new(
        "muse_telemetry.overhead_pct",
        100.0 * (median(&on_s) / median(&off_s) - 1.0),
        "%",
    ));
    Ok(())
}
