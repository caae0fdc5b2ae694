//! The fault-simulation engine against its pre-engine baseline.
//!
//! Three rungs at equal trial count on the Table IV workload
//! (MUSE(144,132), two failing devices):
//!
//! * `naive_serial` — the seed implementation: one RNG stream, a full
//!   wide-word encode + decode per trial.
//! * `engine_1_thread` — the residue-space kernel on a single worker. The
//!   PR's acceptance target: ≥10× `naive_serial`.
//! * `engine_all_threads` — the same kernel across all CPUs; should scale
//!   near-linearly on top.

use criterion::{criterion_group, criterion_main, Criterion};
use muse_bench::naive_msed;
use muse_core::presets;
use muse_faultsim::{muse_msed, simulate_retention, MsedConfig, RetentionModel};
use std::hint::black_box;

const TRIALS: u64 = 20_000;

fn msed_engine(c: &mut Criterion) {
    let code = presets::muse_144_132();
    let config = |threads| MsedConfig {
        trials: TRIALS,
        threads,
        ..MsedConfig::default()
    };
    let mut group = c.benchmark_group("msed_20k_trials");
    group.sample_size(10);
    group.bench_function("naive_serial", |b| {
        b.iter(|| black_box(naive_msed(&code, config(1))))
    });
    group.bench_function("engine_1_thread", |b| {
        b.iter(|| black_box(muse_msed(&code, config(1))))
    });
    group.bench_function("engine_all_threads", |b| {
        b.iter(|| black_box(muse_msed(&code, config(0))))
    });
    group.finish();
}

fn retention_engine(c: &mut Criterion) {
    let code = presets::muse_80_67();
    let model = RetentionModel {
        weak_fraction: 1e-3,
        ..RetentionModel::default()
    };
    let mut group = c.benchmark_group("retention_5k_words");
    group.sample_size(10);
    group.bench_function("engine_1_thread", |b| {
        b.iter(|| black_box(simulate_retention(&code, &model, 1024.0, 5_000, 1, 1)))
    });
    group.bench_function("engine_all_threads", |b| {
        b.iter(|| black_box(simulate_retention(&code, &model, 1024.0, 5_000, 1, 0)))
    });
    group.finish();
}

criterion_group!(benches, msed_engine, retention_engine);
criterion_main!(benches);
