//! Simulator throughput: the Monte-Carlo MSED engine, the memory-system
//! model, and the retention sweep — the iteration speed of every
//! table/figure harness.

use criterion::{criterion_group, criterion_main, Criterion};
use muse_core::presets;
use muse_faultsim::{muse_msed, simulate_retention, MsedConfig, RetentionModel};
use muse_memsim::{spec2017_profiles, System, SystemConfig, Workload};
use std::hint::black_box;

fn msed(c: &mut Criterion) {
    let code = presets::muse_144_132();
    let mut group = c.benchmark_group("msed");
    group.sample_size(20);
    group.bench_function("muse_144_132/500_trials", |b| {
        b.iter(|| {
            black_box(muse_msed(
                &code,
                MsedConfig {
                    trials: 500,
                    ..MsedConfig::default()
                },
            ))
        })
    });
    group.finish();
}

fn memsim(c: &mut Criterion) {
    let profile = spec2017_profiles()[8]; // lbm
    let mut group = c.benchmark_group("memsim");
    group.sample_size(20);
    group.bench_function("lbm/10k_mem_ops", |b| {
        b.iter(|| {
            let mut system = System::new(SystemConfig::default());
            let mut workload = Workload::new(profile, 1);
            black_box(system.run(&mut workload, 10_000))
        })
    });
    group.finish();
}

fn retention(c: &mut Criterion) {
    let code = presets::muse_80_67();
    let model = RetentionModel {
        weak_fraction: 1e-3,
        ..RetentionModel::default()
    };
    let mut group = c.benchmark_group("retention");
    group.sample_size(20);
    group.bench_function("muse_80_67/500_words", |b| {
        b.iter(|| black_box(simulate_retention(&code, &model, 1024.0, 500, 1, 0)))
    });
    group.finish();
}

criterion_group!(benches, msed, memsim, retention);
criterion_main!(benches);
