//! Machine-readable fault-simulation performance snapshot.
//!
//! Measures trials/second for every simulator, plus the pre-engine naive
//! MSED baseline and a thread-scaling sweep of the flagship MSED kernel,
//! and writes `BENCH_faultsim.json` (schema `faultsim-bench/v3`, field
//! reference in the `muse-bench` crate docs) to the current directory so
//! later PRs can compare against a recorded trajectory.
//!
//! Single-core honesty: on a 1-core host an `all_threads` leg would just
//! re-measure the serial path with jitter, so rows carry one canonical
//! `one_thread` measurement, `msed_speedup_vs_naive.all_threads` is
//! omitted, and the sweep rows beyond 1 thread are emitted as explicit
//! `"skipped_single_core": true` markers instead of noise.
//!
//! Usage: `cargo run --release --bin bench_faultsim [trials]`

use std::time::Instant;

use muse_bench::naive_msed;
use muse_core::presets;
use muse_faultsim::{
    measure_mode, muse_msed, rs_msed, simulate_attacks, simulate_retention, simulate_scrubbing,
    simulate_stack, FailureMode, LineHasher, MsedConfig, RetentionModel, RsDetectMode, ScrubConfig,
    Stack,
};
use muse_rs::RsMemoryCode;

/// Best-of-3 wall-clock seconds for one run.
fn measure(mut f: impl FnMut()) -> f64 {
    (0..3)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Measures a simulator serially and, on multi-core hosts only, at all
/// workers. A 1-core "all threads" leg is the serial path re-timed with
/// jitter, so it is not measured at all there.
fn measure_pair(single_core: bool, mut run: impl FnMut(usize)) -> (f64, Option<f64>) {
    let one = measure(|| run(1));
    let all = (!single_core).then(|| measure(|| run(0)));
    (one, all)
}

/// Sweep points 1, 2, 4, … up to the core count (which is appended when
/// not itself a power of two). A 1-core host keeps the canonical
/// [1, 2, 4] shape so consumers always see the same rows; the >1 entries
/// are emitted as `skipped_single_core` markers.
fn sweep_points(logical_cores: usize) -> Vec<usize> {
    let cap = logical_cores.max(4);
    let mut points = Vec::new();
    let mut t = 1;
    while t <= cap {
        points.push(t);
        t *= 2;
    }
    if logical_cores > 1 && !points.contains(&logical_cores) {
        points.push(logical_cores);
        points.sort_unstable();
    }
    if logical_cores > 1 {
        points.retain(|&p| p <= logical_cores);
    }
    points
}

struct Row {
    name: &'static str,
    trials: u64,
    secs_one: f64,
    secs_all: Option<f64>,
}

impl Row {
    fn rate(trials: u64, secs: f64) -> f64 {
        trials as f64 / secs
    }

    fn json(&self) -> String {
        let mut row = format!(
            "    {{\"name\": \"{}\", \"trials\": {}, \"one_thread\": {{\"seconds\": {:.6}, \"trials_per_sec\": {:.0}}}",
            self.name,
            self.trials,
            self.secs_one,
            Self::rate(self.trials, self.secs_one),
        );
        if let Some(secs_all) = self.secs_all {
            row.push_str(&format!(
                ", \"all_threads\": {{\"seconds\": {:.6}, \"trials_per_sec\": {:.0}}}",
                secs_all,
                Self::rate(self.trials, secs_all),
            ));
        }
        row.push('}');
        row
    }
}

fn main() {
    let trials: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(20_000);
    let threads_available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let single_core = threads_available == 1;

    let muse = presets::muse_144_132();
    let muse_asym = presets::muse_80_67();
    let muse80 = presets::muse_80_69();
    let rs = RsMemoryCode::new(8, 144, 1).expect("geometry");
    let hasher = LineHasher::new(0x0123_4567_89AB_CDEF, 0xFEDC_BA98_7654_3210);

    let msed_cfg = |threads| MsedConfig {
        trials,
        threads,
        ..MsedConfig::default()
    };
    let retention_model = RetentionModel {
        weak_fraction: 1e-3,
        ..RetentionModel::default()
    };
    let line_trials = trials / 10; // rowhammer episodes are ~8 codewords each
    let scrub_cfg = |threads| ScrubConfig {
        device_fit: 2e6,
        words: trials / 20,
        horizon_hours: 10_000.0,
        threads,
        ..ScrubConfig::default()
    };

    let naive_secs = measure(|| {
        std::hint::black_box(naive_msed(&muse, msed_cfg(1)));
    });
    let mut rows = vec![Row {
        name: "msed_naive_wide_serial",
        trials,
        secs_one: naive_secs,
        secs_all: None,
    }];

    let mut push = |name: &'static str, n: u64, (one, all): (f64, Option<f64>)| {
        rows.push(Row {
            name,
            trials: n,
            secs_one: one,
            secs_all: all,
        });
    };

    push(
        "msed_muse_144_132",
        trials,
        measure_pair(single_core, |t| {
            std::hint::black_box(muse_msed(&muse, msed_cfg(t)));
        }),
    );

    push(
        "msed_rs_144_128",
        trials,
        measure_pair(single_core, |t| {
            std::hint::black_box(rs_msed(&rs, 4, RsDetectMode::DeviceConfined, msed_cfg(t)));
        }),
    );

    // The t = 2 row measures the retired wide-PGZ-per-trial fallback's
    // replacement: closed-form syndrome-domain double-error location.
    let rs_t2 = RsMemoryCode::new(8, 144, 2).expect("geometry");
    push(
        "msed_rs_144_112_t2",
        trials,
        measure_pair(single_core, |t| {
            std::hint::black_box(rs_msed(
                &rs_t2,
                4,
                RsDetectMode::DeviceConfined,
                msed_cfg(t),
            ));
        }),
    );

    let pim = presets::muse_268_256();
    push(
        "msed_muse_268_256",
        trials,
        measure_pair(single_core, |t| {
            std::hint::black_box(muse_msed(&pim, msed_cfg(t)));
        }),
    );

    push(
        "retention_muse_80_67",
        trials,
        measure_pair(single_core, |t| {
            std::hint::black_box(simulate_retention(
                &muse_asym,
                &retention_model,
                1024.0,
                trials,
                1,
                t,
            ));
        }),
    );

    push(
        "rowhammer_muse_80_69",
        line_trials,
        measure_pair(single_core, |t| {
            std::hint::black_box(simulate_attacks(&muse80, &hasher, 8, line_trials, 9, t));
        }),
    );

    let ondie_words = trials / 40; // each word simulates 36 on-die devices
    push(
        "ondie_stacked_144_132",
        ondie_words,
        measure_pair(single_core, |t| {
            std::hint::black_box(simulate_stack(
                Stack::Stacked,
                Some(&muse),
                1e-3,
                ondie_words,
                3,
                t,
            ));
        }),
    );

    push(
        "scrub_muse_80_69",
        scrub_cfg(0).words,
        measure_pair(single_core, |t| {
            std::hint::black_box(simulate_scrubbing(&muse80, &scrub_cfg(t)));
        }),
    );

    push(
        "fit_two_devices_144_132",
        trials,
        measure_pair(single_core, |t| {
            std::hint::black_box(measure_mode(&muse, FailureMode::TwoDevices, trials, 17, t));
        }),
    );

    // Thread-scaling sweep of the flagship MSED kernel: 1, 2, 4, … up to
    // the core count, with per-row parallel efficiency relative to the
    // 1-thread rate. On a 1-core host the >1 rows are skipped markers.
    let sweep_serial_secs = rows[1].secs_one;
    let sweep_serial_rate = Row::rate(trials, sweep_serial_secs);
    let mut sweep_rows = Vec::new();
    for threads in sweep_points(threads_available) {
        if threads == 1 {
            sweep_rows.push(format!(
                "      {{\"threads\": 1, \"seconds\": {:.6}, \"trials_per_sec\": {:.0}, \"efficiency\": 1.0}}",
                sweep_serial_secs, sweep_serial_rate,
            ));
        } else if single_core {
            sweep_rows.push(format!(
                "      {{\"threads\": {threads}, \"skipped_single_core\": true}}"
            ));
        } else {
            let secs = measure(|| {
                std::hint::black_box(muse_msed(&muse, msed_cfg(threads)));
            });
            let rate = Row::rate(trials, secs);
            sweep_rows.push(format!(
                "      {{\"threads\": {}, \"seconds\": {:.6}, \"trials_per_sec\": {:.0}, \"efficiency\": {:.3}}}",
                threads,
                secs,
                rate,
                rate / (sweep_serial_rate * threads as f64),
            ));
        }
    }

    let speedup_one = naive_secs / rows[1].secs_one;
    let speedup_all = rows[1].secs_all.map(|secs| naive_secs / secs);

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"faultsim-bench/v3\",\n");
    json.push_str(&format!(
        "  \"host\": {},\n",
        muse_bench::HostInfo::detect().json()
    ));
    json.push_str(&format!("  \"threads_available\": {threads_available},\n"));
    json.push_str(&format!("  \"trials\": {trials},\n"));
    match speedup_all {
        Some(all) => json.push_str(&format!(
            "  \"msed_speedup_vs_naive\": {{\"one_thread\": {speedup_one:.2}, \"all_threads\": {all:.2}}},\n"
        )),
        None => json.push_str(&format!(
            "  \"msed_speedup_vs_naive\": {{\"one_thread\": {speedup_one:.2}}},\n"
        )),
    }
    json.push_str(&format!(
        "  \"thread_sweep\": {{\"name\": \"msed_muse_144_132\", \"trials\": {trials}, \"rows\": [\n"
    ));
    json.push_str(&sweep_rows.join(",\n"));
    json.push_str("\n    ]},\n");
    json.push_str("  \"results\": [\n");
    let body: Vec<String> = rows.iter().map(Row::json).collect();
    json.push_str(&body.join(",\n"));
    json.push_str("\n  ]\n}\n");

    std::fs::write("BENCH_faultsim.json", &json).expect("write BENCH_faultsim.json");

    println!("wrote BENCH_faultsim.json ({threads_available} CPUs)\n");
    println!(
        "{:<26} {:>14} {:>14} {:>10}",
        "simulator", "1-thread/s", "all-threads/s", "trials"
    );
    for row in &rows {
        let all = row.secs_all.map_or_else(
            || "-".into(),
            |s| format!("{:.0}", Row::rate(row.trials, s)),
        );
        println!(
            "{:<26} {:>14.0} {:>14} {:>10}",
            row.name,
            Row::rate(row.trials, row.secs_one),
            all,
            row.trials
        );
    }
    match speedup_all {
        Some(all) => println!(
            "\nmuse_msed vs naive wide loop: {speedup_one:.2}x (1 thread), {all:.2}x ({threads_available} threads)"
        ),
        None => println!(
            "\nmuse_msed vs naive wide loop: {speedup_one:.2}x (1 thread; single-core host, no parallel leg)"
        ),
    }
}
