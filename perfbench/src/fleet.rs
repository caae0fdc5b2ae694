//! `fleet-lifetime`: the fleet-lifetime simulator at [`WORKERS`] workers.
//!
//! Phase 1 (healthy) is the `muse-tool lifetime` matrix:
//! `scenario_codes() × all_environments()` at `FleetConfig::default()`
//! with the naive estimator; one operation is one cell. Phase 2
//! (degraded) is `bench_lifetime`'s erasure-heavy fleet (every DIMM
//! starts with one retired device, transient FIT 5e7, weekly scrub) over
//! the same four codes. Its environment has no permanent faults, so the
//! horizon only scales the work; the phase runs it as twenty 0.25-year
//! fleets of 256 DIMMs per round (one operation = one fleet under all
//! four codes) instead of one 5-year fleet, which gives the phase enough
//! operations of equal size for a p90. 256 DIMMs is the smallest fleet
//! the engine splits across workers.

use std::time::Instant;

use muse_lifetime::{
    all_environments, run_sharded, scenario_codes, simulate_fleet, smoke_setup, verify_smoke,
    Environment, FleetCode, FleetConfig, LifetimeReport, LifetimeTally, RunnerConfig,
};

use crate::stats::mix;
use crate::trace::Trace;
use crate::{Ctx, Ops, PhaseInfo, PhaseLog, Workload, WORKERS};

/// Degraded fleets per round.
const DEGRADED_FLEETS: u64 = 20;
/// Span of one healthy matrix cell.
pub const HEALTHY_SPAN: &str = "muse_lifetime.simulate_fleet.healthy";
/// Span of one code's run of a degraded fleet.
pub const DEGRADED_SPAN: &str = "muse_lifetime.simulate_fleet.degraded";
/// Short names of [`scenario_codes`], in order.
pub const CODE_KEYS: [&str; 4] = ["muse144_132", "muse80_69", "rs144_128_t1", "rs144_112_t2"];

/// The erasure-heavy environment of `bench_lifetime`.
fn degraded_env() -> Environment {
    Environment {
        name: "erasure-throughput",
        transient_fit_per_device: 5.0e7,
        permanent_scale: [0.0, 0.0, 0.0],
        asymmetric_transients: false,
    }
}

/// One degraded fleet of the phase-2 rounds.
fn degraded_config(seed: u64) -> FleetConfig {
    FleetConfig {
        dimms: 256,
        years: 0.25,
        scrub_interval_hours: 168.0,
        initial_failed_devices: 1,
        spares_per_dimm: 0,
        seed,
        threads: WORKERS,
        ..FleetConfig::default()
    }
}

/// The workload.
pub struct Fleet {
    seed: u64,
    codes: Vec<FleetCode>,
    envs: Vec<Environment>,
    degraded_env: Environment,
    smoke: Result<(), String>,
    /// Per-operation gate failures, and the operations they failed.
    op_errors: Vec<String>,
    failed_ops: u64,
    healthy_ops: u64,
    degraded_ops: u64,
    /// Round 0's first healthy cell, for the cross-path gates.
    first_cell: Option<(FleetConfig, LifetimeTally)>,
    /// Erasure reads per code over all degraded operations.
    pub erasure_reads: [u64; 4],
}

impl Fleet {
    fn healthy_config(&self, round: u64, cell: u64) -> FleetConfig {
        FleetConfig {
            seed: mix(self.seed, round, cell),
            threads: WORKERS,
            ..FleetConfig::default()
        }
    }
}

/// A healthy cell covered every DIMM-epoch of its fleet.
fn healthy_gate(report: &LifetimeReport, config: &FleetConfig) -> Result<(), String> {
    let epochs = config.dimms * config.epochs();
    if report.tally.epochs != epochs {
        return Err(format!(
            "{} epochs, fleet has {epochs}",
            report.tally.epochs
        ));
    }
    if (report.machine_years - config.machine_years()).abs() > 1e-9 * config.machine_years() {
        return Err(format!(
            "{} machine-years, fleet has {}",
            report.machine_years,
            config.machine_years()
        ));
    }
    Ok(())
}

/// Every epoch of a degraded fleet ran degraded and read through the
/// erasure decoder.
fn degraded_gate(report: &LifetimeReport, config: &FleetConfig) -> Result<(), String> {
    let t = &report.tally;
    let epochs = config.dimms * config.epochs();
    if t.epochs != epochs || t.degraded_epochs != epochs || t.erasure_reads == 0 {
        return Err(format!(
            "{}: epochs {} / degraded {} / erasure reads {} on a {epochs}-epoch degraded fleet",
            report.code, t.epochs, t.degraded_epochs, t.erasure_reads
        ));
    }
    Ok(())
}

/// Two paths to one cell's tally agree.
fn equal_gate(what: &str, got: &LifetimeTally, want: &LifetimeTally) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: {got:?} != {want:?}"))
    }
}

impl Workload for Fleet {
    const NAME: &'static str = "fleet-lifetime";
    const PHASES: [PhaseInfo; 2] = [
        PhaseInfo {
            op: "healthy matrix cell (1024 DIMMs, 5 years)",
            work_unit: "machine-years",
            aliases: [Some("fleet_machine_years_per_s"), None, None],
        },
        PhaseInfo {
            op: "degraded 256-DIMM fleet under all four codes",
            work_unit: "erasure-reads",
            aliases: [Some("degraded_erasure_reads_per_s"), None, None],
        },
    ];

    fn setup(ctx: &Ctx, _rep: usize, trace: &mut Trace) -> Result<Self, String> {
        let codes = trace.span("muse_lifetime.scenario_codes", "", 0, |_| scenario_codes());
        if codes.len() != CODE_KEYS.len() {
            return Err(format!("{} scenario codes, expected 4", codes.len()));
        }
        Ok(Self {
            seed: ctx.seed,
            codes,
            envs: all_environments(),
            degraded_env: degraded_env(),
            smoke: Ok(()),
            op_errors: Vec::new(),
            failed_ops: 0,
            healthy_ops: 0,
            degraded_ops: 0,
            first_cell: None,
            erasure_reads: [0; 4],
        })
    }

    fn warm_up(&mut self) -> Result<(), String> {
        // The pinned smoke fleet gates everything after it.
        let (env, config) = smoke_setup();
        let reports: Vec<_> = self
            .codes
            .iter()
            .map(|code| simulate_fleet(code, &env, &config))
            .collect();
        self.smoke = verify_smoke(&reports).map_err(|e| format!("smoke pins: {e}"));
        for code in &self.codes {
            let small = FleetConfig {
                dimms: 256,
                years: 0.5,
                threads: WORKERS,
                ..FleetConfig::default()
            };
            std::hint::black_box(simulate_fleet(code, &self.envs[0], &small));
            let degraded = FleetConfig {
                years: 0.1,
                ..degraded_config(0)
            };
            std::hint::black_box(simulate_fleet(code, &self.degraded_env, &degraded));
        }
        Ok(())
    }

    fn round(
        &mut self,
        round: u64,
        trace: &mut Trace,
        phase1: &mut PhaseLog,
        phase2: &mut PhaseLog,
    ) -> Result<(), String> {
        for (ci, code) in self.codes.iter().enumerate() {
            for (ei, env) in self.envs.iter().enumerate() {
                let config = self.healthy_config(round, (ci * 16 + ei) as u64);
                let start = Instant::now();
                let report = trace.span(HEALTHY_SPAN, CODE_KEYS[ci], round, |_| {
                    simulate_fleet(code, env, &config)
                });
                phase1.op(report.machine_years, start.elapsed().as_secs_f64());
                self.healthy_ops += 1;
                if let Err(e) = healthy_gate(&report, &config) {
                    self.failed_ops += 1;
                    self.op_errors
                        .push(format!("healthy {}@{}: {e}", report.code, env.name));
                }
                if self.first_cell.is_none() {
                    self.first_cell = Some((config, report.tally));
                }
            }
        }
        for fleet in 0..DEGRADED_FLEETS {
            let config = degraded_config(mix(self.seed, round, 1000 + fleet));
            let start = Instant::now();
            let mut reads = 0u64;
            let mut gates = Ok(());
            for (ci, code) in self.codes.iter().enumerate() {
                let report = trace.span(DEGRADED_SPAN, CODE_KEYS[ci], round, |_| {
                    simulate_fleet(code, &self.degraded_env, &config)
                });
                reads += report.tally.erasure_reads;
                self.erasure_reads[ci] += report.tally.erasure_reads;
                gates = gates.and(degraded_gate(&report, &config));
            }
            phase2.op(reads as f64, start.elapsed().as_secs_f64());
            self.degraded_ops += 1;
            if let Err(e) = gates {
                self.failed_ops += 1;
                self.op_errors
                    .push(format!("degraded round {round} fleet {fleet}: {e}"));
            }
        }
        Ok(())
    }

    fn verify(&mut self) -> Ops {
        let mut ops = Ops::default();
        let total = self.healthy_ops + self.degraded_ops;
        let bad = self.failed_ops;
        ops.attempted += bad;
        ops.failed += bad;
        ops.errors.append(&mut self.op_errors);
        let mut global = self.smoke.clone();
        if let (Ok(()), Some((config, tally))) = (&global, &self.first_cell) {
            let (code, env) = (&self.codes[0], &self.envs[0]);
            let serial = FleetConfig {
                threads: 1,
                ..*config
            };
            global = equal_gate(
                "1 worker vs 2 workers",
                &simulate_fleet(code, env, &serial).tally,
                tally,
            );
            if global.is_ok() {
                let runner = RunnerConfig {
                    shards: 4,
                    ..RunnerConfig::default()
                };
                global = match run_sharded(code, env, &serial, &runner, None) {
                    Ok(outcome) => match outcome.report() {
                        Some(report) => {
                            equal_gate("run_sharded vs simulate_fleet", &report.tally, tally)
                        }
                        None => Err("run_sharded stopped before completing".into()),
                    },
                    Err(e) => Err(format!("run_sharded: {e}")),
                };
            }
        }
        ops.gate(total - bad, global);
        ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gates_pass_on_true_outputs_and_trip_on_wrong_ones() {
        let codes = scenario_codes();
        let env = &all_environments()[0];
        let config = FleetConfig {
            dimms: 64,
            years: 0.5,
            threads: 1,
            ..FleetConfig::default()
        };
        let report = simulate_fleet(&codes[0], env, &config);
        healthy_gate(&report, &config).expect("healthy");
        let bigger = FleetConfig {
            dimms: 65,
            ..config
        };
        assert!(healthy_gate(&report, &bigger).is_err());

        let degraded = FleetConfig {
            dimms: 16,
            ..degraded_config(5)
        };
        let report = simulate_fleet(&codes[2], &degraded_env(), &degraded);
        degraded_gate(&report, &degraded).expect("degraded");
        let healthy_report = simulate_fleet(&codes[2], env, &config);
        assert!(degraded_gate(&healthy_report, &config).is_err());

        // The smoke pins reject a fleet run at another seed.
        let (env, smoke) = smoke_setup();
        let reseeded = FleetConfig { seed: 1, ..smoke };
        let wrong: Vec<_> = codes
            .iter()
            .map(|c| simulate_fleet(c, &env, &reseeded))
            .collect();
        assert!(verify_smoke(&wrong).is_err());

        // A sharded tally compared against another seed's plain tally.
        let runner = RunnerConfig {
            shards: 4,
            ..RunnerConfig::default()
        };
        let sharded = run_sharded(&codes[0], &env, &smoke, &runner, None).expect("sharded");
        let sharded = sharded.report().expect("complete").tally;
        let plain = simulate_fleet(&codes[0], &env, &smoke).tally;
        equal_gate("same", &sharded, &plain).expect("same config agrees");
        let other = simulate_fleet(&codes[0], &env, &reseeded).tally;
        assert!(equal_gate("wrong", &sharded, &other).is_err());
    }
}
