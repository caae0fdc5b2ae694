//! `service-spool`: the crash-only service as one client sees it.
//!
//! A closed loop with one client: each job goes `Spool::submit` →
//! `serve` (`once`) → `Spool::result_json` before the next is sent.
//! Every round submits ten distinct lifetime jobs (phase 1, cold:
//! computed, checkpointed and cached with fsync), then the same ten specs
//! again (phase 2, cached: served from the result cache); a run holds
//! well over 100 distinct jobs. Short rounds spread both phases over the
//! whole run, so a slow spell of the host lands on both alike. The spool
//! lives in a fresh directory under the checkout, on disk.
//!
//! Jobs have 1024 DIMMs in four shards, so every shard is large enough
//! for the engine to split over [`WORKERS`] workers; with single-threaded
//! jobs the cold latency drifted by ±15% between runs.
//!
//! Resolving a spec builds its code, a large part of a cached job, and
//! MUSE codes take longer to build than RS codes. With the four codes in
//! equal shares the cached p50 would sit on the step between the two and
//! jump from run to run, so jobs cycle through five slots with
//! MUSE(144,132) twice.

use std::path::PathBuf;
use std::time::Instant;

use muse_lifetime::{all_environments, simulate_fleet, FleetConfig, LifetimeTally};
use muse_service::{serve, JobResult, JobSpec, ServiceConfig, ServiceTelemetry, Spool};

use crate::stats::mix;
use crate::trace::Trace;
use crate::{Ctx, Ops, PhaseInfo, PhaseLog, Workload, WORKERS};

/// Jobs per round (each run twice: cold, then cached).
const JOBS_PER_ROUND: u64 = 10;
/// Code of job `i` is `CODE_MIX[i % 5]`.
const CODE_MIX: [&str; 5] = [
    "muse144_132",
    "muse80_69",
    "rs144_128_t1",
    "rs144_112_t2",
    "muse144_132",
];
/// DIMMs per job.
const JOB_DIMMS: u64 = 1024;
/// Supervisor shards per job.
pub const JOB_SHARDS: u32 = 4;
/// Every `VERIFY_STRIDE`-th job's cold tally is recomputed with
/// `simulate_fleet` after timing.
const VERIFY_STRIDE: usize = 7;

/// The spec of job `i` of round `round`.
pub fn job_spec(seed: u64, round: u64, i: u64) -> JobSpec {
    let envs = all_environments();
    JobSpec {
        code: CODE_MIX[(i % 5) as usize].to_string(),
        env: envs[((i / 5) as usize) % envs.len()].name.to_string(),
        dimms: JOB_DIMMS,
        seed: mix(seed, round, i),
        shards: JOB_SHARDS,
        threads: WORKERS,
        ..JobSpec::default()
    }
}

/// One job and its two results.
struct Job {
    spec: JobSpec,
    cold: Result<JobResult, String>,
    cached: Result<JobResult, String>,
}

/// The workload.
pub struct Service {
    seed: u64,
    root: PathBuf,
    spool: Spool,
    config: ServiceConfig,
    jobs: Vec<Job>,
}

impl Service {
    /// Runs one job through the spool: submit, serve, read the result.
    /// Spans: `muse_service.submit`, `muse_service.serve`,
    /// `muse_service.result_read`.
    pub fn run_job(
        &self,
        spec: &JobSpec,
        phase: &str,
        req: u64,
        trace: &mut Trace,
    ) -> Result<JobResult, String> {
        let (id, _) = trace.span("muse_service.submit", phase, req, |_| {
            self.spool.submit(spec)
        })?;
        let report = trace
            .span("muse_service.serve", phase, req, |_| {
                serve(&self.config, &ServiceTelemetry::default())
            })
            .map_err(|e| format!("serve: {e}"))?;
        if report.jobs_completed != 1 || report.jobs_failed != 0 {
            return Err(format!("job {id}: serve reported {report:?}"));
        }
        let result = trace.span("muse_service.result_read", phase, req, |_| {
            self.spool
                .result_json(&id)
                .map_err(|e| format!("reading result {id}: {e}"))
                .and_then(|json| JobResult::from_json(&json))
        })?;
        if result.id != id {
            return Err(format!("result for {} read back under id {id}", result.id));
        }
        Ok(result)
    }

    /// Jobs served from the cache ÷ jobs served.
    pub fn cache_hit_ratio(&self) -> f64 {
        let results = self.jobs.iter().flat_map(|j| [&j.cold, &j.cached]);
        let (hits, served) = results.fold((0u64, 0u64), |(h, n), r| match r {
            Ok(r) => (h + u64::from(r.cache_hit), n + 1),
            Err(_) => (h, n + 1),
        });
        hits as f64 / served.max(1) as f64
    }
}

/// The cold run computed the job and the cached run replayed it.
fn job_gate(cold: &JobResult, cached: &JobResult) -> Result<(), String> {
    if cold.cache_hit {
        return Err(format!("job {}: first run claims a cache hit", cold.id));
    }
    if !cached.cache_hit {
        return Err(format!("job {}: repeat run was recomputed", cold.id));
    }
    if cached.tally != cold.tally || cached.id != cold.id {
        return Err(format!(
            "job {}: cached {:?} != cold {:?}",
            cold.id, cached.tally, cold.tally
        ));
    }
    Ok(())
}

/// A job's tally is what `simulate_fleet` computes for its resolved spec.
/// Results carry no weighted accumulators, so those are compared cleared.
fn tally_gate(result: &LifetimeTally, reference: &LifetimeTally) -> Result<(), String> {
    let plain = LifetimeTally {
        due_weighted: Default::default(),
        sdc_weighted: Default::default(),
        weight_sum: Default::default(),
        ..*reference
    };
    if *result == plain {
        Ok(())
    } else {
        Err(format!("served {result:?} != simulate_fleet {plain:?}"))
    }
}

fn recompute(spec: &JobSpec) -> Result<LifetimeTally, String> {
    let (code, env, config) = spec.resolve()?;
    let config = FleetConfig {
        threads: 0,
        ..config
    };
    Ok(simulate_fleet(&code, &env, &config).tally)
}

impl Workload for Service {
    const NAME: &'static str = "service-spool";
    const PHASES: [PhaseInfo; 2] = [
        PhaseInfo {
            op: "cold job, submit to result read",
            work_unit: "jobs",
            aliases: [None, Some("job_cold_p50_ms"), Some("job_cold_p90_ms")],
        },
        PhaseInfo {
            op: "cached job, submit to result read",
            work_unit: "jobs",
            aliases: [None, Some("job_cached_p50_ms"), Some("job_cached_p90_ms")],
        },
    ];

    fn setup(ctx: &Ctx, rep: usize, trace: &mut Trace) -> Result<Self, String> {
        let root = ctx.work.join(format!("spool-{rep}"));
        let spool = trace
            .span("muse_service.spool_open", "", 0, |_| Spool::open(&root))
            .map_err(|e| format!("creating spool {}: {e}", root.display()))?;
        // Code construction: resolve one spec per code.
        for (i, code) in CODE_MIX.iter().enumerate() {
            let spec = JobSpec {
                code: code.to_string(),
                ..JobSpec::default()
            };
            trace.span("muse_service.resolve", code, i as u64, |_| spec.resolve())?;
        }
        let config = ServiceConfig {
            root: root.clone(),
            once: true,
            ..ServiceConfig::default()
        };
        Ok(Self {
            seed: ctx.seed,
            root,
            spool,
            config,
            jobs: Vec::new(),
        })
    }

    fn warm_up(&mut self) -> Result<(), String> {
        // Two jobs per code outside the timed set, each cold then cached.
        let mut trace = Trace::new(false);
        for i in 0..2 * CODE_MIX.len() as u64 {
            let spec = JobSpec {
                dimms: 64,
                ..job_spec(self.seed, u64::MAX, i)
            };
            self.run_job(&spec, "warm-up", i, &mut trace)?;
            self.run_job(&spec, "warm-up", i, &mut trace)?;
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
        let first = self.jobs.len();
        for i in 0..JOBS_PER_ROUND {
            let spec = job_spec(self.seed, round, i);
            let start = Instant::now();
            let cold = self.run_job(&spec, "cold", first as u64 + i, trace);
            phase1.op(1.0, start.elapsed().as_secs_f64());
            self.jobs.push(Job {
                spec,
                cold,
                cached: Err("not run".into()),
            });
        }
        for k in first..self.jobs.len() {
            let start = Instant::now();
            let cached = self.run_job(&self.jobs[k].spec, "cached", k as u64, trace);
            phase2.op(1.0, start.elapsed().as_secs_f64());
            self.jobs[k].cached = cached;
        }
        Ok(())
    }

    fn verify(&mut self) -> Ops {
        let mut ops = Ops::default();
        for (k, job) in self.jobs.iter().enumerate() {
            let gate = match (&job.cold, &job.cached) {
                (Ok(cold), Ok(cached)) => job_gate(cold, cached).and_then(|()| {
                    if k % VERIFY_STRIDE == 0 {
                        recompute(&job.spec).and_then(|t| tally_gate(&cold.tally, &t))
                    } else {
                        Ok(())
                    }
                }),
                (Err(e), _) | (_, Err(e)) => Err(e.clone()),
            };
            ops.gate(
                2,
                gate.map_err(|e| format!("job {k} ({}): {e}", job.spec.code)),
            );
        }
        ops
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        // Set-up repeats leave one spool each; the run directory holding
        // them is removed when the run ends, this just frees disk early.
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gates_pass_on_true_outputs_and_trip_on_wrong_ones() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.bench_build")
            .join(format!("perfbench-test-service-{}", std::process::id()));
        let ctx = Ctx {
            seed: 9,
            work: dir.clone(),
        };
        let mut service = Service::setup(&ctx, 0, &mut Trace::new(false)).expect("setup");
        let spec = JobSpec {
            dimms: 32,
            ..job_spec(9, 0, 3)
        };
        let mut trace = Trace::new(false);
        let cold = service.run_job(&spec, "cold", 0, &mut trace).expect("cold");
        let cached = service
            .run_job(&spec, "cached", 0, &mut trace)
            .expect("cached");
        job_gate(&cold, &cached).expect("true results pass");
        tally_gate(&cold.tally, &recompute(&spec).expect("resolve")).expect("tally");

        // A repeat that was recomputed, a cold run claiming a hit, a
        // cached tally that differs, a reference from another seed.
        assert!(job_gate(&cold, &cold).is_err());
        assert!(job_gate(&cached, &cached).is_err());
        let mut drifted = cached.clone();
        drifted.tally.due_words += 1;
        assert!(job_gate(&cold, &drifted).is_err());
        let other = recompute(&JobSpec { seed: 1, ..spec }).expect("resolve");
        assert!(tally_gate(&cold.tally, &other).is_err());

        service.jobs.clear();
        drop(service);
        let _ = std::fs::remove_dir_all(dir);
    }
}
