//! `perfbench`: the repository's benchmark, one workload per run.
//!
//! ```text
//! perfbench --workload <table4-msed|fleet-lifetime|service-spool>
//!           --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//! perfbench --make-reference
//! ```
//!
//! Every workload has two timed phases made of operations (an MSED
//! cell, a fleet cell, a job). A run sets the workload up several times
//! (`setup_s` is the median), warms it up untimed, then runs rounds of
//! both phases until `--seconds` have passed and each phase holds enough
//! operations for its p90, and checks every output afterwards.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics.
//! With `--trace 1` rounds alternate between traced and untraced (their
//! ratio is `trace_overhead_pct`), and a layer suite times the calls
//! into each crate from spans recorded here, giving the per-layer
//! metrics. See `README.md` beside this package for what each metric
//! should move.

mod fleet;
mod layers;
mod service;
mod stats;
mod table4;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use stats::{median, percentile, Host, MIN_PHASE_OPS};
use trace::Trace;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Threads each workload keeps busy: the workers of every fleet and
/// service simulator call, and the single-worker streams of
/// `table4-msed`. Two is the core count of the host the bounds in
/// `BENCHMARK.json` were set on: there, runs that keep both cores busy
/// repeat within a few percent, while single-threaded runs drift by ±15%
/// from run to run as the other core idles.
pub const WORKERS: usize = 2;
/// A run stops adding rounds after this long even when a phase is still
/// short of samples (its p90 is then refused).
const ROUND_CAP: Duration = Duration::from_secs(100);

/// Inputs every workload derives its configuration from.
pub struct Ctx {
    /// The workload seed.
    pub seed: u64,
    /// Scratch directory inside the checkout (spools, checkpoints).
    pub work: PathBuf,
}

/// What one timed phase recorded.
#[derive(Default)]
pub struct PhaseLog {
    work: Vec<f64>,
    secs: Vec<f64>,
    op_ms: Vec<f64>,
}

impl PhaseLog {
    fn begin_round(&mut self) {
        self.work.push(0.0);
        self.secs.push(0.0);
    }

    /// Records one operation that did `work` units in `secs` seconds.
    pub fn op(&mut self, work: f64, secs: f64) {
        *self.work.last_mut().expect("round begun") += work;
        *self.secs.last_mut().expect("round begun") += secs;
        self.op_ms.push(secs * 1e3);
    }

    /// Operations recorded so far.
    pub fn ops(&self) -> usize {
        self.op_ms.len()
    }

    fn round_rates(&self) -> Vec<f64> {
        self.work
            .iter()
            .zip(&self.secs)
            .filter(|(_, &s)| s > 0.0)
            .map(|(w, s)| w / s)
            .collect()
    }
}

/// Operations attempted and failed by a run, with the reasons.
#[derive(Default)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output failed a correctness gate.
    pub failed: u64,
    /// One line per failed gate.
    pub errors: Vec<String>,
}

impl Ops {
    /// Counts `n` operations under one gate result.
    pub fn gate(&mut self, n: u64, result: Result<(), String>) {
        self.attempted += n;
        if let Err(e) = result {
            self.failed += n;
            self.errors.push(e);
        }
    }
}

/// Describes one phase for the report.
pub struct PhaseInfo {
    /// What an operation is.
    pub op: &'static str,
    /// Unit of the phase's work rate.
    pub work_unit: &'static str,
    /// Workload-specific names of this phase's rate, p50 and p90
    /// (`README.md`), printed beside the generic ones; `None` where a
    /// phase has no such name.
    pub aliases: [Option<&'static str>; 3],
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// Workload name as given to `--workload`.
    const NAME: &'static str;
    /// The two phases, in round order.
    const PHASES: [PhaseInfo; 2];

    /// Builds every input the timed rounds need (code construction,
    /// spool creation): the work `setup_s` measures. `rep` numbers the
    /// repeated set-ups of one run.
    fn setup(ctx: &Ctx, rep: usize, trace: &mut Trace) -> Result<Self, String>;

    /// Untimed warm-up before the first round.
    fn warm_up(&mut self) -> Result<(), String>;

    /// Runs round `round` of both phases.
    fn round(
        &mut self,
        round: u64,
        trace: &mut Trace,
        phase1: &mut PhaseLog,
        phase2: &mut PhaseLog,
    ) -> Result<(), String>;

    /// Checks every output recorded by the rounds.
    fn verify(&mut self) -> Ops;
}

/// One reported metric.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut argv = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work_dir = PathBuf::from(".bench_build/perfbench-work");
    while let Some(flag) = argv.next() {
        if flag == "--make-reference" {
            return Ok(None);
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v:?}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(number(&value)?),
            "--seconds" => seconds = Some(number(&value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            "--work-dir" => work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |f: &str| format!("missing {f}");
    let seconds = seconds.ok_or_else(|| missing("--seconds"))?;
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds {seconds} outside 1..=60"));
    }
    Ok(Some(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        work_dir,
    }))
}

/// What [`measure`] hands back.
struct Measured {
    setup_s: Vec<f64>,
    phase1: PhaseLog,
    phase2: PhaseLog,
    ops: Ops,
    /// Round wall times, untraced and traced (trace mode only).
    round_s: [Vec<f64>; 2],
    /// Spans of the traced rounds (trace mode only).
    trace: Trace,
    /// Host steal during the timed rounds, in percent of all cores' time.
    steal_pct: Option<f64>,
}

fn measure<W: Workload>(ctx: &Ctx, seconds: u64, traced: bool) -> Result<Measured, String> {
    let mut setup_trace = Trace::new(false);
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut workload = None;
    for rep in 0..SETUP_REPS {
        let start = Instant::now();
        let w = W::setup(ctx, rep, &mut setup_trace)?;
        setup_s.push(start.elapsed().as_secs_f64());
        workload = Some(w);
    }
    let mut w = workload.expect("at least one set-up");
    w.warm_up()?;

    let mut traces = [Trace::new(false), Trace::new(true)];
    let mut phase1 = PhaseLog::default();
    let mut phase2 = PhaseLog::default();
    let mut round_s = [Vec::new(), Vec::new()];
    let budget = Duration::from_secs(seconds);
    let ticks = stats::cpu_ticks();
    let start = Instant::now();
    for round in 0u64.. {
        let elapsed = start.elapsed();
        let enough = if traced {
            // Trace mode reports no percentiles; it needs traced and
            // untraced rounds in pairs.
            round >= 4 && round % 2 == 0
        } else {
            phase1.ops() >= MIN_PHASE_OPS && phase2.ops() >= MIN_PHASE_OPS
        };
        if (elapsed >= budget && enough) || elapsed >= ROUND_CAP {
            break;
        }
        let side = usize::from(traced && round % 2 == 1);
        let trace = &mut traces[side];
        phase1.begin_round();
        phase2.begin_round();
        let round_start = Instant::now();
        trace.span("perfbench.round", W::NAME, round, |t| {
            w.round(round, t, &mut phase1, &mut phase2)
        })?;
        round_s[side].push(round_start.elapsed().as_secs_f64());
    }
    let steal_pct = stats::steal_pct(ticks, stats::cpu_ticks());
    let ops = w.verify();
    let [_, trace] = traces;
    Ok(Measured {
        setup_s,
        phase1,
        phase2,
        ops,
        round_s,
        trace,
        steal_pct,
    })
}

/// The end-to-end metrics of an untraced run, with a human line for each.
fn end_to_end<W: Workload>(m: &Measured, lines: &mut Vec<String>) -> Result<Vec<Metric>, String> {
    let mut metrics = vec![Metric::new("setup_s", median(&m.setup_s), "s")];
    lines.push(format!(
        "setup_s = {:.6} s (median of {} set-ups)",
        median(&m.setup_s),
        m.setup_s.len()
    ));
    let rss = stats::peak_rss_mb()?;
    metrics.push(Metric::new("peak_rss_mb", rss, "MB"));
    lines.push(format!("peak_rss_mb = {rss:.3} MB"));
    for (i, (log, info)) in [&m.phase1, &m.phase2]
        .into_iter()
        .zip(&W::PHASES)
        .enumerate()
    {
        let n = i + 1;
        let rates = log.round_rates();
        if rates.is_empty() {
            return Err(format!("phase {n} ran no operations"));
        }
        let rate = median(&rates);
        let alias = |k: usize| info.aliases[k].map_or(String::new(), |a| format!(" [{a}]"));
        lines.push(format!(
            "phase{n}_per_s = {rate:.6e} {}/s{} (median of {} rounds; IQR {:.3e}..{:.3e})",
            info.work_unit,
            alias(0),
            rates.len(),
            stats::quantile(&rates, 0.25),
            stats::quantile(&rates, 0.75),
        ));
        metrics.push(Metric::new(format!("phase{n}_per_s"), rate, "1/s"));
        for (k, q) in [(1, 0.5), (2, 0.9)] {
            let p =
                percentile(&log.op_ms, q).map_err(|e| format!("phase {n} ({}) {e}", info.op))?;
            let pct = (q * 100.0) as u32;
            lines.push(format!(
                "phase{n}_p{pct}_ms = {:.4} ms{} (per {}; n={}, {} beyond)",
                p.value,
                alias(k),
                info.op,
                p.samples,
                p.beyond
            ));
            metrics.push(Metric::new(format!("phase{n}_p{pct}_ms"), p.value, "ms"));
        }
    }
    Ok(metrics)
}

fn run_workload<W: Workload>(args: &Args, ctx: &Ctx) -> Result<(Vec<Metric>, Ops), String> {
    let m = measure::<W>(ctx, args.seconds, args.trace)?;
    let mut lines = Vec::new();
    let metrics = if args.trace {
        let untraced = median(&m.round_s[0]);
        let traced = median(&m.round_s[1]);
        let overhead = 100.0 * (traced / untraced - 1.0);
        lines.push(format!(
            "trace_overhead_pct = {overhead:.3} % ({} traced vs {} untraced rounds)",
            m.round_s[1].len(),
            m.round_s[0].len()
        ));
        let out = args.work_dir.join(format!("trace-{}.jsonl", W::NAME));
        m.trace
            .write_jsonl(&out)
            .map_err(|e| format!("writing {}: {e}", out.display()))?;
        let mut metrics = layers::run(ctx, &args.work_dir, &mut lines)?;
        metrics.push(Metric::new("trace_overhead_pct", overhead, "%"));
        metrics
    } else {
        end_to_end::<W>(&m, &mut lines)?
    };
    // Time the hypervisor gave to other guests slows every phase alike
    // and is no property of the code; it is printed so that a slow run
    // can be told from a slow change. It is not a metric.
    lines.push(match m.steal_pct {
        Some(pct) => format!("host_steal_pct = {pct:.2} % (all cores, timed rounds, /proc/stat)"),
        None => "host_steal_pct unavailable (/proc/stat unreadable)".to_string(),
    });
    let ratio = m.ops.failed as f64 / m.ops.attempted.max(1) as f64;
    lines.push(format!(
        "ops_failed_ratio = {ratio} ({} of {} operations failed)",
        m.ops.failed, m.ops.attempted
    ));
    for line in &lines {
        println!("{line}");
    }
    Ok((metrics, m.ops))
}

fn result_json(correct: bool, ops: &Ops, metrics: &[Metric]) -> Result<String, String> {
    let mut body = Vec::with_capacity(metrics.len());
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite ({})", m.name, m.value));
        }
        body.push(format!(
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.attempted,
        ops.failed,
        body.join(", ")
    ))
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let host = Host::detect();
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("host: {}", host.json());
    let work = args.work_dir.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let ctx = Ctx {
        seed: args.seed,
        work: work.clone(),
    };
    let outcome = match args.workload.as_str() {
        table4::Table4::NAME => run_workload::<table4::Table4>(args, &ctx),
        fleet::Fleet::NAME => run_workload::<fleet::Fleet>(args, &ctx),
        service::Service::NAME => run_workload::<service::Service>(args, &ctx),
        other => Err(format!("unknown workload {other:?}")),
    };
    let cleanup = std::fs::remove_dir_all(&work);
    let (metrics, ops) = outcome?;
    cleanup.map_err(|e| format!("removing {}: {e}", work.display()))?;
    for e in &ops.errors {
        println!("GATE FAILED: {e}");
    }
    let correct = ops.failed == 0 && ops.errors.is_empty() && ops.attempted > 0;
    println!("{}", result_json(correct, &ops, &metrics)?);
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match parse_args() {
        Ok(None) => {
            table4::print_reference();
            ExitCode::SUCCESS
        }
        Ok(Some(args)) => match run(&args) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
