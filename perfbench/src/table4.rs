//! `table4-msed`: all of Table IV, as `crates/bench/src/bin/table4.rs`
//! computes it, every simulator call at one worker.
//!
//! Phase 1 runs the six MUSE cells (the largest searched multiplier on
//! 144 bits for r = 16..12, plus MUSE(80,69)); phase 2 the eight RS
//! cells (s = 8..5, t = 1, `DeviceConfined` and `SymbolSyndromes`). Each
//! cell runs [`CHUNKS`] chunks per round at a fixed trial count, each on
//! its own seed, and one operation is one phase of a round: a family's
//! whole share of Table IV. Single cells would make poor latency
//! samples, as their costs differ by up to 3.6x and a percentile lands on
//! the step between two cells. Trials per family are sized so both
//! phases take comparable time: at equal trials the RS cells take about
//! seven times longer per trial. A run sums to ledger-grade counts (over
//! 100M trials per MUSE cell).
//!
//! The chunks of a phase form one queue that [`WORKERS`] single-worker
//! streams drain. When the host holds one core back, the other stream
//! takes the remaining chunks, so the phase loses about half the held
//! time. Under a static split (each cell over all workers in turn) every
//! cell would wait for its slowest worker, and phase times followed the
//! host's steal more than the code.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use muse_core::{
    find_multipliers, presets, Direction, ErrorModel, MuseCode, SearchOptions, SymbolMap,
};
use muse_faultsim::{muse_msed, muse_msed_scalar, rs_msed, MsedConfig, MsedStats, RsDetectMode};
use muse_rs::RsMemoryCode;

use crate::stats::mix;
use crate::trace::Trace;
use crate::{Ctx, Ops, PhaseInfo, PhaseLog, Workload, WORKERS};

/// Chunks per cell per round.
pub const CHUNKS: u64 = 4;
/// Trials per MUSE chunk (1M per cell per round).
const MUSE_TRIALS: u64 = 250_000;
/// Trials per RS chunk (150k per cell per round).
const RS_TRIALS: u64 = 37_500;
/// Trials of the lane-kernel-vs-scalar-oracle prefix per MUSE cell.
const LANE_PREFIX: u64 = 1 << 16;
/// Multiplier widths searched on 144 bits (extra bits 0..=4).
pub const WIDTHS: [u32; 5] = [16, 15, 14, 13, 12];
/// The largest valid multiplier of each width in [`WIDTHS`] (Table IV).
const EXPECTED_MULTIPLIERS: [u64; 5] = [65519, 32749, 16367, 8167, 4065];
/// RS symbol widths (extra bits 0, 2, 4, 6).
const RS_SYMBOLS: [u32; 4] = [8, 7, 6, 5];
/// Device width of the RS cells (x4 devices).
const RS_DEVICE_BITS: u32 = 4;

/// A Table IV cell.
pub enum CellCode {
    /// A MUSE code.
    Muse(Box<MuseCode>),
    /// An RS code under one detection reading.
    Rs(RsMemoryCode, RsDetectMode),
}

/// One cell with everything its runs recorded.
pub struct Cell {
    /// Stable cell name (used in metric names and the reference table).
    pub name: String,
    /// The code under test.
    pub code: CellCode,
    /// Whether set-up found the multiplier Table IV lists.
    search_ok: Result<(), String>,
    /// Merged tallies of every timed chunk.
    total: MsedStats,
    /// Timed chunks run.
    ops: u64,
    /// Chunks whose counts did not sum to their trials.
    bad_sums: Vec<String>,
}

impl Cell {
    /// Trials per chunk of this cell.
    pub fn trials(&self) -> u64 {
        match self.code {
            CellCode::Muse(_) => MUSE_TRIALS,
            CellCode::Rs(..) => RS_TRIALS,
        }
    }

    /// Runs the cell once.
    pub fn run(&self, config: MsedConfig) -> MsedStats {
        match &self.code {
            CellCode::Muse(code) => muse_msed(code, config),
            CellCode::Rs(code, mode) => rs_msed(code, RS_DEVICE_BITS, *mode, config),
        }
    }
}

fn new_cell(name: String, code: CellCode, search_ok: Result<(), String>) -> Cell {
    Cell {
        name,
        code,
        search_ok,
        total: MsedStats::default(),
        ops: 0,
        bad_sums: Vec::new(),
    }
}

/// Builds the fourteen cells. Spans: `muse_core.search` per width,
/// `muse_core.code_build` per MUSE code, `muse_rs.code_build` per RS
/// code.
fn build_cells(trace: &mut Trace) -> Result<Vec<Cell>, String> {
    let map144 = SymbolMap::sequential(144, 4).map_err(|e| format!("layout: {e:?}"))?;
    let model = ErrorModel::symbol(Direction::Bidirectional);
    let mut cells = Vec::with_capacity(14);
    for (&p, &expected) in WIDTHS.iter().zip(&EXPECTED_MULTIPLIERS) {
        let width = format!("r{p}");
        let options = SearchOptions {
            threads: WORKERS,
            limit: 0,
        };
        let found = trace.span("muse_core.search", &width, 0, |_| {
            find_multipliers(&map144, &model, p, options)
        });
        let m = *found
            .last()
            .ok_or_else(|| format!("no {p}-bit multiplier found"))?;
        let search_ok = if m == expected {
            Ok(())
        } else {
            Err(format!(
                "r={p}: largest multiplier {m}, Table IV has {expected}"
            ))
        };
        let name = format!("muse144_{width}");
        let code = trace.span("muse_core.code_build", &name, 0, |_| {
            MuseCode::new(map144.clone(), model.clone(), m)
        });
        let code = code.map_err(|e| format!("MuseCode::new(m={m}): {e:?}"))?;
        cells.push(new_cell(name, CellCode::Muse(Box::new(code)), search_ok));
    }
    let code = trace.span("muse_core.code_build", "muse80_69", 0, |_| {
        presets::muse_80_69()
    });
    cells.push(new_cell(
        "muse80_69".into(),
        CellCode::Muse(Box::new(code)),
        Ok(()),
    ));
    for s in RS_SYMBOLS {
        let code = trace.span("muse_rs.code_build", &format!("s{s}"), 0, |_| {
            RsMemoryCode::new(s, 144, 1)
        });
        let code = code.map_err(|e| format!("RsMemoryCode::new({s}, 144, 1): {e:?}"))?;
        for (mode, tag) in [
            (RsDetectMode::DeviceConfined, "confined"),
            (RsDetectMode::SymbolSyndromes, "symbol"),
        ] {
            cells.push(new_cell(
                format!("rs_s{s}_{tag}"),
                CellCode::Rs(code.clone(), mode),
                Ok(()),
            ));
        }
    }
    Ok(cells)
}

/// The workload.
pub struct Table4 {
    seed: u64,
    /// The cells, MUSE first.
    pub cells: Vec<Cell>,
}

impl Table4 {
    fn config(&self, cell: usize, trials: u64, salt: u64) -> MsedConfig {
        MsedConfig {
            failing_devices: 2,
            trials,
            seed: mix(self.seed, cell as u64, salt),
            threads: 1,
        }
    }
}

/// One chunk as a stream ran it.
struct ChunkRun {
    /// Index into the phase's job list.
    job: usize,
    stats: MsedStats,
    start: Instant,
    end: Instant,
}

/// Runs every `(cell, config)` job on [`WORKERS`] threads, each taking
/// the next job from a shared counter until none is left.
fn run_streams(cells: &[Cell], jobs: &[(usize, MsedConfig)]) -> Vec<ChunkRun> {
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let streams: Vec<_> = (0..WORKERS)
            .map(|_| {
                scope.spawn(|| {
                    let mut runs = Vec::new();
                    loop {
                        let job = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(cell, config)) = jobs.get(job) else {
                            return runs;
                        };
                        let start = Instant::now();
                        let stats = cells[cell].run(config);
                        let end = Instant::now();
                        runs.push(ChunkRun {
                            job,
                            stats,
                            start,
                            end,
                        });
                    }
                })
            })
            .collect();
        streams
            .into_iter()
            .flat_map(|s| s.join().expect("stream thread panicked"))
            .collect()
    })
}

impl Workload for Table4 {
    const NAME: &'static str = "table4-msed";
    const PHASES: [PhaseInfo; 2] = [
        PhaseInfo {
            op: "six MUSE cells at 1M trials each, in 4 chunks",
            work_unit: "trials",
            aliases: [Some("msed_muse_trials_per_s"), None, None],
        },
        PhaseInfo {
            op: "eight RS cells at 150k trials each, in 4 chunks",
            work_unit: "trials",
            aliases: [Some("msed_rs_trials_per_s"), None, None],
        },
    ];

    fn setup(ctx: &Ctx, _rep: usize, trace: &mut Trace) -> Result<Self, String> {
        Ok(Self {
            seed: ctx.seed,
            cells: build_cells(trace)?,
        })
    }

    fn warm_up(&mut self) -> Result<(), String> {
        for (i, cell) in self.cells.iter().enumerate() {
            std::hint::black_box(cell.run(self.config(i, cell.trials(), u64::MAX)));
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
        for (muse, phase) in [(true, phase1), (false, phase2)] {
            let span = if muse {
                "muse_faultsim.muse_msed"
            } else {
                "muse_faultsim.rs_msed"
            };
            // Chunk-major order: the last chunks of the queue are one of
            // each cell, so the streams finish within a chunk of another.
            let mut jobs = Vec::new();
            for chunk in 0..CHUNKS {
                for (i, cell) in self.cells.iter().enumerate() {
                    if matches!(cell.code, CellCode::Muse(_)) == muse {
                        jobs.push((i, self.config(i, cell.trials(), round * CHUNKS + chunk)));
                    }
                }
            }
            let start = Instant::now();
            let runs = run_streams(&self.cells, &jobs);
            let trials: u64 = jobs.iter().map(|(_, config)| config.trials).sum();
            phase.op(trials as f64, start.elapsed().as_secs_f64());
            for run in runs {
                let (i, config) = jobs[run.job];
                let cell = &mut self.cells[i];
                trace.record(span, &cell.name, round, run.start, run.end);
                cell.ops += 1;
                if let Err(e) = sum_gate(&run.stats, config.trials) {
                    cell.bad_sums
                        .push(format!("{} round {round}: {e}", cell.name));
                }
                cell.total.detected += run.stats.detected;
                cell.total.corrected += run.stats.corrected;
                cell.total.miscorrected += run.stats.miscorrected;
                cell.total.silent += run.stats.silent;
            }
        }
        Ok(())
    }

    fn verify(&mut self) -> Ops {
        let mut ops = Ops::default();
        for (i, cell) in self.cells.iter().enumerate() {
            let bad = cell.bad_sums.len() as u64;
            for e in &cell.bad_sums {
                ops.errors.push(e.clone());
            }
            ops.attempted += bad;
            ops.failed += bad;
            let mut gate = cell.search_ok.clone();
            if gate.is_ok() {
                gate = rate_gate(&cell.total, reference(&cell.name));
            }
            if let (Ok(()), CellCode::Muse(code)) = (&gate, &cell.code) {
                let config = self.config(i, LANE_PREFIX, u64::MAX - 1);
                gate = lane_gate(&muse_msed(code, config), &muse_msed_scalar(code, config));
            }
            ops.gate(
                cell.ops - bad,
                gate.map_err(|e| format!("{}: {e}", cell.name)),
            );
        }
        ops
    }
}

/// A cell's reference rate: detections out of beyond-model outcomes over
/// a long run at a seed no benchmark run uses.
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    /// Detected errors.
    pub detected: u64,
    /// Beyond-model outcomes (detected + miscorrected + silent).
    pub beyond: u64,
}

/// Seed of the reference runs.
const REFERENCE_SEED: u64 = 0x007A_B1E4_0000;
/// Trials per MUSE reference cell.
const REFERENCE_MUSE_TRIALS: u64 = 200_000_000;
/// Trials per RS reference cell.
const REFERENCE_RS_TRIALS: u64 = 40_000_000;

/// The committed references, generated by `perfbench --make-reference`.
/// An intentional change to a simulator's PRNG stream moves the
/// estimates by sampling noise only, which the 4σ band absorbs; a
/// change in what a cell measures does not.
const REFERENCES: [(&str, Reference); 14] = [
    (
        "muse144_r16",
        Reference {
            detected: 197019417,
            beyond: 200000000,
        },
    ),
    (
        "muse144_r15",
        Reference {
            detected: 196494830,
            beyond: 200000000,
        },
    ),
    (
        "muse144_r14",
        Reference {
            detected: 193842508,
            beyond: 200000000,
        },
    ),
    (
        "muse144_r13",
        Reference {
            detected: 188239764,
            beyond: 200000000,
        },
    ),
    (
        "muse144_r12",
        Reference {
            detected: 174430504,
            beyond: 199999965,
        },
    ),
    (
        "muse80_69",
        Reference {
            detected: 169207083,
            beyond: 199999704,
        },
    ),
    (
        "rs_s8_confined",
        Reference {
            detected: 37631625,
            beyond: 38857062,
        },
    ),
    (
        "rs_s8_symbol",
        Reference {
            detected: 36356954,
            beyond: 38857062,
        },
    ),
    (
        "rs_s7_confined",
        Reference {
            detected: 38046094,
            beyond: 39525853,
        },
    ),
    (
        "rs_s7_symbol",
        Reference {
            detected: 33541235,
            beyond: 39525853,
        },
    ),
    (
        "rs_s6_confined",
        Reference {
            detected: 34858232,
            beyond: 39694605,
        },
    ),
    (
        "rs_s6_symbol",
        Reference {
            detected: 25823035,
            beyond: 39694605,
        },
    ),
    (
        "rs_s5_confined",
        Reference {
            detected: 25070584,
            beyond: 39857821,
        },
    ),
    (
        "rs_s5_symbol",
        Reference {
            detected: 5865622,
            beyond: 39857821,
        },
    ),
];

/// The committed reference of a cell.
fn reference(cell: &str) -> &'static Reference {
    &REFERENCES
        .iter()
        .find(|(name, _)| *name == cell)
        .unwrap_or_else(|| panic!("no reference for cell {cell}"))
        .1
}

/// Every trial lands in exactly one outcome.
fn sum_gate(stats: &MsedStats, trials: u64) -> Result<(), String> {
    if stats.total() == trials {
        Ok(())
    } else {
        Err(format!(
            "outcomes sum to {}, ran {trials} trials",
            stats.total()
        ))
    }
}

/// The detection rate lies within 4σ (binomial, both estimates'
/// sampling error) of the reference.
fn rate_gate(stats: &MsedStats, reference: &Reference) -> Result<(), String> {
    let n = (stats.detected + stats.miscorrected + stats.silent) as f64;
    if n == 0.0 {
        return Err("no beyond-model outcomes".into());
    }
    let p = stats.detected as f64 / n;
    let p_ref = reference.detected as f64 / reference.beyond as f64;
    let sigma = (p_ref * (1.0 - p_ref) * (1.0 / n + 1.0 / reference.beyond as f64)).sqrt();
    let z = (p - p_ref) / sigma.max(f64::MIN_POSITIVE);
    if z.abs() <= 4.0 {
        Ok(())
    } else {
        Err(format!(
            "MSED rate {:.4}% vs reference {:.4}% ({z:+.1}σ over {n} outcomes)",
            100.0 * p,
            100.0 * p_ref
        ))
    }
}

/// The lane kernel reproduces its scalar oracle tally for tally.
fn lane_gate(lane: &MsedStats, oracle: &MsedStats) -> Result<(), String> {
    if lane == oracle {
        Ok(())
    } else {
        Err(format!("muse_msed {lane:?} != muse_msed_scalar {oracle:?}"))
    }
}

/// Prints the reference table (`perfbench --make-reference`).
pub fn print_reference() {
    let cells = build_cells(&mut Trace::new(false)).expect("Table IV cells build");
    for cell in &cells {
        let trials = match cell.code {
            CellCode::Muse(_) => REFERENCE_MUSE_TRIALS,
            CellCode::Rs(..) => REFERENCE_RS_TRIALS,
        };
        let stats = cell.run(MsedConfig {
            failing_devices: 2,
            trials,
            seed: REFERENCE_SEED,
            threads: 0,
        });
        println!(
            "    (\"{}\", Reference {{ detected: {}, beyond: {} }}),",
            cell.name,
            stats.detected,
            stats.detected + stats.miscorrected + stats.silent
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(name: &str) -> Cell {
        build_cells(&mut Trace::new(false))
            .expect("cells")
            .into_iter()
            .find(|c| c.name == name)
            .expect("cell exists")
    }

    fn config(trials: u64, seed: u64) -> MsedConfig {
        MsedConfig {
            failing_devices: 2,
            trials,
            seed,
            threads: 1,
        }
    }

    #[test]
    fn every_cell_has_a_reference() {
        for cell in build_cells(&mut Trace::new(false)).expect("cells") {
            assert!(reference(&cell.name).beyond > 0, "{}", cell.name);
        }
    }

    #[test]
    fn gates_pass_on_true_outputs() {
        for name in ["muse144_r12", "rs_s6_confined"] {
            let c = cell(name);
            let stats = c.run(config(400_000, 11));
            sum_gate(&stats, 400_000).expect("sum");
            rate_gate(&stats, reference(name)).expect("rate");
        }
        let c = cell("muse80_69");
        let CellCode::Muse(code) = &c.code else {
            unreachable!()
        };
        let cfg = config(LANE_PREFIX, 3);
        lane_gate(&muse_msed(code, cfg), &muse_msed_scalar(code, cfg)).expect("lane");
    }

    #[test]
    fn wrong_references_trip_each_gate() {
        let c = cell("muse144_r12");
        let stats = c.run(config(400_000, 11));
        // A miscounted tally.
        assert!(sum_gate(&stats, 400_001).is_err());
        // A reference one percentage point off.
        let r = reference("muse144_r12");
        let off = Reference {
            detected: r.detected - r.beyond / 100,
            beyond: r.beyond,
        };
        assert!(rate_gate(&stats, &off).is_err());
        // Another cell's reference.
        assert!(rate_gate(&stats, reference("muse144_r16")).is_err());
        // An oracle run on a different stream.
        let CellCode::Muse(code) = &c.code else {
            unreachable!()
        };
        let lane = muse_msed(code, config(LANE_PREFIX, 3));
        let wrong = muse_msed_scalar(code, config(LANE_PREFIX, 4));
        assert!(lane_gate(&lane, &wrong).is_err());
    }
}
