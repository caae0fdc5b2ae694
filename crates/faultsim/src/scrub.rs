//! Memory scrubbing vs fault accumulation (extension experiment).
//!
//! A single-symbol-correcting code only fails when a *second* device
//! develops a fault in the same codeword before the first is repaired.
//! Patrol scrubbing bounds that window: every `scrub_interval_hours` the
//! scrubber reads, corrects, and rewrites each word, clearing accumulated
//! (transient) single-device damage.
//!
//! The simulation walks time in scrub intervals: faults arrive per device
//! per interval as Bernoulli events with probability
//! `rate_fit × hours / 10⁹`; a word dies when two or more devices carry
//! faults within one interval (the paper's "two DRAMs at the same time"
//! condition, bounded by scrubbing instead of luck).

use muse_core::MuseCode;

use crate::engine::{SimEngine, Tally};

/// Parameters of a scrubbing study.
#[derive(Debug, Clone, Copy)]
pub struct ScrubConfig {
    /// Per-device transient fault rate, FIT (failures / 10⁹ device-hours).
    pub device_fit: f64,
    /// Scrub interval in hours.
    pub scrub_interval_hours: f64,
    /// Total simulated time in hours.
    pub horizon_hours: f64,
    /// Number of codewords tracked (a proxy for a memory region).
    pub words: u64,
    /// PRNG seed.
    pub seed: u64,
    /// Worker threads (0 ⇒ one per available CPU). Tallies are
    /// bit-identical at any value.
    pub threads: usize,
}

impl Default for ScrubConfig {
    fn default() -> Self {
        Self {
            device_fit: 50.0,
            scrub_interval_hours: 24.0,
            horizon_hours: 5.0 * 365.0 * 24.0, // five years
            words: 10_000,
            seed: 0x5C2B,
            threads: 0,
        }
    }
}

/// Result of a scrubbing simulation.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScrubStats {
    /// Words that accumulated ≥2 faulty devices in one interval.
    pub overlap_failures: u64,
    /// Single-device faults healed by scrub passes.
    pub scrubbed_faults: u64,
}

impl Tally for ScrubStats {
    fn merge(&mut self, other: Self) {
        self.overlap_failures += other.overlap_failures;
        self.scrubbed_faults += other.scrubbed_faults;
    }
}

/// Simulates fault accumulation under periodic scrubbing.
///
/// Faults are transient (scrub-repairable); the code's ChipKill correction
/// masks any single faulty device between scrubs, so only same-interval
/// overlaps count as failures.
///
/// Each word's full timeline is one engine trial, batched across
/// `config.threads` workers (bit-identical results at any thread count).
///
/// An interval only ever contributes one of three outcomes — no fault, one
/// faulty device (scrubbed), or an overlap (≥ 2) — so instead of `devices`
/// Bernoulli draws per interval, each interval maps one raw `u64` draw
/// through the exact three-way binomial CDF, branchlessly, with the raw
/// draws batch-filled per trial ([`crate::Rng::fill_u64s`]). The full
/// 64-bit draw keeps ~`2⁻⁶⁴` probability resolution: overlap rates at
/// field-realistic FIT inputs are far below `2⁻³²`, so narrower draws
/// would floor exactly the rare events this study measures.
pub fn simulate_scrubbing(code: &MuseCode, config: &ScrubConfig) -> ScrubStats {
    let devices = code.symbol_map().num_symbols();
    let p_fault = (config.device_fit * config.scrub_interval_hours / 1e9).min(1.0);
    let intervals = (config.horizon_hours / config.scrub_interval_hours).ceil() as u64;
    // Cumulative thresholds of P(0 of d) and P(≤1 of d), on the u64 scale.
    let d = devices as f64;
    let p0 = (1.0 - p_fault).powf(d);
    let p1 = d * p_fault * (1.0 - p_fault).powf(d - 1.0);
    let threshold = |p: f64| {
        let scaled = (p * 2f64.powi(64)).round();
        if scaled >= 2f64.powi(64) {
            u64::MAX
        } else {
            scaled as u64
        }
    };
    let t0 = threshold(p0);
    let t1 = threshold((p0 + p1).min(1.0));
    SimEngine::new(config.threads).run_blocked(
        config.seed,
        config.words,
        || vec![0u64; 256],
        |range, rng, raws, stats: &mut ScrubStats| {
            for _ in range {
                let (mut scrubbed, mut overlap) = (0u64, 0u64);
                let mut remaining = intervals;
                while remaining > 0 {
                    let chunk = remaining.min(raws.len() as u64) as usize;
                    rng.fill_u64s(&mut raws[..chunk]);
                    for &u in &raws[..chunk] {
                        let at_least_one = (u >= t0) as u64;
                        let at_least_two = (u >= t1) as u64;
                        scrubbed += at_least_one - at_least_two;
                        overlap += at_least_two;
                    }
                    remaining -= chunk as u64;
                }
                stats.scrubbed_faults += scrubbed;
                stats.overlap_failures += overlap;
            }
        },
    )
}

/// Closed-form expectation of overlap failures for cross-checking the
/// simulation: per word-interval, `P(≥2 of d) = 1 − (1−p)^d − d·p(1−p)^(d−1)`.
pub fn analytic_overlap_probability(devices: usize, device_fit: f64, interval_hours: f64) -> f64 {
    let p = (device_fit * interval_hours / 1e9).min(1.0);
    let d = devices as f64;
    1.0 - (1.0 - p).powf(d) - d * p * (1.0 - p).powf(d - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use muse_core::presets;

    #[test]
    fn shorter_scrub_intervals_reduce_failures() {
        // Accelerated rates so the effect is visible in small runs.
        let code = presets::muse_80_69();
        let base = ScrubConfig {
            device_fit: 2e6, // grossly accelerated for the test
            words: 400,
            horizon_hours: 10_000.0,
            ..ScrubConfig::default()
        };
        let slow = simulate_scrubbing(
            &code,
            &ScrubConfig {
                scrub_interval_hours: 100.0,
                ..base
            },
        );
        let fast = simulate_scrubbing(
            &code,
            &ScrubConfig {
                scrub_interval_hours: 10.0,
                ..base
            },
        );
        assert!(
            fast.overlap_failures < slow.overlap_failures,
            "fast {fast:?} vs slow {slow:?}"
        );
    }

    #[test]
    fn analytic_matches_simulation() {
        let code = presets::muse_144_132();
        let config = ScrubConfig {
            device_fit: 5e6,
            scrub_interval_hours: 50.0,
            horizon_hours: 50_000.0,
            words: 300,
            seed: 9,
            threads: 0,
        };
        let stats = simulate_scrubbing(&code, &config);
        let intervals = (config.horizon_hours / config.scrub_interval_hours).ceil();
        let expect = analytic_overlap_probability(
            code.symbol_map().num_symbols(),
            config.device_fit,
            config.scrub_interval_hours,
        ) * intervals
            * config.words as f64;
        let measured = stats.overlap_failures as f64;
        assert!(
            measured > expect * 0.7 && measured < expect * 1.3,
            "measured {measured} vs expected {expect}"
        );
    }

    #[test]
    fn realistic_rates_see_no_failures() {
        // At field-realistic FIT rates and daily scrubs, five years of
        // 10k words produce essentially zero overlap failures.
        let code = presets::muse_80_69();
        let stats = simulate_scrubbing(
            &code,
            &ScrubConfig {
                words: 1_000,
                ..ScrubConfig::default()
            },
        );
        assert_eq!(stats.overlap_failures, 0);
    }
}
