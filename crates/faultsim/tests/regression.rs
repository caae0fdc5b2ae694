//! Reproducibility pins: exact Monte-Carlo tallies for fixed seeds.
//!
//! These values are not "correct" in any absolute sense — they pin the
//! composed behaviour of the PRNG, the error injection, and the decoder so
//! that any unintended change to one of them is caught immediately. If you
//! change the PRNG stream or injection order *on purpose*, update the pins
//! and say so in the changelog.
//!
//! (The pins were re-baselined when the simulators moved to the parallel
//! engine's counter-based per-trial streams, again when trial generation
//! moved to content space on blocked streams, and again when the k = 2
//! MSED path moved to the fully-columnar quad-packed draw scheme for the
//! lane kernel — see CHANGES.md.)

use muse_core::presets;
use muse_faultsim::{muse_msed, MsedConfig, MsedStats, Rng};

#[test]
fn rng_stream_pin() {
    let mut rng = Rng::seeded(0);
    let first: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
    // xoshiro256++ seeded through SplitMix64(0): a fixed, documented stream.
    assert_eq!(
        first,
        vec![
            5987356902031041503,
            7051070477665621255,
            6633766593972829180,
            211316841551650330
        ]
    );
}

#[test]
fn trial_stream_pin() {
    // The engine's counter-based derivation is part of the reproducibility
    // contract: every simulator's results are a pure function of it.
    let mut rng = Rng::for_trial(0x4D53_4544, 7);
    let first: Vec<u64> = (0..2).map(|_| rng.next_u64()).collect();
    assert_eq!(first, vec![12351991322932307205, 9471953404896583451]);
}

#[test]
fn block_stream_pin() {
    // The blocked engine's per-block stream derivation is part of the
    // reproducibility contract, and must stay domain-separated from the
    // per-trial streams.
    let mut rng = Rng::for_block(0x4D53_4544, 7);
    let first: Vec<u64> = (0..2).map(|_| rng.next_u64()).collect();
    assert_eq!(first, vec![2424275038829968809, 17581779019344070349]);
    let mut trial = Rng::for_trial(0x4D53_4544, 7);
    assert_ne!(rng.next_u64(), trial.next_u64());
}

#[test]
fn msed_tally_pin_muse_144_132() {
    let stats = muse_msed(
        &presets::muse_144_132(),
        MsedConfig {
            failing_devices: 2,
            trials: 2_000,
            seed: 0x4D53_4544,
            threads: 0,
        },
    );
    assert_eq!(stats.total(), 2_000);
    assert_eq!(stats.silent, 0);
    assert_eq!(
        (stats.detected, stats.miscorrected),
        (1_746, 254),
        "pinned Monte-Carlo tally changed: PRNG, injection, or decoder drifted"
    );
}

#[test]
fn msed_tally_pin_muse_80_69() {
    let stats = muse_msed(
        &presets::muse_80_69(),
        MsedConfig {
            failing_devices: 2,
            trials: 2_000,
            seed: 0x4D53_4544,
            threads: 0,
        },
    );
    assert_eq!(stats.silent, 0);
    assert_eq!(stats.detected + stats.miscorrected, 2_000);
    let rate = stats.detection_rate();
    assert!(
        (80.0..90.0).contains(&rate),
        "rate {rate} left the plausible band"
    );
}

#[test]
fn msed_tally_pin_generic_path_muse_144_132() {
    // k = 3 takes the generic syndrome-domain loop (inject_distinct +
    // classify), not the k = 2 quad-columnar path: pin its whole tally.
    let stats = muse_msed(
        &presets::muse_144_132(),
        MsedConfig {
            failing_devices: 3,
            trials: 2_000,
            seed: 0x4D53_4544,
            threads: 0,
        },
    );
    assert_eq!(
        stats,
        MsedStats {
            detected: 1_755,
            corrected: 0,
            miscorrected: 244,
            silent: 1,
        },
        "pinned Monte-Carlo tally changed: PRNG, injection, or decoder drifted"
    );
}
