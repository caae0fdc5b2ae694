//! Reproducibility pins: exact fleet tallies for the fixed smoke
//! configuration ([`muse_lifetime::smoke_setup`] — the same setup
//! `bench_lifetime --smoke` asserts in CI).
//!
//! The pinned values live in [`muse_lifetime::smoke_expected`] and pin the
//! composed behaviour of the per-cell RNG streams, the arrival sampling,
//! and the erasure-mode classification. If you change any of them *on
//! purpose*, re-baseline `smoke_expected` and say so in CHANGES.md.

use muse_lifetime::{
    scenario_codes, simulate_fleet, smoke_setup, verify_smoke, Environment, FleetConfig,
    LifetimeTally,
};

#[test]
fn smoke_tallies_are_pinned() {
    let (env, config) = smoke_setup();
    let reports: Vec<_> = scenario_codes()
        .iter()
        .map(|code| simulate_fleet(code, &env, &config))
        .collect();
    if let Err(drift) = verify_smoke(&reports) {
        panic!(
            "pinned fleet tally changed ({drift}): RNG streams, arrival \
             sampling, or erasure classification drifted"
        );
    }
    for r in &reports {
        assert_eq!(r.tally.epochs, config.dimms * config.epochs());
        assert_eq!(r.degraded_fraction, 1.0);
    }
}

#[test]
fn smoke_shows_the_code_reliability_ordering() {
    // The differentiators the matrix exists for: combined error-and-
    // erasure decoding lets the t=2 RS correct every transient under one
    // erased chip (zero degraded DUEs, zero SDCs) where the t=1 budget is
    // already spent, and MUSE's odd multipliers leak fewer silent
    // corruptions than same-redundancy RS.
    let (env, config) = smoke_setup();
    let reports: Vec<_> = scenario_codes()
        .iter()
        .map(|c| simulate_fleet(c, &env, &config))
        .collect();
    let row = |name: &str| {
        &reports
            .iter()
            .find(|r| r.code == name)
            .expect("scenario present")
            .tally
    };
    assert_eq!(row("RS(144,112) t=2").sdc_words, 0);
    assert_eq!(
        row("RS(144,112) t=2").due_words,
        0,
        "2e + ν ≤ 2t: one transient under one erasure is correctable"
    );
    assert!(row("RS(144,112) t=2").due_words < row("RS(144,128) t=1").due_words);
    assert!(row("MUSE(80,69)").sdc_words < row("RS(144,128) t=1").sdc_words);
    // MUSE's combined mode recovers its unique-explanation fraction.
    assert!(row("MUSE(144,132)").corrected_words > 0);
}

#[test]
fn degraded_t2_tally_is_pinned() {
    // The erasure-heavy degraded fleet (every DIMM starts with one retired
    // device, transient FIT 5e7, weekly scrub): nearly every read is a
    // transient under one erased symbol, so this pins the combined
    // error-and-erasure decode of RS(144,112) end to end. The whole tally
    // must stay bit-identical across decoder rewrites.
    let env = Environment {
        name: "erasure-throughput",
        transient_fit_per_device: 5.0e7,
        permanent_scale: [0.0, 0.0, 0.0],
        asymmetric_transients: false,
    };
    let config = FleetConfig {
        dimms: 64,
        years: 0.25,
        scrub_interval_hours: 168.0,
        initial_failed_devices: 1,
        spares_per_dimm: 0,
        seed: 0xBEAC,
        ..FleetConfig::default()
    };
    let code = &scenario_codes()[3];
    assert_eq!(code.name(), "RS(144,112) t=2");
    let report = simulate_fleet(code, &env, &config);
    assert_eq!(
        report.tally,
        LifetimeTally {
            epochs: 896,
            degraded_epochs: 896,
            corrected_words: 31363,
            due_words: 0,
            sdc_words: 0,
            erasure_reads: 31363,
            ..LifetimeTally::default()
        },
        "degraded RS(144,112) t=2 tally drifted"
    );
}
