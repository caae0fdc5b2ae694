//! Property tests for Forney-style combined error-and-erasure decoding:
//! random `(e, ν)` sweeps with `2e + ν ≤ 2t` for both supported `t` values,
//! boundary cases (`2e + ν = 2t`), beyond-capacity behaviour, a
//! cross-check against a brute-force wide-decoder oracle, and an exhaustive
//! check of the closed-form error-under-erasure branch against the general
//! Vandermonde solve.

use muse_rs::{RsCode, RsMemoryCode};

/// Small deterministic xorshift for reproducible sweeps.
struct Xs(u64);

impl Xs {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Draws `k` distinct positions in `[0, n)`, avoiding `taken`.
fn distinct(rng: &mut Xs, n: usize, k: usize, taken: &[usize]) -> Vec<usize> {
    let mut out = Vec::new();
    while out.len() < k {
        let p = (rng.next() % n as u64) as usize;
        if !taken.contains(&p) && !out.contains(&p) {
            out.push(p);
        }
    }
    out
}

/// Brute-force combined-decode oracle built on the (independently
/// property-tested) codeword-domain erasure decoder: try the erasure-only
/// explanation first, then every single-error position within the remaining
/// capacity, committing only to a unique consistent explanation.
fn oracle(rs: &RsCode, corrupted: &[u16], erasures: &[usize]) -> Option<Vec<u16>> {
    if let Some(data) = rs.decode_erasures(corrupted, erasures) {
        return Some(data);
    }
    let e_max = (2 * rs.t() - erasures.len()) / 2;
    if e_max == 0 {
        return None;
    }
    let synd = rs.syndromes(corrupted);
    let mut found: Option<Vec<u16>> = None;
    for q in 0..rs.n_symbols() {
        if erasures.contains(&q) {
            continue;
        }
        let mut positions = erasures.to_vec();
        positions.push(q);
        let Some(mags) = rs.erasure_magnitudes(&synd, &positions) else {
            continue;
        };
        if *mags.last().expect("nonempty") == 0 {
            continue; // a zero-magnitude "error" is the erasure-only case
        }
        if found.is_some() {
            return None; // ambiguous explanation
        }
        let mut fixed = corrupted.to_vec();
        for (&p, &m) in positions.iter().zip(&mags) {
            fixed[p] ^= m;
        }
        found = Some(fixed[2 * rs.t()..].to_vec());
    }
    found
}

fn codes() -> Vec<RsCode> {
    vec![
        RsCode::new(8, 18, 16).unwrap(), // t = 1
        RsCode::new(8, 18, 14).unwrap(), // t = 2
    ]
}

#[test]
fn recovers_every_in_capacity_error_erasure_mix() {
    // Sweep every (e, ν) with 2e + ν ≤ 2t — including the 2e + ν = 2t
    // boundary — over random codewords, erasure garbage, and error values:
    // the corrections must restore the exact codeword.
    for rs in codes() {
        let t2 = 2 * rs.t();
        let n = rs.n_symbols();
        let mut rng = Xs(0xC0DE_C0DE ^ t2 as u64);
        for nu in 0..=t2 {
            let e_max = (t2 - nu) / 2;
            for e in 0..=e_max {
                for trial in 0..150u32 {
                    let data: Vec<u16> = (0..rs.k_symbols())
                        .map(|_| (rng.next() & 0xFF) as u16)
                        .collect();
                    let cw = rs.encode(&data);
                    let erasures = distinct(&mut rng, n, nu, &[]);
                    let error_pos = distinct(&mut rng, n, e, &erasures);
                    let mut bad = cw.clone();
                    for &p in &erasures {
                        bad[p] ^= (rng.next() & 0xFF) as u16; // may be zero
                    }
                    let mut injected_errors = Vec::new();
                    for &p in &error_pos {
                        let v = 1 + (rng.next() % 255) as u16;
                        bad[p] ^= v;
                        injected_errors.push((p, v));
                    }
                    let synd = rs.syndromes(&bad);
                    let corrections = rs.decode_combined(&synd, &erasures).unwrap_or_else(|| {
                        panic!("t={} ν={nu} e={e} trial {trial}: in-capacity DUE", rs.t())
                    });
                    let mut fixed = bad.clone();
                    for &(p, m) in &corrections {
                        fixed[p] ^= m;
                    }
                    assert_eq!(
                        fixed,
                        cw,
                        "t={} ν={nu} e={e} trial {trial}: wrong recovery",
                        rs.t()
                    );
                    // The located error (if any) is exactly the injected one.
                    for &(p, v) in &injected_errors {
                        assert!(
                            corrections.contains(&(p, v)),
                            "t={} ν={nu} e={e} trial {trial}: error at {p} missed",
                            rs.t()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn beyond_capacity_never_silently_recovers() {
    // 2e + ν = 2t + 1 (one error too many): the decoder may flag a DUE or
    // commit to a wrong explanation, but it can never reproduce the true
    // data — two distinct codewords within the combined budget would
    // violate the minimum distance. Most patterns must flag DUE.
    for rs in codes() {
        let t2 = 2 * rs.t();
        let n = rs.n_symbols();
        let mut rng = Xs(0xBAD0_5EED ^ t2 as u64);
        let mut dues = 0u32;
        let mut trials = 0u32;
        for nu in 0..t2 {
            let e = (t2 - nu) / 2 + 1; // one beyond the (e, ν) budget
            if 2 * e + nu != t2 + 1 && 2 * e + nu != t2 + 2 {
                continue;
            }
            for _ in 0..200u32 {
                let data: Vec<u16> = (0..rs.k_symbols())
                    .map(|_| (rng.next() & 0xFF) as u16)
                    .collect();
                let cw = rs.encode(&data);
                let erasures = distinct(&mut rng, n, nu, &[]);
                let error_pos = distinct(&mut rng, n, e, &erasures);
                let mut bad = cw.clone();
                for &p in &erasures {
                    bad[p] ^= (rng.next() & 0xFF) as u16;
                }
                for &p in &error_pos {
                    bad[p] ^= 1 + (rng.next() % 255) as u16;
                }
                trials += 1;
                match rs.decode_combined(&rs.syndromes(&bad), &erasures) {
                    None => dues += 1,
                    Some(corrections) => {
                        let mut fixed = bad.clone();
                        for &(p, m) in &corrections {
                            fixed[p] ^= m;
                        }
                        assert_ne!(
                            &fixed[t2..],
                            &cw[t2..],
                            "t={} ν={nu} e={e}: beyond-capacity pattern read back clean",
                            rs.t()
                        );
                    }
                }
            }
        }
        assert!(
            dues * 2 > trials,
            "t={}: most beyond-capacity patterns flag DUE ({dues}/{trials})",
            rs.t()
        );
    }
}

#[test]
fn beyond_capacity_constructed_cases_flag_due() {
    // Specific boundary patterns that must be detected, not miscorrected.
    // t = 1, one erasure: budget 2e + ν ≤ 2 leaves e = 0; any extra error
    // must flag DUE (this is the degraded ChipKill read the lifetime
    // simulator classifies).
    let rs = RsCode::new(8, 18, 16).unwrap();
    let data = vec![0x21u16; 16];
    let mut bad = rs.encode(&data);
    bad[3] ^= 0x11; // the erased chip
    bad[9] ^= 0x47; // the extra unknown error
    assert_eq!(rs.decode_combined(&rs.syndromes(&bad), &[3]), None);

    // t = 2, two erasures + two extra errors: 2e + ν = 6 > 4.
    let rs = RsCode::new(8, 18, 14).unwrap();
    let data = vec![0x84u16; 14];
    let mut bad = rs.encode(&data);
    bad[2] ^= 0x55;
    bad[5] ^= 0xAA;
    bad[10] ^= 0x13;
    bad[16] ^= 0x77;
    assert_eq!(rs.decode_combined(&rs.syndromes(&bad), &[2, 5]), None);
}

#[test]
fn matches_brute_force_oracle_on_arbitrary_corruption() {
    // The modified-syndrome procedure is equivalent to brute-force "unique
    // consistent explanation" search for EVERY degraded input, not just
    // in-capacity ones: cross-check on fully random corruption (0..4
    // errors, 1..2t erasures — ν ≥ 1 leaves capacity for at most one
    // error, which the position-enumeration oracle covers; ν = 0 is plain
    // `locate_errors`, cross-checked in the rs module's own tests).
    for rs in codes() {
        let t2 = 2 * rs.t();
        let n = rs.n_symbols();
        let mut rng = Xs(0x04AC_1E00 ^ t2 as u64);
        for trial in 0..2_000u32 {
            let data: Vec<u16> = (0..rs.k_symbols())
                .map(|_| (rng.next() & 0xFF) as u16)
                .collect();
            let cw = rs.encode(&data);
            let nu = 1 + (rng.next() % t2 as u64) as usize;
            let erasures = distinct(&mut rng, n, nu, &[]);
            let mut bad = cw.clone();
            for &p in &erasures {
                bad[p] ^= (rng.next() & 0xFF) as u16;
            }
            for _ in 0..rng.next() % 4 {
                bad[(rng.next() % n as u64) as usize] ^= (rng.next() & 0xFF) as u16;
            }
            let synd = rs.syndromes(&bad);
            let fast = rs.decode_combined(&synd, &erasures).map(|corrections| {
                let mut fixed = bad.clone();
                for &(p, m) in &corrections {
                    fixed[p] ^= m;
                }
                fixed[t2..].to_vec()
            });
            let wide = oracle(&rs, &bad, &erasures);
            assert_eq!(
                fast,
                wide,
                "t={} trial {trial}: erasures {erasures:?}",
                rs.t()
            );
        }
    }
}

/// The combined decode as a general linear solve: modified syndromes
/// through `Γ(x)`, the error located from their ratio, then
/// [`RsCode::erasure_magnitudes`] over the erasures plus the located
/// position, rejecting a zero error magnitude. The closed-form
/// `decode_combined_ctx` must reproduce it exactly on every input.
fn solve_reference(rs: &RsCode, synd: &[u16], erasures: &[usize]) -> Option<Vec<(usize, u16)>> {
    let gf = rs.field();
    let nu = erasures.len();
    let mut gamma = vec![1u16];
    for &p in erasures {
        gamma = gf.poly_mul(&gamma, &[1, gf.alpha_pow(p as i64)]);
    }
    let modified: Vec<u16> = (nu..2 * rs.t())
        .map(|j| {
            gamma
                .iter()
                .enumerate()
                .fold(0, |acc, (k, &g)| acc ^ gf.mul(g, synd[j - k]))
        })
        .collect();
    let pairs = |positions: &[usize], mags: Vec<u16>| positions.iter().copied().zip(mags).collect();
    if modified.iter().all(|&x| x == 0) {
        return rs
            .erasure_magnitudes(synd, erasures)
            .map(|m| pairs(erasures, m));
    }
    if modified.len() < 2 || modified.contains(&0) {
        return None;
    }
    let ratio = gf.div(modified[1], modified[0]);
    if modified.windows(2).any(|w| gf.div(w[1], w[0]) != ratio) {
        return None;
    }
    let q = gf.log(ratio)? as usize;
    if q >= rs.n_symbols() || erasures.contains(&q) {
        return None;
    }
    let mut positions = erasures.to_vec();
    positions.push(q);
    let mags = rs.erasure_magnitudes(synd, &positions)?;
    if *mags.last().expect("ν + 1 magnitudes") == 0 {
        return None;
    }
    Some(pairs(&positions, mags))
}

/// Every erased set of `ν ∈ {1, 2}` symbols of `n`.
fn erased_sets(n: usize) -> Vec<Vec<usize>> {
    let singles = (0..n).map(|a| vec![a]);
    let pairs = (0..n).flat_map(|a| (a + 1..n).map(move |b| vec![a, b]));
    singles.chain(pairs).collect()
}

#[test]
fn forney_branch_matches_the_vandermonde_solve_exhaustively() {
    // RS(144,112), t = 2: every erased set with ν ∈ {1, 2}, every error
    // position q outside it and every nonzero 8-bit error magnitude, with
    // seeded garbage (zero included) in the erased symbols. The closed
    // form must return exactly the corrections of erasure_magnitudes over
    // erasures ∪ {q}, which are the injected values themselves.
    let code = RsMemoryCode::new(8, 144, 2).unwrap();
    let rs = code.inner();
    let n = rs.n_symbols();
    let mut rng = Xs(0xF0E1_EC5E);
    let mut cases = 0u64;
    for erasures in erased_sets(n) {
        let ctx = rs.combined_context(&erasures);
        let mut positions = erasures.clone();
        positions.push(0);
        for q in (0..n).filter(|q| !erasures.contains(q)) {
            *positions.last_mut().expect("ν + 1 positions") = q;
            for e in 1..=255u16 {
                let injected: Vec<(usize, u16)> = erasures
                    .iter()
                    .map(|&p| (p, (rng.next() & 0xFF) as u16))
                    .chain([(q, e)])
                    .collect();
                let synd = code.error_syndromes(&injected);
                let synd = &synd[..4];
                let got = rs.decode_combined_ctx(synd, &ctx);
                let want: Option<Vec<(usize, u16)>> = rs
                    .erasure_magnitudes(synd, &positions)
                    .filter(|m| m.last() != Some(&0))
                    .map(|m| positions.iter().copied().zip(m).collect());
                assert_eq!(
                    got.as_ref().map(|c| c.corrections()),
                    want.as_deref(),
                    "erasures {erasures:?}, error {e:#04x} at {q}"
                );
                assert_eq!(want.as_deref(), Some(injected.as_slice()));
                cases += 1;
            }
        }
    }
    assert_eq!(cases, (18 * 17 + 153 * 16) * 255);
}

#[test]
fn forney_branch_matches_the_solve_on_two_error_patterns() {
    // Beyond capacity (2e + ν = 5 or 6 > 4): two transients outside the
    // erased set. Most flag DUE; the rest must miscorrect exactly as the
    // general solve does.
    let code = RsMemoryCode::new(8, 144, 2).unwrap();
    let rs = code.inner();
    let n = rs.n_symbols();
    let mut rng = Xs(0x2E88_0D0E);
    let mut dues = 0u32;
    let mut trials = 0u32;
    for erasures in erased_sets(n) {
        let ctx = rs.combined_context(&erasures);
        for _ in 0..60 {
            let mut injected: Vec<(usize, u16)> = erasures
                .iter()
                .map(|&p| (p, (rng.next() & 0xFF) as u16))
                .collect();
            for p in distinct(&mut rng, n, 2, &erasures) {
                injected.push((p, 1 + (rng.next() % 255) as u16));
            }
            let synd = code.error_syndromes(&injected);
            let synd = &synd[..4];
            let got = rs.decode_combined_ctx(synd, &ctx);
            let want = solve_reference(rs, synd, &erasures);
            assert_eq!(
                got.as_ref().map(|c| c.corrections()),
                want.as_deref(),
                "erasures {erasures:?}, injected {injected:?}"
            );
            trials += 1;
            dues += u32::from(want.is_none());
        }
    }
    assert!(
        dues * 2 > trials,
        "most two-error patterns flag DUE ({dues}/{trials})"
    );
}
