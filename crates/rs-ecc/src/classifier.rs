//! The Reed-Solomon implementation of the unified syndrome-domain
//! classification backend (`muse_core::Classifier`).
//!
//! Word reads classify entirely in the error-value domain: device strikes
//! fold into per-symbol error values, [`RsMemoryCode::error_syndromes`]
//! accumulates the `2t` GF syndromes from the `α^(l·p)` table, and the
//! decision runs on [`RsCode::locate_errors`](crate::RsCode::locate_errors)
//! (healthy) or the Forney-style combined
//! [`RsCode::decode_combined_ctx`](crate::RsCode::decode_combined_ctx)
//! (degraded: `ν` erasures + `e` errors, `2e + ν ≤ 2t`). A transient under
//! an erased chip is located from the modified-syndrome ratio and sized by
//! Forney's closed form against per-position scales hoisted at
//! [`RsClassifier::resolve`](muse_core::Classifier::resolve) time, so a
//! degraded read allocates nothing and solves no linear system. No
//! codeword — and no dead-chip content — is ever materialized: the erasure
//! solve compensates any value a dead chip emits, so the simulator does not
//! sample it.

use muse_core::{Classifier, Entropy, Strike, WordRead};

use crate::{CombinedContext, RsMemoryCode};

/// The resolved RS decode context for one erased-device set.
#[derive(Debug, Clone)]
pub enum RsContext {
    /// Empty erased set: plain PGZ error location.
    Healthy,
    /// Degraded operation: the hoisted combined-decode constants for the
    /// erased RS symbol set (erasure locator `Γ(x)`, inverse syndrome
    /// Vandermonde, residual rows, per-position Forney scales — see
    /// [`CombinedContext`]), so every degraded read decodes without
    /// re-deriving them.
    Degraded(CombinedContext),
}

/// Error-domain classification backend for a Reed-Solomon fleet code.
///
/// Fleet geometries are restricted to the clean case: whole symbols per
/// channel (no shortened top) and devices nested inside symbols, which the
/// constructor asserts.
///
/// # Examples
///
/// ```
/// use muse_core::{Classifier, Entropy, Strike, WordRead};
/// use muse_rs::{RsClassifier, RsMemoryCode};
///
/// struct Splitmix(u64);
/// impl Entropy for Splitmix {
///     fn next_u64(&mut self) -> u64 {
///         self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
///         let mut z = self.0;
///         z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
///         z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
///         z ^ (z >> 31)
///     }
/// }
///
/// # fn main() -> Result<(), muse_rs::RsError> {
/// let code = RsMemoryCode::new(8, 144, 2)?; // RS(144,112), t = 2
/// let mut backend = RsClassifier::new(&code, 4);
/// let mut entropy = Splitmix(1);
///
/// // Device 9 is dead (erased); a transient hits device 20: combined
/// // decoding corrects the transient UNDER the erasure (2e + ν = 3 ≤ 4).
/// let ctx = backend.resolve(&[9]).expect("within erasure capacity");
/// let read = backend.classify(&ctx, &[(20, Strike::Xor(0xB))], &mut entropy);
/// assert_eq!(read, WordRead::Correct);
/// # Ok(())
/// # }
/// ```
pub struct RsClassifier<'a> {
    code: &'a RsMemoryCode,
    device_bits: u32,
    devices_per_symbol: u32,
    /// `2t` — parity symbols / syndrome count.
    parity: usize,
    n_symbols: usize,
}

impl<'a> RsClassifier<'a> {
    /// Builds the backend, validating the geometry.
    ///
    /// # Panics
    ///
    /// Panics on geometries with a shortened top symbol or devices
    /// straddling symbols.
    pub fn new(code: &'a RsMemoryCode, device_bits: u32) -> Self {
        assert_eq!(
            code.top_symbol_bits(),
            code.symbol_bits(),
            "fleet RS codes use whole symbols (no shortened top)"
        );
        assert_eq!(
            code.symbol_bits() % device_bits,
            0,
            "devices must nest inside RS symbols"
        );
        Self {
            code,
            device_bits,
            devices_per_symbol: code.symbol_bits() / device_bits,
            parity: 2 * code.inner().t(),
            n_symbols: code.n_symbols(),
        }
    }

    /// The RS symbol a device's bits live in.
    #[inline]
    pub fn symbol_of_device(&self, dev: u16) -> usize {
        (dev as u32 / self.devices_per_symbol) as usize
    }
}

impl Classifier for RsClassifier<'_> {
    type Context = RsContext;

    fn devices(&self) -> usize {
        self.n_symbols * self.devices_per_symbol as usize
    }

    fn device_width(&self, _dev: u16) -> u32 {
        self.device_bits
    }

    fn resolve(&self, erased: &[u16]) -> Option<RsContext> {
        if erased.is_empty() {
            return Some(RsContext::Healthy);
        }
        let mut syms: Vec<usize> = erased.iter().map(|&d| self.symbol_of_device(d)).collect();
        syms.sort_unstable();
        syms.dedup();
        (syms.len() <= self.parity)
            .then(|| RsContext::Degraded(self.code.inner().combined_context(&syms)))
    }

    /// Classifies one RS word read. Strikes on erased symbols are
    /// permitted — the erasure solve absorbs them (the whole symbol is
    /// reconstructed).
    fn classify<E: Entropy>(
        &mut self,
        ctx: &RsContext,
        strikes: &[(u16, Strike)],
        entropy: &mut E,
    ) -> WordRead {
        // Fold device strikes into per-symbol error values.
        let mut errors = [(0usize, 0u16); 16];
        let mut n = 0usize;
        for &(dev, s) in strikes {
            let value = match s {
                Strike::Xor(p) => p,
                // Asymmetric discharge: the struck cell stores 1 with
                // probability 1/2 under uniform contents.
                Strike::AsymBit(bit) => {
                    if entropy.coin(0.5) {
                        1 << bit
                    } else {
                        0
                    }
                }
            };
            if value == 0 {
                continue;
            }
            let sym = self.symbol_of_device(dev);
            let shifted = value << ((dev as u32 % self.devices_per_symbol) * self.device_bits);
            match errors[..n].iter_mut().find(|e| e.0 == sym) {
                Some(e) => e.1 ^= shifted,
                None => {
                    errors[n] = (sym, shifted);
                    n += 1;
                }
            }
        }
        let errors = &errors[..n];
        let data_start = self.parity;
        let code = self.code;

        match ctx {
            RsContext::Healthy => {
                if errors.iter().all(|&(_, v)| v == 0) {
                    return WordRead::Correct;
                }
                let synd = code.error_syndromes(errors);
                let synd = &synd[..self.parity];
                if synd.iter().all(|&s| s == 0) {
                    // Aliased to a valid codeword: silent iff data symbols
                    // moved.
                    return if errors.iter().any(|&(p, v)| p >= data_start && v != 0) {
                        WordRead::Sdc
                    } else {
                        WordRead::Correct
                    };
                }
                match code.inner().locate_errors_fixed(synd) {
                    None => WordRead::Due,
                    Some(located) => {
                        // Residual after correction: injected ⊕ located, per
                        // position; data reads right iff it vanishes on
                        // every data symbol.
                        let residual_clean = |pos: usize| {
                            let injected = errors
                                .iter()
                                .find(|&&(p, _)| p == pos)
                                .map_or(0, |&(_, v)| v);
                            let corrected = located
                                .corrections()
                                .iter()
                                .find(|&&(p, _)| p == pos)
                                .map_or(0, |&(_, v)| v);
                            injected ^ corrected == 0
                        };
                        let touched = errors
                            .iter()
                            .map(|&(p, _)| p)
                            .chain(located.corrections().iter().map(|&(p, _)| p));
                        if touched.filter(|&p| p >= data_start).all(residual_clean) {
                            WordRead::Correct
                        } else {
                            WordRead::Sdc
                        }
                    }
                }
            }
            RsContext::Degraded(combined) => {
                if errors.is_empty() {
                    // All-zero syndromes: the erasure fills are all zero
                    // and every data symbol reads back clean.
                    return WordRead::Correct;
                }
                let synd = code.error_syndromes(errors);
                match code
                    .inner()
                    .decode_combined_ctx(&synd[..self.parity], combined)
                {
                    None => WordRead::Due,
                    Some(located) => {
                        let corrections = located.corrections();
                        // Residual: injected errors minus the applied
                        // corrections (erasure fills + any located error).
                        let clean = |pos: usize| {
                            let injected = errors
                                .iter()
                                .find(|&&(p, _)| p == pos)
                                .map_or(0, |&(_, v)| v);
                            let corrected = corrections
                                .iter()
                                .find(|&&(p, _)| p == pos)
                                .map_or(0, |&(_, v)| v);
                            injected ^ corrected == 0
                        };
                        let touched = errors
                            .iter()
                            .map(|&(p, _)| p)
                            .chain(corrections.iter().map(|&(p, _)| p));
                        if touched.filter(|&p| p >= data_start).all(clean) {
                            WordRead::Correct
                        } else {
                            WordRead::Sdc
                        }
                    }
                }
            }
        }
    }
}
