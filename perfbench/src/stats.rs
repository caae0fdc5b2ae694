//! Order statistics, the host fingerprint, and peak memory.

/// The median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// On an empty slice: every caller measures at least one sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolation quantile (the `R-7` definition) of `values`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// A latency percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy)]
pub struct Percentile {
    /// The percentile value.
    pub value: f64,
    /// Samples it was computed from.
    pub samples: usize,
    /// Samples strictly above the value.
    pub beyond: usize,
}

/// Samples that must lie above a reported tail percentile.
const MIN_BEYOND: usize = 10;

/// The `q` quantile of `values`, refused when fewer than [`MIN_BEYOND`]
/// samples lie above it: a tail percentile resting on a handful of
/// samples is noise, so it is an error rather than a number.
pub fn percentile(values: &[f64], q: f64) -> Result<Percentile, String> {
    if values.is_empty() {
        return Err(format!("p{:.0}: no samples", q * 100.0));
    }
    let value = quantile(values, q);
    let beyond = values.iter().filter(|&&v| v > value).count();
    if q > 0.5 && beyond < MIN_BEYOND {
        return Err(format!(
            "p{:.0}: only {beyond} of {} samples lie beyond it (need {MIN_BEYOND})",
            q * 100.0,
            values.len()
        ));
    }
    Ok(Percentile {
        value,
        samples: values.len(),
        beyond,
    })
}

/// Samples each phase needs before its p90 has [`MIN_BEYOND`] samples
/// beyond it.
pub const MIN_PHASE_OPS: usize = 110;

/// SplitMix64 finalizer: derives independent sub-seeds from the workload
/// seed, so every input of a run follows from `--seed` alone.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(0x632B_E59B_D9B4_E019);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The host a result was measured on.
pub struct Host {
    /// Logical cores available to this process.
    pub logical_cores: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Kernel release.
    pub kernel: String,
}

impl Host {
    /// Reads the fingerprint of the current host.
    pub fn detect() -> Self {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find_map(|l| l.strip_prefix("model name"))
            .and_then(|rest| rest.split_once(':'))
            .map_or("unknown", |(_, model)| model.trim())
            .to_string();
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
        Self {
            logical_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            kernel,
        }
    }

    /// The fingerprint as one JSON object.
    pub fn json(&self) -> String {
        let mut b = muse_telemetry::JsonBuilder::new();
        b.u64("logical_cores", self.logical_cores as u64)
            .str("cpu_model", &self.cpu_model)
            .str("kernel", &self.kernel);
        b.finish()
    }
}

/// Steal and total time of all cores so far, in clock ticks, from the
/// `cpu` line of `/proc/stat`; `None` where the file cannot be read.
pub fn cpu_ticks() -> Option<[u64; 2]> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already counted in user and nice.
    Some([*fields.get(7)?, fields.iter().take(8).sum()])
}

/// Share of all cores' time between two [`cpu_ticks`] readings that the
/// hypervisor gave to other guests, in percent.
pub fn steal_pct(before: Option<[u64; 2]>, after: Option<[u64; 2]>) -> Option<f64> {
    let ([s0, t0], [s1, t1]) = (before?, after?);
    (t1 > t0).then(|| 100.0 * s1.saturating_sub(s0) as f64 / (t1 - t0) as f64)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn thin_tails_are_refused() {
        let few: Vec<f64> = (0..50).map(f64::from).collect();
        assert!(percentile(&few, 0.9).is_err());
        let many: Vec<f64> = (0..MIN_PHASE_OPS as u32).map(f64::from).collect();
        let p90 = percentile(&many, 0.9).expect("enough samples");
        assert!(p90.beyond >= MIN_BEYOND);
        assert!(percentile(&few, 0.5).is_ok());
    }

    #[test]
    fn steal_is_a_share_of_elapsed_ticks() {
        assert_eq!(steal_pct(Some([10, 1000]), Some([30, 1400])), Some(5.0));
        assert_eq!(steal_pct(Some([10, 1000]), Some([10, 1000])), None);
        assert_eq!(steal_pct(None, Some([10, 1000])), None);
    }
}
