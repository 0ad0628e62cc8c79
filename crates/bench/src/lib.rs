//! Shared helpers for the experiment binaries that regenerate the paper's
//! Table 1 and Figure 1 (see `src/bin/`).
//!
//! Every binary prints a self-contained table: the experiment id from
//! DESIGN.md, the workload, the measured bits, and the paper's predicted
//! shape next to a fitted growth exponent.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The default problem sizes swept by every experiment binary.
pub const DEFAULT_SIZES: [usize; 4] = [64, 128, 256, 512];

/// The larger sweep used when `ORT_FULL=1` is set in the environment.
pub const FULL_SIZES: [usize; 5] = [64, 128, 256, 512, 1024];

/// Number of seeds averaged per size.
pub const DEFAULT_SEEDS: u64 = 3;

/// Returns the sweep sizes, honouring the `ORT_FULL` environment flag.
#[must_use]
pub fn sweep_sizes() -> Vec<usize> {
    if std::env::var("ORT_FULL").map(|v| v == "1").unwrap_or(false) {
        FULL_SIZES.to_vec()
    } else {
        DEFAULT_SIZES.to_vec()
    }
}

/// Least-squares slope of `log₂ y` against `log₂ x` — the measured growth
/// exponent of a size curve. Two or more points required.
///
/// # Panics
///
/// Panics if fewer than two points are supplied or any value is
/// non-positive.
#[must_use]
pub fn fit_exponent(xs: &[f64], ys: &[f64]) -> f64 {
    assert!(xs.len() == ys.len() && xs.len() >= 2, "need ≥ 2 points");
    assert!(
        xs.iter().chain(ys.iter()).all(|&v| v > 0.0),
        "log-log fit needs positive values"
    );
    let lx: Vec<f64> = xs.iter().map(|x| x.log2()).collect();
    let ly: Vec<f64> = ys.iter().map(|y| y.log2()).collect();
    let n = lx.len() as f64;
    let mx = lx.iter().sum::<f64>() / n;
    let my = ly.iter().sum::<f64>() / n;
    let cov: f64 = lx.iter().zip(&ly).map(|(x, y)| (x - mx) * (y - my)).sum();
    let var: f64 = lx.iter().map(|x| (x - mx) * (x - mx)).sum();
    cov / var
}

/// Arithmetic mean.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of empty slice");
    values.iter().sum::<f64>() / values.len() as f64
}

/// Prints a horizontal rule sized to `width`.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Formats a bit count with thousands separators for the tables.
#[must_use]
pub fn fmt_bits(bits: usize) -> String {
    let s = bits.to_string();
    let mut out = String::with_capacity(s.len() + s.len() / 3);
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_exponent_recovers_powers() {
        let xs = [64.0, 128.0, 256.0, 512.0];
        let quad: Vec<f64> = xs.iter().map(|x| 3.5 * x * x).collect();
        assert!((fit_exponent(&xs, &quad) - 2.0).abs() < 1e-9);
        let nlogn: Vec<f64> = xs.iter().map(|x| x * x.log2()).collect();
        let e = fit_exponent(&xs, &nlogn);
        assert!(e > 1.1 && e < 1.5, "n log n exponent ≈ 1.3, got {e}");
        let linear: Vec<f64> = xs.iter().map(|x| 7.0 * x).collect();
        assert!((fit_exponent(&xs, &linear) - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "≥ 2 points")]
    fn fit_exponent_needs_points() {
        let _ = fit_exponent(&[1.0], &[1.0]);
    }

    #[test]
    fn mean_and_fmt() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(fmt_bits(0), "0");
        assert_eq!(fmt_bits(999), "999");
        assert_eq!(fmt_bits(1000), "1,000");
        assert_eq!(fmt_bits(1234567), "1,234,567");
    }

    #[test]
    fn sweep_sizes_default() {
        // Without ORT_FULL the default tier is returned.
        if std::env::var("ORT_FULL").is_err() {
            assert_eq!(sweep_sizes(), DEFAULT_SIZES.to_vec());
        }
    }
}
