//! Order statistics over wall-clock samples.

/// Sorts samples ascending (`NaN`-free by construction: every sample is a
/// measured duration or `+inf` for a failed request).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Nearest-rank quantile of ascending samples (`q` in 0..=1).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

/// The highest of the usual reporting percentiles that still has at least
/// ten samples beyond it, as `(percentile, value)`.
pub fn supported_tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len() as f64;
    let p = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|p| n * (100.0 - p) / 100.0 >= 10.0)
        .unwrap_or(50.0);
    (p, quantile(sorted, p / 100.0))
}

/// The quieter windows' quantile `q`: the lower quartile, over
/// consecutive windows of `w` samples (in arrival order), of each
/// window's quantile. Other tenants of a shared host take its cores in
/// bursts lasting seconds, and such noise only ever adds time; it
/// inflates the windows it hits, while a slowdown of the program itself
/// moves every window. The quartile keeps to the quieter windows without
/// resting on the single luckiest one, as the minimum would.
pub fn windowed(samples: &[f64], w: usize, q: f64) -> f64 {
    quantile(&sorted(per_window(samples, w, q)), 0.25)
}

/// Quantile `q` of each consecutive window of `w` samples; a trailing
/// partial window joins the one before it.
pub fn per_window(samples: &[f64], w: usize, q: f64) -> Vec<f64> {
    let w = w.max(1);
    let n = (samples.len() / w).max(1);
    (0..n)
        .map(|i| {
            let end = if i + 1 == n {
                samples.len()
            } else {
                (i + 1) * w
            };
            quantile(&sorted(samples[i * w..end].to_vec()), q)
        })
        .collect()
}

pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// `p50 / p99 / supported tail` summary line of a latency sample (ms).
pub fn describe_ms(label: &str, sorted: &[f64]) -> String {
    let (tp, tv) = supported_tail(sorted);
    format!(
        "{label}: n={} p50={:.4} ms p99={:.4} ms p{tp}={:.4} ms (highest percentile with >=10 samples beyond)",
        sorted.len(),
        quantile(sorted, 0.5),
        quantile(sorted, 0.99),
        tv
    )
}

/// Values with four decimals, space-separated.
pub fn fmt_list(v: &[f64]) -> String {
    v.iter()
        .map(|x| format!("{x:.4}"))
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(supported_tail(&v).0, 90.0);
    }

    #[test]
    fn windows_keep_bursts_out() {
        let mut v: Vec<f64> = (0..80).map(|i| f64::from(i % 10)).collect();
        v[5] = 1000.0;
        v[15] = 1000.0;
        v[25] = 1000.0;
        assert_eq!(windowed(&v, 10, 1.0), 9.0);
        // One lucky window does not set the figure.
        v[79] = 0.0;
        v[78] = 0.0;
        assert_eq!(per_window(&v, 10, 1.0)[7], 7.0);
        assert_eq!(windowed(&v, 10, 1.0), 9.0);
        assert_eq!(per_window(&v[..25], 10, 1.0), vec![1000.0, 1000.0]);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }
}
