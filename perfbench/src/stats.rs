//! Order statistics shared by every workload.

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`q` in (0, 1]). A failed operation enters as
/// `f64::INFINITY`, so it counts as missing every latency limit instead of
/// vanishing from the sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Work per second a closed loop sustains in one part of its window.
///
/// `done` holds `(seconds since the window opened, units completed)` per
/// operation. The completions are cut into up to `max_chunks` runs of
/// equal operation count (at least 3 operations each), each run's rate is
/// units over the time it spanned, and the `q` quantile of the run rates is
/// returned. Tenants sharing the host switch it between a fast and a slow
/// state for seconds at a time, so the median run rate jumps with the mix
/// of the two in a window; each workload picks the `q` that sits inside
/// the state its windows nearly always see (see `perfbench/README.md`).
pub fn sustained_rate(done: &[(f64, f64)], max_chunks: usize, q: f64) -> f64 {
    let mut d = done.to_vec();
    d.sort_by(|a, b| a.0.total_cmp(&b.0));
    let n = d.len();
    if n == 0 {
        return 0.0;
    }
    let chunks = (n / 3).clamp(1, max_chunks);
    let mut rates = Vec::with_capacity(chunks);
    let mut prev_t = 0.0;
    let mut lo = 0;
    for k in 1..=chunks {
        let hi = k * n / chunks;
        let units: f64 = d[lo..hi].iter().map(|x| x.1).sum();
        let t = d[hi - 1].0;
        if t > prev_t {
            rates.push(units / (t - prev_t));
        }
        prev_t = t;
        lo = hi;
    }
    percentile(&rates, q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_counts_failures_as_misses() {
        let v = [1.0, 2.0, 3.0, f64::INFINITY];
        assert_eq!(percentile(&v, 0.5), 2.0);
        assert!(percentile(&v, 0.99).is_infinite());
    }

    #[test]
    fn sustained_rate_of_a_steady_loop_is_its_rate() {
        let done: Vec<(f64, f64)> = (1..=100).map(|i| (i as f64 * 0.01, 1.0)).collect();
        for q in [0.1, 0.25, 0.95] {
            assert!((sustained_rate(&done, 20, q) - 100.0).abs() < 1e-6);
        }
    }
}
