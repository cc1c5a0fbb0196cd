//! Order statistics: quantiles, medians and the tail-percentile rule.

/// Percentiles the tail rule may pick, in per-mille, highest first.
const TAIL_PER_MILLE: [u64; 6] = [999, 990, 950, 900, 750, 500];

/// The highest percentile that leaves at least ten of `units` samples
/// beyond it, as a fraction (0.99 for 1000 units).  Units are what is
/// independent: ticks for a tick-correlated event stream, queries for a
/// query loop.  Falls back to the median below 20 units.
pub fn tail_quantile(units: usize) -> f64 {
    let units = units as u64;
    TAIL_PER_MILLE
        .iter()
        .find(|&&pm| units * (1000 - pm) / 1000 >= 10)
        .map_or(0.5, |&pm| pm as f64 / 1000.0)
}

/// `p99`, `p95`, ... as a label for a quantile the tail rule picked.
pub fn quantile_label(q: f64) -> String {
    let pct = q * 100.0;
    if (pct - pct.round()).abs() < 1e-9 {
        format!("p{}", pct.round() as u64)
    } else {
        format!("p{pct}")
    }
}

/// Quantile `q` of `values` by linear interpolation between closest
/// ranks (the "inclusive" definition).  Sorts in place.  0 when empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_leaves_ten_samples_beyond() {
        assert_eq!(tail_quantile(10_000), 0.999);
        assert_eq!(tail_quantile(1_000), 0.99);
        assert_eq!(tail_quantile(999), 0.95);
        assert_eq!(tail_quantile(200), 0.95);
        assert_eq!(tail_quantile(199), 0.9);
        assert_eq!(tail_quantile(100), 0.9);
        assert_eq!(tail_quantile(40), 0.75);
        assert_eq!(tail_quantile(20), 0.5);
        assert_eq!(tail_quantile(3), 0.5);
        for units in 20..5_000usize {
            let q = tail_quantile(units);
            let beyond = units as f64 * (1.0 - q);
            assert!(beyond >= 10.0 - 1e-9, "{units} units, q={q}");
        }
    }

    #[test]
    fn labels() {
        assert_eq!(quantile_label(0.99), "p99");
        assert_eq!(quantile_label(0.999), "p99.9");
        assert_eq!(quantile_label(0.5), "p50");
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let mut v: Vec<f64> = (1..=5).rev().map(f64::from).collect();
        assert_eq!(median(&mut v), 3.0);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 5.0);
        assert_eq!(quantile(&mut v, 0.25), 2.0);
        assert_eq!(quantile(&mut v, 0.125), 1.5);
        let mut even = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut even), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }
}
