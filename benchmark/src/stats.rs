//! Order statistics over timing samples.

/// How many samples must lie beyond a reported percentile. A tail read
/// off fewer than this is one or two outliers, not a percentile.
pub const MIN_BEYOND: usize = 10;

/// Sort ascending; timings are never NaN.
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    samples
}

/// The median of a sorted, non-empty sample.
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The `q`-quantile of a sorted, non-empty sample, lowered as far as needed
/// for at least [`MIN_BEYOND`] samples to lie beyond it; with too few
/// samples for any tail, the median. Returns the value and the quantile
/// actually read.
pub fn percentile(sorted: &[f64], q: f64) -> (f64, f64) {
    let n = sorted.len();
    assert!(n > 0, "percentile of an empty sample");
    if n <= 2 * MIN_BEYOND {
        return (median(sorted), 0.5);
    }
    let wanted = ((n - 1) as f64 * q).floor() as usize;
    let idx = wanted.min(n - 1 - MIN_BEYOND);
    (sorted[idx], idx as f64 / (n - 1) as f64)
}

/// Repeated timings of one fixed sequence of steps, reduced to the fastest
/// each step ever ran. On a shared host another tenant slows the core for
/// spells of milliseconds to seconds; the same step repeats the same work
/// every pass, so its fastest time is the time the work takes and the rest
/// is the neighbour. A cost the program pays every time stays in the sum.
#[derive(Debug, Default, Clone)]
pub struct Fastest(Vec<f64>);

impl Fastest {
    /// Fold in one more pass over the same steps.
    pub fn absorb(&mut self, pass: &[f64]) {
        if self.0.is_empty() {
            self.0 = pass.to_vec();
            return;
        }
        assert_eq!(self.0.len(), pass.len(), "passes time the same steps");
        for (best, &t) in self.0.iter_mut().zip(pass) {
            *best = best.min(t);
        }
    }

    /// The fastest time of each step, in step order.
    pub fn steps(&self) -> &[f64] {
        &self.0
    }

    /// The fastest times summed: one pass with no slow spell in it.
    pub fn total(&self) -> f64 {
        self.0.iter().sum()
    }
}

/// First and third quartile (Python's `statistics.quantiles(v, n=4)`,
/// exclusive method) of a sorted sample of at least two values.
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        sorted[j - 1] + frac * (sorted[j] - sorted[j - 1])
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[1.0, 2.0, 9.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), 3.0);
    }

    #[test]
    fn percentile_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (0..1536).map(f64::from).collect();
        // p99 of 1536 samples has 15 beyond it: read as asked.
        let (p99, q) = percentile(&v, 0.99);
        assert_eq!(p99, 1519.0);
        assert!((q - 0.99).abs() < 1e-3);
        // p99 of 200 samples would have one beyond: lowered to leave ten.
        let v: Vec<f64> = (0..200).map(f64::from).collect();
        let (p, q) = percentile(&v, 0.99);
        assert_eq!(p, 189.0);
        assert_eq!(v.len() - 1 - 189, MIN_BEYOND);
        assert!(q < 0.99);
        // Too few samples for any tail: the median.
        let v: Vec<f64> = (0..15).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), (7.0, 0.5));
    }

    #[test]
    fn fastest_keeps_each_steps_best_and_every_steady_cost() {
        let mut f = Fastest::default();
        // Step 1 is dear in every pass (a checkpoint, say): it stays dear.
        // The slow spell hits step 0 in one pass and step 2 in the other.
        f.absorb(&[9.0, 5.0, 1.0]);
        f.absorb(&[1.0, 5.5, 7.0]);
        f.absorb(&[1.5, 5.2, 1.2]);
        assert_eq!(f.steps(), [1.0, 5.0, 1.0]);
        assert_eq!(f.total(), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }
}
