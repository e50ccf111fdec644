//! Order statistics used by every workload: percentiles of a latency
//! sample, the median of per-slice rates, and the quartile spread the
//! `agree` command gates on.

/// Sorts `v` in place (NaN-free input) and returns it for chaining.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    v
}

/// The `q`-quantile (`0.0..=1.0`) of an ascending slice, interpolating
/// linearly between the two closest ranks.  Empty input reads 0.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Median of an unsorted sample.
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 0.5)
}

/// Set-up is repeated at least this often and for at least this long.
const SETUP_REPEATS: usize = 5;
const SETUP_MIN_TIME: std::time::Duration = std::time::Duration::from_millis(400);

/// Runs `set_up` over and over and returns the median time one call took,
/// in seconds: the `setup_s` of every workload.
pub fn median_time_of(mut set_up: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    let started = std::time::Instant::now();
    let mut times = Vec::new();
    while times.len() < SETUP_REPEATS || started.elapsed() < SETUP_MIN_TIME {
        let t0 = std::time::Instant::now();
        set_up()?;
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok(median(&times))
}

/// The lower quartile of repeated timings of the same work.  Interference
/// on this shared box only ever adds time, and often to more than half of
/// a run's repetitions, so the quartile nearest the undisturbed value is a
/// steadier figure than the median; the fastest single repetition would
/// be steadier still but rests on one sample.
pub fn quiet_time(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 0.25)
}

/// The upper quartile of repeated rate measurements: [`quiet_time`] for
/// quantities where interference only ever subtracts.
pub fn quiet_rate(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 0.75)
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method),
/// so the spread printed here is the one the driver computes.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let data = sorted(values.to_vec());
    let n = data.len();
    if n < 2 {
        let v = data.first().copied().unwrap_or(0.0);
        return (v, v, v);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Distance between the first and third quartile as a share of the median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = sorted(vec![40.0, 10.0, 30.0, 20.0]);
        assert_eq!(percentile(&s, 0.0), 10.0);
        assert_eq!(percentile(&s, 1.0), 40.0);
        assert_eq!(percentile(&s, 0.5), 25.0);
        assert!((percentile(&s, 0.9) - 37.0).abs() < 1e-9);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quiet_quartiles_ignore_disturbed_epochs() {
        // Ten epochs at 100 casts/s, six of them slowed by a neighbour.
        let mut rates = vec![100.0; 10];
        for (i, r) in rates.iter_mut().enumerate().take(6) {
            *r = 60.0 + i as f64;
        }
        assert_eq!(quiet_rate(&rates), 100.0);
        assert!(median(&rates) < 100.0, "the median would have moved");
        let times: Vec<f64> = rates.iter().map(|r| 1e6 / r).collect();
        assert_eq!(quiet_time(&times), 1e4);
        assert_eq!(quiet_time(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
    }
}
