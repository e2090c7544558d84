//! Independent checks: every expected value here is computed from the
//! generator's own description of an input, never from the program's
//! intermediate results.

use std::f64::consts::TAU;

use ftio_trace::IoRequest;

/// Whether `reported_freq` (Hz) is the generator's fundamental `1/period` or
/// its 2nd or 3rd harmonic — the period divided by k for k ≤ 3, the harmonic
/// folding `ftio_core::eval` scores by — within one frequency-resolution step.
pub fn period_matches(reported_freq: f64, period: f64, resolution: f64) -> bool {
    (1..=3).any(|k| (reported_freq - k as f64 / period).abs() <= resolution)
}

/// Relative agreement of two values.
pub fn close(actual: f64, expected: f64, rel: f64) -> bool {
    (actual - expected).abs() <= rel * expected.abs().max(f64::MIN_POSITIVE)
}

/// Bytes of `requests` inside `[t0, t1)`, each request's bytes spread evenly
/// over its duration.
pub fn volume_in(requests: &[IoRequest], t0: f64, t1: f64) -> f64 {
    requests
        .iter()
        .map(|r| {
            let overlap = r.end.min(t1) - r.start.max(t0);
            if overlap > 0.0 {
                r.bytes as f64 * overlap / (r.end - r.start)
            } else {
                0.0
            }
        })
        .sum()
}

/// The volume-preserving discretisation of `requests`: sample `i` is the
/// average bandwidth over `[t0 + i/fs, t0 + (i+1)/fs)`, computed request by
/// request over the bins each one overlaps.
pub fn sample_requests(requests: &[IoRequest], t0: f64, fs: f64, n: usize) -> Vec<f64> {
    let dt = 1.0 / fs;
    let mut volume = vec![0.0; n];
    for r in requests {
        let bw = r.bytes as f64 / (r.end - r.start);
        let first = ((r.start - t0) * fs).floor().max(0.0) as usize;
        let last = (((r.end - t0) * fs).floor().max(0.0) as usize).min(n.saturating_sub(1));
        for (b, slot) in volume.iter_mut().enumerate().take(last + 1).skip(first) {
            let lo = t0 + b as f64 * dt;
            let hi = lo + dt;
            let overlap = r.end.min(hi) - r.start.max(lo);
            if overlap > 0.0 {
                *slot += bw * overlap;
            }
        }
    }
    volume.into_iter().map(|v| v / dt).collect()
}

/// Power `|X_k|² / N` of bin `k` of `x`, by a direct single-bin DFT. Each
/// twiddle angle is reduced exactly in integers (`k·n mod N`) before the
/// trigonometric call, so the error does not grow with `n` as it does in the
/// Goertzel recurrence for low bins of long signals.
pub fn bin_power(x: &[f64], k: usize) -> f64 {
    let n = x.len() as u64;
    let (mut re, mut im) = (0.0f64, 0.0f64);
    for (i, &v) in x.iter().enumerate() {
        let phase = ((k as u64 * i as u64) % n) as f64 / n as f64 * TAU;
        re += v * phase.cos();
        im -= v * phase.sin();
    }
    (re * re + im * im) / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bin_power_of_a_cosine() {
        let n = 1000;
        let x: Vec<f64> = (0..n)
            .map(|i| (TAU * 7.0 * i as f64 / n as f64).cos())
            .collect();
        // |X_7| = N/2 for a unit cosine on bin 7.
        assert!(close(
            bin_power(&x, 7),
            (n as f64 / 2.0).powi(2) / n as f64,
            1e-9
        ));
        assert!(bin_power(&x, 8) < 1e-12);
    }

    #[test]
    fn sampling_preserves_volume() {
        let reqs = vec![
            IoRequest::write(0, 0.25, 1.75, 300),
            IoRequest::write(1, 1.0, 1.5, 100),
        ];
        let x = sample_requests(&reqs, 0.0, 2.0, 4);
        assert!(close(x.iter().sum::<f64>() / 2.0, 400.0, 1e-12));
        assert!(close(volume_in(&reqs, 0.0, 1.0), 150.0, 1e-12));
        assert!(period_matches(0.2, 10.0, 0.001));
        assert!(!period_matches(0.25, 10.0, 0.001));
    }
}
