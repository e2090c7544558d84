//! `detect_signal` composed from its public stages, with a clock around each.
//!
//! The traced runs call these stages from the benchmark's own code, so every
//! per-stage time is a span around one call into the program, and the
//! composed result is pinned bit for bit against `detect_signal` on the same
//! signal.

use std::collections::hash_map::DefaultHasher;
use std::fmt::Debug;
use std::hash::Hasher;
use std::time::Instant;

use ftio_core::autocorrelation::analyze_acf;
use ftio_core::characterize::characterize;
use ftio_core::config::{FtioConfig, OutlierMethod};
use ftio_core::detection::DetectionResult;
use ftio_core::dominant::select_dominant;
use ftio_core::outlier::detect_outliers;
use ftio_core::sampling::SampledSignal;
use ftio_core::spectrum_info::SpectrumInfo;

use crate::measure::ms;

/// Summed stage times (ms) and the number of compositions they cover.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimes {
    pub runs: u64,
    pub samples: u64,
    pub rfft: f64,
    pub outlier: f64,
    pub dominant: f64,
    pub acf: f64,
    pub characterize: f64,
}

impl StageTimes {
    /// Sum of every stage, ms.
    pub fn total(&self) -> f64 {
        self.rfft + self.outlier + self.dominant + self.acf + self.characterize
    }
}

/// Runs the detection stages on `signal` one by one, adding each stage's time
/// to `times`, and assembles the same [`DetectionResult`] `detect_signal`
/// builds.
pub fn compose(
    signal: &SampledSignal,
    config: &FtioConfig,
    times: &mut StageTimes,
) -> DetectionResult {
    assert!(
        !config.skip_first_phase,
        "the composition mirrors detect_signal without first-phase skipping"
    );
    let samples = &signal.samples;
    let fs = signal.sampling_freq;

    let t = Instant::now();
    let spectrum = SpectrumInfo::from_samples(samples, fs);
    times.rfft += ms(t.elapsed());

    let t = Instant::now();
    let outliers = detect_outliers(spectrum.non_dc_powers(), &config.outlier_method);
    times.outlier += ms(t.elapsed());

    let zscore_threshold = match config.outlier_method {
        OutlierMethod::ZScore { threshold } => threshold,
        _ => 3.0,
    };
    let t = Instant::now();
    let dominant = select_dominant(
        &spectrum,
        &outliers,
        zscore_threshold,
        config.tolerance,
        config.filter_harmonics,
        config.harmonic_tolerance,
    );
    times.dominant += ms(t.elapsed());

    let t = Instant::now();
    let acf = config.use_autocorrelation.then(|| {
        analyze_acf(
            samples,
            fs,
            config.acf_peak_height,
            config.acf_outlier_threshold,
        )
    });
    times.acf += ms(t.elapsed());

    let t = Instant::now();
    let characterization = dominant
        .dominant
        .and_then(|d| characterize(signal, d.frequency));
    times.characterize += ms(t.elapsed());

    times.runs += 1;
    times.samples += samples.len() as u64;
    DetectionResult {
        sampling_freq: fs,
        num_samples: samples.len(),
        window_start: signal.start_time,
        window_length: samples.len() as f64 / fs,
        abstraction_error: signal.abstraction_error,
        freq_resolution: spectrum.freq_resolution(),
        num_frequencies: spectrum.num_bins().saturating_sub(1),
        mean_contribution: spectrum.mean_non_dc_contribution(),
        dominant,
        acf,
        characterization,
    }
}

/// A hash of a value's `Debug` rendering. `Debug` prints every `f64` in its
/// shortest round-trip form, so equal fingerprints mean bit-identical
/// results (up to hash collisions), without materialising the text.
pub fn fingerprint(value: &impl Debug) -> u64 {
    struct Sink(DefaultHasher);
    impl std::fmt::Write for Sink {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0.write(s.as_bytes());
            Ok(())
        }
    }
    let mut sink = Sink(DefaultHasher::new());
    std::fmt::write(&mut sink, format_args!("{value:?}")).expect("hashing never fails");
    sink.0.finish()
}
