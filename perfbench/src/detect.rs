//! `detect_import` and `detect_spectral`: one trace file → one
//! `DetectionResult`, file after file, through `open_path` → `detect_source`.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::time::Instant;

use ftio_core::config::FtioConfig;
use ftio_core::detection::{detect_signal, detect_source, DetectionResult};
use ftio_core::sampling::{sample_heatmap, sample_trace};
use ftio_dsp::plan_cache;
use ftio_trace::source::{drain_single, open_path, DrainedInput};
use ftio_trace::BandwidthTimeline;

use crate::check;
use crate::corpus::{self, Content, FileSpec};
use crate::measure::{self, ms, Outcome};
use crate::stages::{self, StageTimes};
use crate::Opts;

/// Which corpus.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Corpus {
    Import,
    Spectral,
}

impl Corpus {
    fn files(self) -> usize {
        match self {
            Corpus::Import => corpus::IMPORT_FILES,
            Corpus::Spectral => corpus::SPECTRAL_FILES,
        }
    }

    /// Concurrent clients, each working through the corpus file after file.
    /// The request corpus runs two: its sampling loop is the most sensitive
    /// to what else runs on a core, and two clients average over both cores
    /// of the host. The spectral corpus runs one, since its transforms
    /// already use both cores through the FFT pool.
    fn clients(self) -> usize {
        match self {
            Corpus::Import => 2,
            Corpus::Spectral => 1,
        }
    }

    fn spec(self, opts: &Opts, slot: usize) -> FileSpec {
        match self {
            Corpus::Import => corpus::import_spec(opts.seed, slot, opts.size),
            Corpus::Spectral => corpus::spectral_spec(opts.seed, slot, opts.size),
        }
    }
}

/// Cold passes over the corpus that make up `setup_s` (median reported).
const SETUP_PASSES: usize = 5;
/// Operations a run holds at least: p90 with ten samples beyond it.
const MIN_OPS: usize = 100;
/// How far the summed stage times may differ from `detect_signal`'s own
/// time, in percent of the latter, before the traced run is incorrect.
const MAX_STAGE_GAP_PCT: f64 = 10.0;

/// The bits of a result that the checks read. Passes over one file give the
/// same summary unless the program is nondeterministic; each distinct
/// summary is checked once and counts for every operation that produced it.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Summary {
    freq: u64,
    bin: u64,
    power: u64,
    resolution: u64,
    threshold: u64,
    num_samples: u64,
    sampling_freq: u64,
    window_start: u64,
}

impl Summary {
    /// `None` when the result holds no dominant frequency or no
    /// characterisation — a failed operation on these periodic inputs.
    fn of(result: &DetectionResult) -> Option<Summary> {
        let dominant = result.dominant.dominant?;
        let characterization = result.characterization?;
        Some(Summary {
            freq: dominant.frequency.to_bits(),
            bin: dominant.bin as u64,
            power: dominant.power.to_bits(),
            resolution: result.freq_resolution.to_bits(),
            threshold: characterization.threshold.to_bits(),
            num_samples: result.num_samples as u64,
            sampling_freq: result.sampling_freq.to_bits(),
            window_start: result.window_start.to_bits(),
        })
    }

    /// The independent checks of one result against the file's spec: period
    /// (with harmonic folding), volume preservation, and the power of the
    /// reported bin by a direct DFT of independently discretised samples.
    fn holds_for(&self, spec: &FileSpec) -> Result<(), String> {
        let f = |bits: u64| f64::from_bits(bits);
        let (freq, power, fs) = (f(self.freq), f(self.power), f(self.sampling_freq));
        let n = self.num_samples as usize;
        let window_start = f(self.window_start);
        if !check::period_matches(freq, spec.period, f(self.resolution)) {
            return Err(format!(
                "{}: period {} s, generator {} s",
                spec.name,
                1.0 / freq,
                spec.period
            ));
        }
        // Characterisation's threshold is the mean bandwidth over the window.
        let volume = f(self.threshold) * n as f64 / fs;
        let (expected_volume, samples) = match &spec.content {
            Content::Requests(requests) => (
                check::volume_in(requests, window_start, window_start + n as f64 / fs),
                check::sample_requests(requests, window_start, fs, n),
            ),
            Content::Bins { bin_width, bins } => (
                bins.iter().sum(),
                bins.iter().map(|v| v / bin_width).collect(),
            ),
        };
        if !check::close(volume, expected_volume, 1e-7) {
            return Err(format!(
                "{}: window volume {volume}, expected {expected_volume}",
                spec.name
            ));
        }
        let expected_power = check::bin_power(&samples, self.bin as usize);
        if !check::close(power, expected_power, 1e-6) {
            return Err(format!(
                "{}: bin power {power}, direct DFT {expected_power}",
                spec.name
            ));
        }
        Ok(())
    }
}

/// Per-file tally of the summaries seen, plus failed operations.
struct Tally {
    seen: Vec<HashMap<Summary, u64>>,
    errors: u64,
}

impl Tally {
    fn new(files: usize) -> Self {
        Tally {
            seen: vec![HashMap::new(); files],
            errors: 0,
        }
    }

    fn note(&mut self, slot: usize, result: Result<DetectionResult, String>) {
        match result.as_ref().ok().and_then(Summary::of) {
            Some(summary) => *self.seen[slot].entry(summary).or_default() += 1,
            None => {
                if let Err(e) = result {
                    eprintln!("detect failed: {e}");
                }
                self.errors += 1;
            }
        }
    }

    /// Adds another tally's counts to this one.
    fn absorb(&mut self, other: Tally) {
        self.errors += other.errors;
        for (mine, theirs) in self.seen.iter_mut().zip(other.seen) {
            for (summary, count) in theirs {
                *mine.entry(summary).or_default() += count;
            }
        }
    }

    /// Checks every distinct summary against its file's spec and books the
    /// operations into `outcome`.
    fn settle(self, corpus: Corpus, opts: &Opts, outcome: &mut Outcome) {
        for _ in 0..self.errors {
            outcome.record(false);
        }
        for (slot, seen) in self.seen.into_iter().enumerate() {
            let spec = corpus.spec(opts, slot);
            for (summary, count) in seen {
                let verdict = summary.holds_for(&spec);
                if let Err(e) = &verdict {
                    eprintln!("check failed ({count} operations): {e}");
                }
                for _ in 0..count {
                    outcome.record(verdict.is_ok());
                }
            }
        }
    }
}

/// Writes the corpus for this seed under the run directory.
fn write_corpus(corpus: Corpus, opts: &Opts) -> Vec<PathBuf> {
    (0..corpus.files())
        .map(|slot| {
            let spec = corpus.spec(opts, slot);
            let path = opts.run_dir.join(&spec.name);
            std::fs::write(&path, corpus::encode(&spec)).expect("write corpus file");
            path
        })
        .collect()
}

/// One operation: the file through the program's offline entry point.
fn detect_file(path: &Path, config: &FtioConfig) -> Result<DetectionResult, String> {
    let (_, mut source) = open_path(path).map_err(|e| e.to_string())?;
    detect_source(source.as_mut(), config).map_err(|e| e.to_string())
}

/// The untraced run: end-to-end metrics.
pub fn run(corpus: Corpus, opts: &Opts) -> Outcome {
    let files = write_corpus(corpus, opts);
    let config = FtioConfig::default();
    let mut tally = Tally::new(files.len());

    // Set-up: cold passes, each after dropping this thread's FFT plans.
    let mut setup = Vec::with_capacity(SETUP_PASSES);
    for _ in 0..SETUP_PASSES {
        plan_cache::clear();
        let mut busy = 0.0;
        for (slot, path) in files.iter().enumerate() {
            let t = Instant::now();
            let result = detect_file(path, &config);
            busy += t.elapsed().as_secs_f64();
            tally.note(slot, result);
        }
        setup.push(busy);
    }

    // Timed phase: whole passes over the corpus by each client.
    let clients = corpus.clients();
    let cpu0 = measure::cpu_seconds();
    let start = Instant::now();
    let client = || {
        let mut tally = Tally::new(files.len());
        let mut latencies = Vec::new();
        while start.elapsed().as_secs_f64() < opts.seconds || latencies.len() * clients < MIN_OPS {
            for (slot, path) in files.iter().enumerate() {
                let t = Instant::now();
                let result = detect_file(path, &config);
                latencies.push(ms(t.elapsed()));
                tally.note(slot, result);
            }
        }
        (latencies, tally)
    };
    let streams: Vec<(Vec<f64>, Tally)> = if clients == 1 {
        // On this thread, whose plan cache the set-up passes warmed.
        vec![client()]
    } else {
        // Plan caches are per thread: release this one, so only the
        // clients' caches hold plans.
        plan_cache::clear();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients).map(|_| scope.spawn(client)).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("detect client thread"))
                .collect()
        })
    };
    let wall = start.elapsed().as_secs_f64();
    let cpu = measure::cpu_seconds() - cpu0;
    let mut latencies = Vec::new();
    for (stream, stream_tally) in streams {
        latencies.extend(stream);
        tally.absorb(stream_tally);
    }
    let ops = latencies.len() as f64;

    let mut outcome = Outcome::default();
    tally.settle(corpus, opts, &mut outcome);
    outcome.add("setup_s", measure::median(&mut setup), "s");
    outcome.add(
        "latency_ms_p50",
        measure::percentile(&mut latencies, 50),
        "ms",
    );
    outcome.add(
        "latency_ms_p90",
        measure::percentile(&mut latencies, 90),
        "ms",
    );
    outcome.add("ops_per_s", ops / wall, "1/s");
    outcome.add("cpu_ms_per_op", cpu * 1e3 / ops, "ms");
    outcome.add("rss_mb", measure::peak_rss_mb(), "MB");
    outcome
}

/// The traced run: per-layer metrics, the stage composition pinned against
/// `detect_signal`, and the same independent checks.
pub fn run_traced(corpus: Corpus, opts: &Opts) -> (Outcome, BTreeMap<&'static str, f64>) {
    let files = write_corpus(corpus, opts);
    let config = FtioConfig::default();
    let mut tally = Tally::new(files.len());
    let mut outcome = Outcome::default();
    // Warm the plan cache so stage times are steady-state.
    for (slot, path) in files.iter().enumerate() {
        tally.note(slot, detect_file(path, &config));
    }

    let mut stages = StageTimes::default();
    let (mut decode, mut sample, mut detect) = (0.0, 0.0, 0.0);
    let (mut records, mut bytes, mut breakpoints, mut samples) = (0u64, 0u64, 0u64, 0u64);
    let mut ops = 0u64;
    // Per operation, (detect_signal − Σ stages) / detect_signal in percent.
    let mut gaps = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < opts.seconds || ops < MIN_OPS as u64 {
        for (slot, path) in files.iter().enumerate() {
            let t = Instant::now();
            let input =
                open_path(path).and_then(|(_, mut source)| drain_single(source.as_mut(), "source"));
            decode += ms(t.elapsed());
            let input = match input {
                Ok(input) => input,
                Err(e) => {
                    ops += 1;
                    tally.note(slot, Err(e.to_string()));
                    continue;
                }
            };
            bytes += std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
            let t = Instant::now();
            let signal = match &input {
                DrainedInput::Trace(trace) => sample_trace(trace, config.sampling_freq),
                DrainedInput::Heatmap(heatmap) => sample_heatmap(heatmap),
            };
            sample += ms(t.elapsed());
            match &input {
                DrainedInput::Trace(trace) => {
                    records += trace.len() as u64;
                    breakpoints += BandwidthTimeline::from_trace(trace).times().len() as u64;
                }
                DrainedInput::Heatmap(heatmap) => records += heatmap.len() as u64,
            }
            samples += signal.len() as u64;
            // Alternate which of the pair runs first, so neither always
            // finds the caches warmed by the other.
            let (staged, parent) = (stages.total(), detect);
            let (composed, reference) = if ops & 1 == 0 {
                let composed = stages::compose(&signal, &config, &mut stages);
                let t = Instant::now();
                let reference = detect_signal(&signal, &config);
                detect += ms(t.elapsed());
                (composed, reference)
            } else {
                let t = Instant::now();
                let reference = detect_signal(&signal, &config);
                detect += ms(t.elapsed());
                (stages::compose(&signal, &config, &mut stages), reference)
            };
            let (staged, parent) = (stages.total() - staged, detect - parent);
            gaps.push((parent - staged) / parent * 100.0);
            ops += 1;
            if stages::fingerprint(&composed) != stages::fingerprint(&reference) {
                eprintln!(
                    "{}: stage composition differs from detect_signal",
                    path.display()
                );
                outcome.record(false);
                continue;
            }
            tally.note(slot, Ok(reference));
        }
    }
    tally.settle(corpus, opts, &mut outcome);

    let per_op = |total: f64| total / ops as f64;
    // The median over operations: one call that an interrupt or a
    // descheduling stretched by milliseconds cannot move it, where it would
    // move a ratio of sums over calls of half a millisecond.
    let gap = measure::median(&mut gaps);
    if gap.abs() > MAX_STAGE_GAP_PCT {
        outcome.breach(format!(
            "stage times reconcile with detect_signal only within {gap:.1} % \
             (limit {MAX_STAGE_GAP_PCT} %)"
        ));
    }
    let mut layers = BTreeMap::new();
    layers.insert("source.decode_ms", per_op(decode));
    layers.insert("source.requests", per_op(records as f64));
    layers.insert("source.bytes", per_op(bytes as f64));
    layers.insert("sampling.sample_trace_ms", per_op(sample));
    layers.insert("sampling.breakpoints", per_op(breakpoints as f64));
    layers.insert("sampling.samples", per_op(samples as f64));
    layers.insert("spectrum.rfft_ms", per_op(stages.rfft));
    layers.insert("spectrum.len", per_op(samples as f64));
    layers.insert("outlier.scan_ms", per_op(stages.outlier));
    layers.insert("dominant.select_ms", per_op(stages.dominant));
    layers.insert("autocorrelation.acf_ms", per_op(stages.acf));
    layers.insert("characterize.ms", per_op(stages.characterize));
    layers.insert("detection.detect_signal_ms", per_op(detect));
    layers.insert("detection.stage_gap_pct", gap);
    (outcome, layers)
}
