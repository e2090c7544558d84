//! Seeded trace files for the two offline workloads.
//!
//! Every file is a clean periodic writer with a seeded period, phase, duty
//! cycle, request sizes and background noise. The *shape* of each file — its
//! format, request count, duration and signal length — is fixed per slot and
//! does not depend on the seed, so per-file cost, and with it every latency
//! percentile, is comparable across seeds.

use ftio_trace::{darshan_parser, jsonl, msgpack, recorder, tmio, Heatmap, IoRequest};

use crate::rng::Rng;

/// The on-disk formats the corpora use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    Jsonl,
    Msgpack,
    TmioJson,
    TmioMsgpack,
    Recorder,
    DarshanDxt,
    HeatmapText,
    DarshanHeatmap,
}

impl Format {
    fn extension(self) -> &'static str {
        match self {
            Format::Jsonl => "jsonl",
            Format::Msgpack => "msgpack",
            Format::TmioJson => "json",
            Format::TmioMsgpack => "tmio.msgpack",
            Format::Recorder => "txt",
            Format::DarshanDxt => "dxt",
            Format::HeatmapText => "heatmap",
            Format::DarshanHeatmap => "darshan.txt",
        }
    }
}

/// What a file holds, as the generator made it.
pub enum Content {
    /// Rank-level requests.
    Requests(Vec<IoRequest>),
    /// Bins-only profile: volume per bin.
    Bins { bin_width: f64, bins: Vec<f64> },
}

/// One generated file: its format, ground-truth period and content.
pub struct FileSpec {
    pub name: String,
    pub format: Format,
    /// The generator's period in seconds.
    pub period: f64,
    pub content: Content,
}

/// Corpus size: `Full` for measurement, `Smoke` for a seconds-long try.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// Per-slot shape of the request corpus: format, ranks, total requests and
/// duration in seconds. Seven slots, so that with equal counts per file p50
/// and p90 fall inside one file's group, not on a boundary between two.
const IMPORT_SLOTS: [(Format, usize, usize, f64); 7] = [
    (Format::Jsonl, 8, 3_000, 300.0),
    (Format::Msgpack, 16, 6_000, 300.0),
    (Format::TmioJson, 8, 3_000, 250.0),
    (Format::TmioMsgpack, 16, 5_000, 250.0),
    (Format::Recorder, 8, 4_000, 300.0),
    (Format::DarshanDxt, 8, 4_000, 250.0),
    (Format::Jsonl, 32, 6_000, 400.0),
];

/// Per-slot shape of the spectral corpus: format and signal length, at one
/// bin per second. A power of two, a composite length, two large primes
/// (Bluestein) and the longest power of two; five slots for the same
/// percentile reason as above.
const SPECTRAL_SLOTS: [(Format, usize, usize); 5] = [
    (Format::DarshanHeatmap, 65_536, 4_096),
    (Format::HeatmapText, 65_537, 4_099),
    (Format::HeatmapText, 120_000, 7_500),
    (Format::HeatmapText, 131_071, 8_191),
    (Format::HeatmapText, 262_144, 16_384),
];

/// Number of files in the request corpus.
pub const IMPORT_FILES: usize = IMPORT_SLOTS.len();
/// Number of files in the spectral corpus.
pub const SPECTRAL_FILES: usize = SPECTRAL_SLOTS.len();

/// Rounds a time to whole microseconds, so every text format (some print six
/// decimals) reads back the exact value the generator holds.
fn us(t: f64) -> f64 {
    (t * 1e6).round() / 1e6
}

/// The request-corpus file in `slot` for `seed`.
pub fn import_spec(seed: u64, slot: usize, size: Size) -> FileSpec {
    let (format, ranks, total, duration) = IMPORT_SLOTS[slot];
    let (total, duration) = match size {
        Size::Full => (total, duration),
        Size::Smoke => (total / 8, duration / 4.0),
    };
    let mut rng = Rng::new(seed, 100 + slot as u64);
    let bursts = rng.int(36, 48) as usize;
    let period = duration / bursts as f64;
    // A fixed duty cycle keeps the density of breakpoints inside bursts, and
    // with it the sampler's cost, the same for every seed.
    let duty = 0.2;
    let t0 = (rng.range(0.0, 5.0) * 1e3).round() / 1e3;
    let mean_bytes = rng.range(1.0, 8.0) * (1 << 20) as f64;
    let noise = total / 50;
    let bursty = total - noise - 1;

    let mut requests = Vec::with_capacity(total);
    for burst in 0..bursts {
        let start = us(t0 + burst as f64 * period);
        let length = duty * period;
        // Spread this burst's share of the requests over the ranks; each rank
        // writes its requests back to back inside the burst.
        let share = bursty / bursts + usize::from(burst < bursty % bursts);
        for rank in 0..ranks.min(share) {
            let count = share / ranks + usize::from(rank < share % ranks);
            let slice = length / count as f64;
            for m in 0..count {
                let jitter = if rank == 0 && m == 0 {
                    0.0
                } else {
                    rng.range(0.0, 0.1)
                };
                let s = us(start + (m as f64 + jitter) * slice);
                let e = us(s + slice * rng.range(0.6, 0.9)).max(s + 1e-6);
                let bytes = (mean_bytes * rng.range(0.8, 1.2)).round() as u64;
                requests.push(IoRequest::write(rank, s, e, bytes));
            }
        }
    }
    for _ in 0..noise {
        let s = us(t0 + rng.range(0.0, duration - 1.0));
        let e = us(s + rng.range(0.01, 0.1));
        let bytes = rng.int(1 << 10, 64 << 10);
        requests.push(IoRequest::read(
            rng.int(0, ranks as u64 - 1) as usize,
            s,
            e,
            bytes,
        ));
    }
    // A small closing write pins the end of the trace to a whole number of
    // periods after its start.
    let end = us(t0 + duration);
    requests.push(IoRequest::write(0, us(end - 0.01), end, 4096));
    FileSpec {
        name: format!("import-{slot}.{}", format.extension()),
        format,
        period,
        content: Content::Requests(requests),
    }
}

/// The spectral-corpus file in `slot` for `seed`.
pub fn spectral_spec(seed: u64, slot: usize, size: Size) -> FileSpec {
    let (format, full_len, smoke_len) = SPECTRAL_SLOTS[slot];
    let len = match size {
        Size::Full => full_len,
        Size::Smoke => smoke_len,
    };
    let mut rng = Rng::new(seed, 200 + slot as u64);
    // A narrow period range and a fixed duty cycle keep the number of
    // spectral peaks and ACF peaks, and with them the per-file cost, alike
    // across seeds.
    let period_bins = rng.int(100, 140) as usize;
    let burst_bins = period_bins / 4;
    let phase = rng.int(0, period_bins as u64 - 1) as usize;
    let volume = rng.range(1.0, 16.0) * (1u64 << 30) as f64;
    let bins = (0..len)
        .map(|i| {
            if (i + period_bins - phase) % period_bins < burst_bins {
                (volume * rng.range(0.9, 1.1)).round()
            } else if rng.unit() < 0.05 {
                (volume * rng.range(0.0, 0.01)).round()
            } else {
                0.0
            }
        })
        .collect();
    FileSpec {
        name: format!("spectral-{slot}.{}", format.extension()),
        format,
        period: period_bins as f64,
        content: Content::Bins {
            bin_width: 1.0,
            bins,
        },
    }
}

/// The file's bytes in its format, written by the program's own encoders (the
/// inputs are the program's formats; what is checked is computed from the
/// spec, not from these bytes).
pub fn encode(spec: &FileSpec) -> Vec<u8> {
    match &spec.content {
        Content::Requests(requests) => {
            let ranks = requests.iter().map(|r| r.rank + 1).max().unwrap_or(1);
            match spec.format {
                Format::Jsonl => jsonl::encode_requests(requests).into_bytes(),
                Format::Msgpack => msgpack::encode_requests(requests),
                Format::TmioJson => tmio::encode_json(ranks, requests).into_bytes(),
                Format::TmioMsgpack => tmio::encode_msgpack(ranks, requests),
                Format::Recorder => recorder::encode_requests(requests).into_bytes(),
                Format::DarshanDxt => darshan_parser::encode_dxt(requests).into_bytes(),
                Format::HeatmapText | Format::DarshanHeatmap => {
                    unreachable!("request specs use request formats")
                }
            }
        }
        Content::Bins { bin_width, bins } => match spec.format {
            Format::HeatmapText => Heatmap::new(0.0, *bin_width, bins.clone())
                .to_text()
                .into_bytes(),
            Format::DarshanHeatmap => {
                darshan_parser::encode_heatmap_counters(*bin_width, bins).into_bytes()
            }
            _ => unreachable!("bin specs use heatmap formats"),
        },
    }
}
