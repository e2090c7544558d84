//! `engine_fleet`: an in-process `ClusterEngine` fed a ~64-app
//! `MultiAppWorkload` in a closed loop — each application has one flush
//! outstanding until its `PredictionEvent` arrives on `subscribe(None)`.
//!
//! A round spawns a fresh engine, runs every application through its flushes
//! and drops the engine. Rounds keep the per-application history short, and
//! they bound memory: the engine keeps every prediction until it is dropped.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use ftio_core::cluster::{BackpressurePolicy, ClusterConfig, ClusterEngine, ClusterStats};
use ftio_core::online::OnlinePrediction;
use ftio_synth::multi_app::{MultiAppConfig, MultiAppWorkload};
use ftio_trace::{AppId, IoRequest};

use crate::check;
use crate::corpus::Size;
use crate::measure::{self, ms, Outcome};
use crate::online::{self, SyncTotals};
use crate::rng::Rng;
use crate::stages;
use crate::Opts;

const APPS: usize = 64;
/// Periods of the fleet, seconds.
const PERIOD_RANGE: (f64, f64) = (14.0, 22.0);
/// Share of each period spent writing.
const BURST_FRACTION: f64 = 0.2;
/// Flushes whose prediction is not yet period-checked: the window must hold
/// enough bursts to resolve the period first.
const WARMUP: u64 = 8;
/// Operations a run holds at least: p99 with ten samples beyond it.
const MIN_OPS: usize = 1000;

fn flushes_per_app(size: Size) -> usize {
    match size {
        Size::Full => 24,
        Size::Smoke => 12,
    }
}

/// Engine layout: 4 shards on 2 worker threads (the host's core budget); a
/// queue deep enough for every outstanding flush, refusing rather than
/// blocking, so any refusal shows as a failed operation.
fn cluster_config() -> ClusterConfig {
    ClusterConfig {
        shards: 4,
        threads: 2,
        queue_capacity: 256,
        policy: BackpressurePolicy::Reject,
        ..ClusterConfig::default()
    }
}

/// Checks the engine's accounting identity after a drain, with every
/// submission ticked (a closed loop never coalesces, drops or rejects).
fn accounting_holds(stats: &ClusterStats, expected_ticks: u64) -> bool {
    stats.ticks + stats.panicked + stats.coalesced + stats.dropped
        == stats.submitted - stats.rejected
        && stats.ticks == stats.submitted
        && stats.ticks == expected_ticks
}

/// One event's checks: dense per-application sequence numbers and, once warm,
/// a period matching the generator's.
fn event_ok(seq: u64, expected_seq: u64, prediction: &OnlinePrediction, period: f64) -> bool {
    seq == expected_seq
        && (seq < WARMUP
            || prediction.result.dominant_frequency().is_some_and(|f| {
                check::period_matches(f, period, prediction.result.freq_resolution)
            }))
}

struct Round {
    wall: f64,
    setup: Option<f64>,
    stats: ClusterStats,
    plans_built: u64,
    scratch_grows: u64,
    /// Traced runs: every event's prediction per application, in seq order.
    events: Vec<Vec<OnlinePrediction>>,
}

fn round(
    flushes: &[Vec<(Vec<IoRequest>, f64)>],
    periods: &[f64],
    traced: bool,
    latencies: &mut Vec<f64>,
    submit_ms: &mut Vec<f64>,
    outcome: &mut Outcome,
    verdicts: &mut Vec<bool>,
) -> Round {
    let per_app = flushes[0].len();
    let started = Instant::now();
    let engine = ClusterEngine::spawn(cluster_config());
    let events = engine.subscribe(None);
    let mut sent = vec![started; APPS];
    let mut next = vec![0usize; APPS];
    let mut expected_seq = vec![0u64; APPS];
    let mut recorded: Vec<Vec<OnlinePrediction>> = vec![Vec::new(); if traced { APPS } else { 0 }];
    let mut outstanding = 0usize;
    let mut submit =
        |app: usize, next: &mut [usize], sent: &mut [Instant], outcome: &mut Outcome| {
            let (requests, now) = &flushes[app][next[app]];
            next[app] += 1;
            sent[app] = Instant::now();
            let accepted = engine
                .submit(AppId::new(app as u64), requests.clone(), *now)
                .accepted();
            submit_ms.push(ms(sent[app].elapsed()));
            if !accepted {
                outcome.record(false);
            }
            accepted
        };
    for app in 0..APPS {
        outstanding += usize::from(submit(app, &mut next, &mut sent, outcome));
    }
    let mut first_seen = 0;
    let mut setup = None;
    while outstanding > 0 {
        let Ok(event) = events.recv_timeout(Duration::from_secs(30)) else {
            outcome.breach(format!(
                "engine published nothing for 30 s with {outstanding} flushes outstanding"
            ));
            break;
        };
        outstanding -= 1;
        let app = event.app.raw() as usize;
        latencies.push(ms(sent[app].elapsed()));
        verdicts.push(event_ok(
            event.seq,
            expected_seq[app],
            &event.prediction,
            periods[app],
        ));
        expected_seq[app] += 1;
        if traced {
            recorded[app].push(event.prediction);
        }
        if event.seq == 0 {
            // Set-up holds every application's second flush until the first
            // prediction of every application is out, so it spans the same
            // work (a spawn and one tick per application) in every round.
            first_seen += 1;
            if first_seen == APPS {
                setup = Some(started.elapsed().as_secs_f64());
                for app in 0..APPS {
                    if next[app] < per_app {
                        outstanding += usize::from(submit(app, &mut next, &mut sent, outcome));
                    }
                }
            }
        } else if next[app] < per_app {
            outstanding += usize::from(submit(app, &mut next, &mut sent, outcome));
        }
    }
    engine.flush();
    let stats = engine.stats();
    let plan_stats = engine.plan_cache_stats();
    drop(engine);
    if !accounting_holds(&stats, (APPS * per_app) as u64) {
        outcome.breach(format!("engine accounting after a round: {stats:?}"));
    }
    Round {
        wall: started.elapsed().as_secs_f64(),
        setup,
        stats,
        plans_built: plan_stats.iter().map(|s| s.plans_built()).sum(),
        scratch_grows: plan_stats.iter().map(|s| s.scratch_grows).sum(),
        events: recorded,
    }
}

/// The run: end-to-end metrics, or with `traced` the per-layer metrics.
pub fn run(opts: &Opts, traced: bool) -> (Outcome, BTreeMap<&'static str, f64>) {
    let mut workload = MultiAppWorkload::generate(
        &MultiAppConfig {
            apps: APPS,
            flushes_per_app: flushes_per_app(opts.size),
            ranks_per_app: 4,
            period_range: PERIOD_RANGE,
            burst_fraction: BURST_FRACTION,
            bytes_per_burst: 2_000_000_000,
        },
        opts.seed,
    );
    // The generator draws every period independently, so the fleet's set of
    // window lengths — and with it the tick cost and the memory the
    // predictions hold — would move with the seed. Spread the periods
    // evenly over the range instead and let the seed assign them to apps
    // (the generator's seeded phases stay).
    let mut grid: Vec<f64> = (0..APPS)
        .map(|k| PERIOD_RANGE.0 + (PERIOD_RANGE.1 - PERIOD_RANGE.0) * k as f64 / APPS as f64)
        .collect();
    let mut rng = Rng::new(opts.seed, 500);
    for i in (1..grid.len()).rev() {
        grid.swap(i, rng.int(0, i as u64) as usize);
    }
    for (stream, period) in workload.apps.iter_mut().zip(grid) {
        stream.period = period;
        stream.burst_duration = period * BURST_FRACTION;
    }
    let flushes: Vec<Vec<(Vec<IoRequest>, f64)>> = workload
        .apps
        .iter()
        .map(|stream| {
            (0..workload.flushes_per_app())
                .map(|i| stream.flush(i))
                .collect()
        })
        .collect();
    let periods: Vec<f64> = workload.apps.iter().map(|s| s.period).collect();

    let mut outcome = Outcome::default();
    let mut latencies = Vec::new();
    let mut submit_ms = Vec::new();
    let mut setups = Vec::new();
    let mut sync = SyncTotals::default();
    let mut last = None;
    let (mut wall, mut mismatches) = (0.0, 0u64);
    let cpu0 = measure::cpu_seconds();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < opts.seconds || latencies.len() < MIN_OPS {
        let mut verdicts = Vec::new();
        let r = round(
            &flushes,
            &periods,
            traced,
            &mut latencies,
            &mut submit_ms,
            &mut outcome,
            &mut verdicts,
        );
        wall += r.wall;
        setups.extend(r.setup);
        if traced {
            // The engine-vs-sync pin: every event equals the synchronous
            // replay's prediction for the same application and seq.
            for (app, events) in r.events.iter().enumerate() {
                let replay = online::replay_app(&flushes[app], &cluster_config(), &mut sync);
                for (event, expected) in events.iter().zip(&replay) {
                    if stages::fingerprint(event) != stages::fingerprint(expected) {
                        mismatches += 1;
                    }
                }
            }
        }
        for ok in verdicts {
            outcome.record(ok);
        }
        last = Some((r.stats, r.plans_built, r.scratch_grows));
    }
    let cpu = measure::cpu_seconds() - cpu0;
    if mismatches > 0 || sync.composition_mismatches > 0 {
        outcome.breach(format!(
            "{mismatches} engine events differ from the synchronous replay; \
             {} stage compositions differ from predict",
            sync.composition_mismatches
        ));
    }

    let ops = latencies.len() as f64;
    let mut layers = BTreeMap::new();
    if traced {
        let (stats, plans_built, scratch_grows) = last.expect("at least one round");
        let ticks = sync.ticks as f64;
        let predict_ms = sync.predict / ticks;
        layers.insert("sampling.fold_ms", sync.fold / ticks);
        layers.insert("sampling.view_ms", sync.view / ticks);
        layers.insert("spectrum.rfft_ms", sync.stages.rfft / ticks);
        layers.insert("spectrum.len", sync.stages.samples as f64 / ticks);
        layers.insert("outlier.scan_ms", sync.stages.outlier / ticks);
        layers.insert("dominant.select_ms", sync.stages.dominant / ticks);
        layers.insert("autocorrelation.acf_ms", sync.stages.acf / ticks);
        layers.insert("characterize.ms", sync.stages.characterize / ticks);
        layers.insert("online.predict_ms", predict_ms);
        layers.insert("online.history_len", sync.history as f64 / sync.apps as f64);
        layers.insert("online.sync_ticks_per_s", ticks / (sync.predict / 1e3));
        layers.insert("cluster.submit_ms", measure::mean(&submit_ms));
        layers.insert(
            "cluster.queue_wait_ms",
            measure::mean(&latencies) - predict_ms,
        );
        layers.insert("cluster.ticks", stats.ticks as f64);
        layers.insert("cluster.coalesced", stats.coalesced as f64);
        layers.insert("cluster.dropped", stats.dropped as f64);
        layers.insert("cluster.rejected", stats.rejected as f64);
        layers.insert("cluster.plans_built", plans_built as f64);
        layers.insert("cluster.scratch_grows", scratch_grows as f64);
    } else {
        outcome.add("setup_s", measure::median(&mut setups), "s");
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
        eprintln!(
            "engine_fleet latency_ms_p99 {:.4} ms",
            measure::percentile(&mut latencies, 99)
        );
    }
    (outcome, layers)
}
