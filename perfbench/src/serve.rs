//! `serve_stream`: an in-process `Server` on a Unix socket with two
//! connections. Each connection is one application that subscribes to its
//! own predictions and keeps one `Data` frame outstanding until its
//! `Prediction` frame arrives (a closed loop, two clients).
//!
//! A round starts a server, streams every flush of both applications — a
//! long per-application history — and shuts the server down through a client
//! `Shutdown`, whose `Stats` reply must balance.

use std::collections::BTreeMap;
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ftio_core::cluster::{BackpressurePolicy, ClusterConfig};
use ftio_core::server::{Server, ServerConfig, ServerListener};
use ftio_dsp::plan_cache;
use ftio_trace::source::{from_bytes_auto, DEFAULT_BATCH_SIZE};
use ftio_trace::{jsonl, AppId, Frame, FrameReader, IoRequest, PredictionUpdate, WireStats};

use crate::check;
use crate::corpus::Size;
use crate::measure::{self, ms, Outcome};
use crate::online::{self, SyncTotals};
use crate::rng::Rng;
use crate::Opts;

/// Application names; with two shards they route to different shards, so
/// the two connections are served by different engine workers.
const NAMES: [&str; 2] = ["perfbench-a", "perfbench-b"];
/// Predictions not yet period-checked (the window must hold several bursts).
const WARMUP: u64 = 8;
/// Operations a run holds at least: p99 with ten samples beyond it.
const MIN_OPS: usize = 1000;
/// A client gives up on a reply after this long.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

fn flushes_per_app(size: Size) -> usize {
    match size {
        Size::Full => 3000,
        Size::Smoke => 300,
    }
}

/// Set-up cycles per run; `setup_s` is their mean.
fn setup_cycles(size: Size) -> usize {
    match size {
        Size::Full => 60,
        Size::Smoke => 5,
    }
}

fn server_config() -> ServerConfig {
    ServerConfig {
        cluster: ClusterConfig {
            shards: 2,
            threads: 2,
            queue_capacity: 64,
            policy: BackpressurePolicy::Reject,
            ..ClusterConfig::default()
        },
        ..ServerConfig::default()
    }
}

/// One streaming application: its ground-truth period and every flush as
/// requests, flush time and the JSONL bytes a client sends.
struct App {
    name: &'static str,
    id: AppId,
    period: f64,
    payloads: Vec<Vec<u8>>,
}

fn us(t: f64) -> f64 {
    (t * 1e6).round() / 1e6
}

fn make_apps(opts: &Opts) -> Vec<App> {
    NAMES
        .iter()
        .enumerate()
        .map(|(k, &name)| {
            let mut rng = Rng::new(opts.seed, 300 + k as u64);
            // Periods within ±2 % of 10 s and a fixed burst shape: the tick
            // cost follows the analysis window (three periods) and the bin
            // buffer follows the history span, so both stay alike across
            // seeds.
            let period = rng.int(980, 1020) as f64 / 100.0;
            let offset = (rng.range(0.0, period) * 1e3).round() / 1e3;
            let burst = period * 0.2;
            let ranks = 4;
            let bytes = rng.int(1 << 28, 1 << 32) / ranks as u64;
            let payloads = (0..flushes_per_app(opts.size))
                .map(|i| {
                    let start = us(offset + i as f64 * period);
                    let end = us(start + burst);
                    let requests: Vec<IoRequest> = (0..ranks)
                        .map(|r| IoRequest::write(r, start, end, bytes))
                        .collect();
                    jsonl::encode_requests(&requests).into_bytes()
                })
                .collect();
            App {
                name,
                id: AppId::from_name(name),
                period,
                payloads,
            }
        })
        .collect()
}

/// A connected, welcomed and subscribed client.
struct Client {
    stream: UnixStream,
    frames: FrameReader<UnixStream>,
}

impl Client {
    fn read(&mut self) -> Result<Frame, String> {
        match self.frames.read_frame() {
            Ok(Some(frame)) => Ok(frame),
            Ok(None) => Err("server closed the connection".into()),
            Err(e) => Err(e.to_string()),
        }
    }

    fn send(&mut self, frame: &Frame) -> Result<(), String> {
        frame.write_to(&mut self.stream).map_err(|e| e.to_string())
    }

    /// Opens a connection.
    fn open(path: &Path) -> Result<Client, String> {
        let stream = UnixStream::connect(path).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let reader = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Client {
            stream,
            frames: FrameReader::new(reader),
        })
    }

    /// `Hello` → `Welcome`, then `Subscribe` to its own application.
    /// `Subscribe` has no reply; the server handles a connection's frames in
    /// order, so every later `Data` frame meets a live subscription.
    fn subscribe(&mut self, app: &App) -> Result<(), String> {
        self.send(&Frame::Hello {
            name: app.name.into(),
        })?;
        match self.read()? {
            Frame::Welcome { app: id, .. } if id == app.id => {}
            other => return Err(format!("expected Welcome, got {other:?}")),
        }
        self.send(&Frame::Subscribe {
            app: Some(app.id),
            from_seq: None,
        })
    }

    /// Both applications' clients: connected together, as independent
    /// clients would, then subscribed.
    fn connect_all(path: &Path, apps: &[App]) -> Result<Vec<Client>, String> {
        let mut clients = apps
            .iter()
            .map(|_| Client::open(path))
            .collect::<Result<Vec<_>, _>>()?;
        for (client, app) in clients.iter_mut().zip(apps) {
            client.subscribe(app)?;
        }
        Ok(clients)
    }

    /// A control connection: `Shutdown` → the drained engine's `Stats`.
    fn shutdown(path: &Path) -> Result<WireStats, String> {
        let mut control = Client::open(path)?;
        control.send(&Frame::Shutdown)?;
        match control.read()? {
            Frame::Stats(stats) => Ok(stats),
            other => Err(format!("expected Stats, got {other:?}")),
        }
    }
}

/// What one client thread saw in a round.
#[derive(Default)]
struct Stream {
    latencies: Vec<f64>,
    verdicts: Vec<bool>,
    encode_ms: f64,
    bytes_sent: u64,
    bytes_received: u64,
    updates: Vec<PredictionUpdate>,
    error: Option<String>,
}

/// The closed loop of one client: each `Data` frame waits for its
/// `Prediction` frame before the next is sent.
fn stream_app(client: &mut Client, app: &App) -> Stream {
    let mut out = Stream::default();
    for (i, payload) in app.payloads.iter().enumerate() {
        let t = Instant::now();
        let frame = Frame::Data(payload.clone()).encode();
        out.encode_ms += ms(t.elapsed());
        out.bytes_sent += frame.len() as u64;
        let before = client.frames.offset();
        if let Err(e) = client.stream.write_all(&frame) {
            out.error = Some(e.to_string());
            return out;
        }
        let reply = client.read();
        out.latencies.push(ms(t.elapsed()));
        out.bytes_received += client.frames.offset() - before;
        match reply {
            Ok(Frame::Prediction(update)) => {
                // Once warm, the window holds at least three periods, so one
                // resolution step is at most 1/(3·period).
                let ok = update.app == app.id
                    && update.seq == i as u64
                    && (update.seq < WARMUP
                        || update.period.is_some_and(|p| {
                            check::period_matches(1.0 / p, app.period, 1.0 / (3.0 * app.period))
                        }));
                out.verdicts.push(ok);
                out.updates.push(update);
            }
            Ok(Frame::Error { message, .. }) => {
                eprintln!("{}: error frame: {message}", app.name);
                out.verdicts.push(false);
            }
            Ok(other) => {
                out.error = Some(format!("{}: unexpected {other:?}", app.name));
                return out;
            }
            Err(e) => {
                out.error = Some(format!("{}: {e}", app.name));
                return out;
            }
        }
    }
    out
}

fn socket_path(opts: &Opts) -> PathBuf {
    opts.run_dir.join("serve.sock")
}

/// One set-up cycle: `Server::start`, then — after a wait that puts the
/// clients at a uniformly random phase of the daemon's accept poll, which is
/// not counted — both connections through `Subscribe`. Returns its seconds.
fn setup_cycle(opts: &Opts, apps: &[App], rng: &mut Rng) -> Result<f64, String> {
    let path = socket_path(opts);
    let t = Instant::now();
    let listener = ServerListener::unix(&path).map_err(|e| e.to_string())?;
    let server = Server::start(listener, server_config()).map_err(|e| e.to_string())?;
    let start = t.elapsed().as_secs_f64();
    std::thread::sleep(Duration::from_secs_f64(rng.range(0.0, 0.02)));
    let t = Instant::now();
    let clients = Client::connect_all(&path, apps);
    let connect = t.elapsed().as_secs_f64();
    // Close the clients before the server drains.
    let connected = clients.map(drop);
    server.finish();
    connected.map_err(|e| format!("set-up failed: {e}"))?;
    Ok(start + connect)
}

struct Round {
    wall: f64,
    streams: Vec<Stream>,
    cluster: ftio_core::cluster::ClusterStats,
    data_frames: u64,
}

fn round(opts: &Opts, apps: &[App], outcome: &mut Outcome) -> Option<Round> {
    let path = socket_path(opts);
    let started = Instant::now();
    let listener = ServerListener::unix(&path).expect("bind the benchmark socket");
    let server = Server::start(listener, server_config()).expect("start the server");
    let mut clients = match Client::connect_all(&path, apps) {
        Ok(clients) => clients,
        Err(e) => {
            outcome.breach(format!("connect: {e}"));
            server.finish();
            return None;
        }
    };
    let streams: Vec<Stream> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(apps)
            .map(|(client, app)| scope.spawn(move || stream_app(client, app)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    // Close the streaming clients, then drain through a control
    // connection's Shutdown: the Stats reply must balance. (A Shutdown on a
    // subscribed connection can wait out the server's 10 s barrier timeout
    // when its pusher has already stopped; see the README.)
    drop(clients);
    let expected = apps.iter().map(|a| a.payloads.len() as u64).sum::<u64>();
    match Client::shutdown(&path) {
        Ok(stats) if stats.is_balanced() && stats.ticks == expected && stats.rejected == 0 => {}
        Ok(stats) => outcome.breach(format!("drain stats {stats:?}, expected {expected} ticks")),
        Err(e) => outcome.breach(format!("shutdown: {e}")),
    }
    let report = server.wait();
    if report.server.data_frames != expected {
        outcome.breach(format!(
            "server counted {} data frames, sent {expected}",
            report.server.data_frames
        ));
    }
    for stream in &streams {
        if let Some(e) = &stream.error {
            outcome.breach(e.clone());
        }
    }
    Some(Round {
        wall: started.elapsed().as_secs_f64(),
        streams,
        cluster: report.cluster,
        data_frames: report.server.data_frames,
    })
}

/// The server's own decode of one app's payloads, replicated: the bytes
/// through `from_bytes_auto` and drained into `(requests, now)` submissions.
fn decode_payloads(app: &App, decode_ms: &mut f64) -> Vec<(Vec<IoRequest>, f64)> {
    let mut flushes = Vec::with_capacity(app.payloads.len());
    for payload in &app.payloads {
        let bytes = payload.clone();
        let t = Instant::now();
        let (_, mut source) = from_bytes_auto(None, app.id, bytes, DEFAULT_BATCH_SIZE)
            .expect("decode a generated payload");
        while let Some(batch) = source.next_batch().expect("drain a generated payload") {
            let now = batch.end_time().expect("a flush holds requests");
            flushes.push((batch.into_requests(), now));
        }
        *decode_ms += ms(t.elapsed());
    }
    flushes
}

/// The run: end-to-end metrics, or with `traced` the per-layer metrics.
pub fn run(opts: &Opts, traced: bool) -> (Outcome, BTreeMap<&'static str, f64>) {
    let apps = make_apps(opts);
    let mut outcome = Outcome::default();
    let mut setups = Vec::new();
    if !traced {
        let mut rng = Rng::new(opts.seed, 400);
        for _ in 0..setup_cycles(opts.size) {
            match setup_cycle(opts, &apps, &mut rng) {
                Ok(s) => setups.push(s),
                Err(e) => outcome.breach(e),
            }
        }
    }

    let mut latencies = Vec::new();
    let (mut wall, mut encode_ms, mut decode_ms) = (0.0, 0.0, 0.0);
    let (mut bytes_sent, mut bytes_received) = (0u64, 0u64);
    let mut sync = SyncTotals::default();
    let (mut mismatches, mut plans_built, mut scratch_grows) = (0u64, 0u64, 0u64);
    let mut last = None;
    let cpu0 = measure::cpu_seconds();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < opts.seconds || latencies.len() < MIN_OPS {
        let Some(r) = round(opts, &apps, &mut outcome) else {
            break;
        };
        wall += r.wall;
        let mut pushed = 0u64;
        let mut verdicts = Vec::new();
        for (stream, app) in r.streams.into_iter().zip(&apps) {
            latencies.extend(&stream.latencies);
            encode_ms += stream.encode_ms;
            bytes_sent += stream.bytes_sent;
            bytes_received += stream.bytes_received;
            pushed += stream.updates.len() as u64;
            let mut ok = stream.verdicts;
            if traced {
                // The engine-vs-sync pin at the wire: each pushed update
                // carries the synchronous replay's period, confidence and
                // time, bit for bit. The replay runs on a fresh thread, so
                // the plans it builds are the ones this job needs from cold.
                let flushes = decode_payloads(app, &mut decode_ms);
                let (replay, plans) = std::thread::scope(|scope| {
                    scope
                        .spawn(|| {
                            let replay =
                                online::replay_app(&flushes, &server_config().cluster, &mut sync);
                            (replay, plan_cache::stats())
                        })
                        .join()
                        .expect("replay thread")
                });
                plans_built += plans.plans_built();
                scratch_grows += plans.scratch_grows;
                for ((update, expected), verdict) in
                    stream.updates.iter().zip(&replay).zip(ok.iter_mut())
                {
                    let same = update.period.map(f64::to_bits)
                        == expected.period().map(f64::to_bits)
                        && update.confidence.to_bits() == expected.confidence().to_bits()
                        && update.time.to_bits() == expected.time.to_bits();
                    if !same {
                        mismatches += 1;
                        *verdict = false;
                    }
                }
            }
            verdicts.extend(ok);
        }
        for ok in verdicts {
            outcome.record(ok);
        }
        last = Some((r.cluster, r.data_frames, pushed));
    }
    let cpu = measure::cpu_seconds() - cpu0;
    if mismatches > 0 {
        // Already counted: each differing prediction failed its operation.
        eprintln!("{mismatches} pushed predictions differ from the synchronous replay");
    }
    if sync.composition_mismatches > 0 {
        outcome.breach(format!(
            "{} stage compositions differ from predict",
            sync.composition_mismatches
        ));
    }

    let ops = latencies.len() as f64;
    let mut layers = BTreeMap::new();
    if traced {
        let (cluster, data_frames, round_pushed) = last.expect("at least one round");
        let ticks = sync.ticks as f64;
        let predict_ms = sync.predict / ticks;
        let decode_per_op = decode_ms / ticks;
        layers.insert("source.decode_ms", decode_per_op);
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
        layers.insert("cluster.ticks", cluster.ticks as f64);
        layers.insert("cluster.coalesced", cluster.coalesced as f64);
        layers.insert("cluster.dropped", cluster.dropped as f64);
        layers.insert("cluster.rejected", cluster.rejected as f64);
        let rounds = sync.apps as f64 / apps.len() as f64;
        layers.insert("cluster.plans_built", plans_built as f64 / rounds);
        layers.insert("cluster.scratch_grows", scratch_grows as f64 / rounds);
        layers.insert("wire.encode_ms", encode_ms / ops);
        layers.insert("wire.bytes_sent", bytes_sent as f64 / ops);
        layers.insert("wire.bytes_received", bytes_received as f64 / ops);
        layers.insert("server.decode_ms", decode_per_op);
        layers.insert(
            "server.overhead_ms",
            measure::mean(&latencies) - decode_per_op - predict_ms,
        );
        layers.insert("server.data_frames", data_frames as f64);
        layers.insert("server.predictions_pushed", round_pushed as f64);
    } else {
        outcome.add("setup_s", measure::mean(&setups), "s");
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
            "serve_stream latency_ms_p99 {:.4} ms",
            measure::percentile(&mut latencies, 99)
        );
    }
    (outcome, layers)
}
