//! The synchronous baseline of the online workloads: the same flushes
//! replayed through one `OnlinePredictor` per application on one thread,
//! with a clock around each layer call.

use std::time::Instant;

use ftio_core::cluster::ClusterConfig;
use ftio_core::online::{OnlinePrediction, OnlinePredictor};
use ftio_trace::IoRequest;

use crate::measure::ms;
use crate::stages::{self, StageTimes};

/// Layer times summed over a replay (ms), and the work they cover.
#[derive(Default)]
pub struct SyncTotals {
    pub ticks: u64,
    pub fold: f64,
    pub view: f64,
    pub predict: f64,
    pub stages: StageTimes,
    /// Final `history().len()` summed over the replayed applications.
    pub history: u64,
    pub apps: u64,
    /// Ticks whose stage-composed result differs from `predict`'s.
    pub composition_mismatches: u64,
}

/// Replays one application's flushes (`(requests, now)` in submission order)
/// with the engine's per-application settings, returning every prediction.
///
/// Per tick: `ingest` (fold), a separate `view` of the window `predict` will
/// analyse, the detection stages composed on that view, then `predict`
/// itself; the composition is pinned bit for bit against the prediction.
pub fn replay_app(
    flushes: &[(Vec<IoRequest>, f64)],
    config: &ClusterConfig,
    totals: &mut SyncTotals,
) -> Vec<OnlinePrediction> {
    let mut predictor = OnlinePredictor::with_memory(config.ftio, config.strategy, config.memory);
    let mut predictions = Vec::with_capacity(flushes.len());
    for (requests, now) in flushes {
        let t = Instant::now();
        predictor.ingest(requests.iter().copied());
        totals.fold += ms(t.elapsed());

        let (start, end) = predictor.window_at(*now);
        let t = Instant::now();
        let view = predictor.sampler().view(start, end);
        totals.view += ms(t.elapsed());
        let composed = stages::compose(&view, &config.ftio, &mut totals.stages);

        let t = Instant::now();
        let prediction = predictor.predict(*now);
        totals.predict += ms(t.elapsed());
        totals.ticks += 1;
        if stages::fingerprint(&composed) != stages::fingerprint(&prediction.result) {
            totals.composition_mismatches += 1;
        }
        predictions.push(prediction);
    }
    totals.history += predictor.history().len() as u64;
    totals.apps += 1;
    predictions
}
