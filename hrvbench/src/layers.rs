//! Standalone layer replays for the traced run: the ingest gate, the
//! sliding engine and the wire encoder, each timed alone over the run's
//! recordings.

use crate::inputs::Pool;
use crate::util::{median, Metrics};
use hrv_core::{KernelCache, PsaConfig, SpectralPlan};
use hrv_service::{proto, HEADER_LEN};
use hrv_stream::{RrIngest, SlidingLomb, StreamScratch};
use std::hint::black_box;
use std::time::Instant;

/// Replays per measurement; the median is reported.
const REPS: usize = 5;

/// `RrIngest` gate + ring per sample, `SlidingLomb::push` per
/// non-emitting sample and per emitted window, and `encode_push_rr` per
/// sample in `batch`-sample frames.
pub fn replay(pool: &Pool, batch: usize) -> Metrics {
    let samples: usize = pool.recs.iter().map(Vec::len).sum();
    let (mut ingest_ns, mut push_ns, mut window_us, mut encode_ns) =
        (vec![], vec![], vec![], vec![]);
    let plan = SpectralPlan::new(PsaConfig::conventional()).expect("plan");
    let cache = KernelCache::new();
    let prototype = SlidingLomb::from_plan(&plan, &cache).expect("engine");
    let mut bytes = 0usize;
    for _ in 0..REPS {
        let started = Instant::now();
        for rec in &pool.recs {
            let mut ingest = RrIngest::new();
            for &(t, rr) in rec {
                black_box(ingest.push_rr(t, rr));
                black_box(ingest.pop());
            }
        }
        ingest_ns.push(started.elapsed().as_secs_f64() * 1e9 / samples as f64);

        let (mut emitting_s, mut windows, mut quiet) = (0.0, 0usize, 0usize);
        let started = Instant::now();
        for rec in &pool.recs {
            let mut engine = prototype.clone();
            let mut scratch = StreamScratch::new();
            for &(t, rr) in rec {
                if engine.will_emit(t) {
                    let push = Instant::now();
                    windows += engine.push(t, rr, &mut scratch, &mut |w| {
                        black_box(w);
                    });
                    emitting_s += push.elapsed().as_secs_f64();
                } else {
                    engine.push(t, rr, &mut scratch, &mut |w| {
                        black_box(w);
                    });
                    quiet += 1;
                }
            }
        }
        let total_s = started.elapsed().as_secs_f64();
        push_ns.push((total_s - emitting_s) * 1e9 / quiet as f64);
        window_us.push(emitting_s * 1e6 / windows as f64);

        bytes = 0;
        let started = Instant::now();
        for (k, rec) in pool.recs.iter().enumerate() {
            for chunk in rec.chunks(batch) {
                bytes += black_box(proto::encode_push_rr(k as u64, chunk)).len() + HEADER_LEN;
            }
        }
        encode_ns.push(started.elapsed().as_secs_f64() * 1e9 / samples as f64);
    }
    let mut m = Metrics::default();
    m.put(
        "stream.ingest.push_ns_per_sample",
        median(&ingest_ns),
        "ns",
        format!(
            "standalone RrIngest push_rr + pop over the run's {} recordings, median of {REPS}",
            pool.recs.len()
        ),
    );
    m.put("stream.sliding.push_ns_per_sample", median(&push_ns), "ns", "standalone SlidingLomb::from_plan replay: time of pushes that emit no window (will_emit false) per such push, median of 5");
    m.put("stream.sliding.window_us", median(&window_us), "us", "standalone SlidingLomb replay: time of window-emitting pushes per emitted window, median of 5");
    m.put("service.proto.encode_ns_per_sample", median(&encode_ns), "ns", format!(
        "proto::encode_push_rr over the run's recordings in {batch}-sample batches, per sample, median of {REPS}"));
    m.put(
        "service.proto.wire_bytes_per_sample",
        bytes as f64 / samples as f64,
        "bytes",
        format!("PushRr frame bytes (header included) per sample at {batch}-sample batches"),
    );
    m
}
