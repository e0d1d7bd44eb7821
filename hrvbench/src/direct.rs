//! `fleet_direct`: one caller thread feeds an external-ingest
//! `FleetScheduler` through its public API. No service layer runs.

use crate::inputs::{Pool, Reference};
use crate::util::{cpu_s, median, quantile, us, vm_hwm_kb, Checks, Metrics};
use hrv_core::{PsaConfig, SpectralPlan};
use hrv_stream::FleetScheduler;
use std::time::Instant;

/// Workload size.
pub struct DirectShape {
    pub streams: usize,
    /// Samples per `push_rr_batch` call.
    pub batch: usize,
    /// Passes to run even when `seconds` is already spent.
    pub min_passes: usize,
}

/// Set-ups per run (passes plus set-up-only repetitions), so `setup_s`
/// is a median of several.
const SETUP_REPS: usize = 7;

/// One timed set-up: plan build, fleet start, every stream opened.
/// Returns the fleet, the set-up time, the plan-build time and the
/// per-stream open time.
fn setup(streams: usize, workers: usize) -> (FleetScheduler, f64, f64, f64) {
    let started = Instant::now();
    let plan = SpectralPlan::new(PsaConfig::conventional()).expect("plan");
    let mut fleet = FleetScheduler::external(plan, workers).expect("external fleet");
    let planned = started.elapsed();
    for id in 0..streams {
        fleet.open_stream(id).expect("open stream");
    }
    let total = started.elapsed();
    let open_us = us(total - planned) / streams as f64;
    (
        fleet,
        total.as_secs_f64(),
        planned.as_secs_f64() * 1e3,
        open_us,
    )
}

/// What one pass measured.
struct Pass {
    samples_per_s: f64,
    cpu_us_per_sample: f64,
    ack_us: Vec<f64>,
    window_us: Vec<f64>,
    push_us_per_ksample: f64,
    close_all_ms: f64,
    cover_pct: f64,
    energy_uj_per_window: f64,
    ops_per_window: f64,
}

/// Runs passes of `shape` until `seconds` are spent (at least
/// `min_passes`), checking every report against `reference` (built with
/// the same batch size, ungoverned).
pub fn run(
    pool: &Pool,
    reference: &Reference,
    shape: &DirectShape,
    seconds: f64,
) -> (Metrics, Checks) {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let batches = pool.batches(shape.batch);
    let mut checks = Checks::default();
    let (mut setups, mut plan_ms, mut open_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut passes = Vec::new();
    let started = Instant::now();
    while passes.len() < shape.min_passes || started.elapsed().as_secs_f64() < seconds {
        let (mut fleet, setup_s, plan, open) = setup(shape.streams, workers);
        setups.push(setup_s);
        plan_ms.push(plan);
        open_us.push(open);

        let cpu0 = cpu_s("self");
        let t0 = Instant::now();
        let (mut ack_us, mut window_us) = (Vec::new(), Vec::new());
        let mut push_us = 0.0;
        // Round-robin in stream-time order: batch k of every stream
        // before batch k + 1 of any, so every engine stays live.
        for k in 0..batches {
            for id in 0..shape.streams {
                let chunk = pool.chunk(id, shape.batch, k);
                if chunk.is_empty() {
                    continue;
                }
                let call = Instant::now();
                let pushed = fleet.push_rr_batch(id, chunk);
                let acked = us(call.elapsed());
                checks.check(matches!(pushed, Ok(n) if n == chunk.len()), || {
                    format!("stream {id} batch {k}: push_rr_batch {pushed:?}")
                });
                ack_us.push(acked);
                push_us += acked;
                let v = Reference::variant(id, false);
                if reference.completes(v, k) {
                    let windows = fleet.stream_report(id).map(|r| r.windows);
                    window_us.push(us(call.elapsed()));
                    let expected = reference.windows_after(v, k);
                    checks.check(matches!(windows, Ok(w) if w == expected), || {
                        format!("stream {id} batch {k}: windows {windows:?}, expected {expected}")
                    });
                }
            }
        }
        let closing = Instant::now();
        let reports = fleet.close_all();
        let close_all_ms = closing.elapsed().as_secs_f64() * 1e3;
        let wall = t0.elapsed().as_secs_f64();
        let cpu = cpu_s("self") - cpu0;

        checks.check(reports.len() == shape.streams, || {
            format!("close_all returned {} reports", reports.len())
        });
        for report in &reports {
            let v = Reference::variant(report.id, false);
            checks.check(reference.matches(v, report), || {
                format!("stream {} report differs from the reference", report.id)
            });
        }
        let samples: u64 = reports.iter().map(|r| r.ingest.accepted).sum();
        let windows: u64 = reports.iter().map(|r| r.windows).sum();
        let energy: f64 = reports.iter().map(|r| r.energy_j).sum();
        let ops: u64 = reports.iter().map(|r| r.ops.total()).sum();
        passes.push(Pass {
            samples_per_s: samples as f64 / wall,
            cpu_us_per_sample: cpu * 1e6 / samples as f64,
            ack_us,
            window_us,
            push_us_per_ksample: push_us * 1e3 / samples as f64,
            close_all_ms,
            cover_pct: (push_us * 1e-6 + close_all_ms * 1e-3) / wall * 100.0,
            energy_uj_per_window: energy * 1e6 / windows as f64,
            ops_per_window: ops as f64 / windows as f64,
        });
    }
    while setups.len() < SETUP_REPS {
        let (_fleet, setup_s, plan, open) = setup(shape.streams, workers);
        setups.push(setup_s);
        plan_ms.push(plan);
        open_us.push(open);
    }

    let per_pass = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let mut m = Metrics::default();
    m.put("setup_s", median(&setups), "s", format!(
        "median of {} set-ups: SpectralPlan::new + FleetScheduler::external({workers} workers) + {} open_stream calls", setups.len(), shape.streams));
    m.put("samples_per_s", per_pass(&|p| p.samples_per_s), "1/s", format!(
        "median over {} passes of accepted samples / (first push_rr_batch .. close_all returned), {} streams x {} s in {}-sample batches", passes.len(), shape.streams, crate::inputs::RECORD_S, shape.batch));
    m.put("cpu_us_per_sample", per_pass(&|p| p.cpu_us_per_sample), "us", "median over passes of this process's CPU time (utime+stime) over the pass / accepted samples");
    m.put(
        "rss_mb",
        vm_hwm_kb("self") / 1024.0,
        "MB",
        "VmHWM of this process (fleet, inputs and reference) at run end",
    );
    m.put(
        "energy_uj_per_window",
        per_pass(&|p| p.energy_uj_per_window),
        "uJ",
        "charged energy summed over closed reports / windows (deterministic per seed)",
    );
    m.put("ack_p50_us", per_pass(&|p| quantile(&p.ack_us, 0.5)), "us", "median over passes of the per-pass p50 of one push_rr_batch call (the batch is analysed when it returns)");
    m.put(
        "ack_p99_us",
        per_pass(&|p| quantile(&p.ack_us, 0.99)),
        "us",
        "median over passes of the per-pass p99 of one push_rr_batch call",
    );
    m.put("window_p50_us", per_pass(&|p| quantile(&p.window_us, 0.5)), "us", "median over passes of the per-pass p50 of a window-completing push_rr_batch call plus the stream_report read that shows the window");
    m.put(
        "window_p99_us",
        per_pass(&|p| quantile(&p.window_us, 0.99)),
        "us",
        "as window_p50_us, p99",
    );
    m.put(
        "core.exec.plan_build_ms",
        median(&plan_ms),
        "ms",
        "median of SpectralPlan::new + FleetScheduler::external over the set-ups",
    );
    m.put(
        "stream.fleet.open_us",
        median(&open_us),
        "us",
        "median over set-ups of the mean open_stream call",
    );
    m.put(
        "stream.fleet.push_batch_us_per_ksample",
        per_pass(&|p| p.push_us_per_ksample),
        "us",
        "median over passes of summed push_rr_batch time per 1000 accepted samples",
    );
    m.put(
        "stream.fleet.close_all_ms",
        per_pass(&|p| p.close_all_ms),
        "ms",
        "median over passes of the close_all call (trailing windows + reports)",
    );
    m.put(
        "lomb.ops_per_window",
        per_pass(&|p| p.ops_per_window),
        "count",
        "operation count summed over closed reports / windows (deterministic)",
    );
    m.put("trace.cover_pct", per_pass(&|p| p.cover_pct), "%", "share of the pass wall time inside timed fleet calls (push_rr_batch + close_all); the rest is the feeding loop and report reads");
    (m, checks)
}
