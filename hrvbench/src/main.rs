//! The hrv-psa benchmark binary: runs one workload for a given seed and
//! duration and prints its metrics as `METRIC` lines and its output
//! checks as one `CHECKS` line (`run.py` turns them into the result).
//!
//! ```text
//! hrvbench --workload <fleet_direct|gateway_saturate|gateway_paced>
//!          --seed <n> --seconds <s> --trace <0|1>
//! hrvbench --serve <max_sessions> <queue_capacity>   (gateway child)
//! ```
//!
//! With `--trace 0` the workload runs untraced for `--seconds`. With
//! `--trace 1` it runs untraced for half the time and then with its
//! layer timers for the other half, and adds standalone layer replays
//! plus small probes of the layers the workload bypasses. The program's
//! own span tracer stays off throughout.

mod direct;
mod gw;
mod inputs;
mod layers;
mod util;

use direct::DirectShape;
use gw::{PacedShape, SaturateShape};
use inputs::{Pool, Reference};
use std::time::Duration;
use util::{Checks, Metrics};

/// `fleet_direct`: 2000 streams x 1800 s in 256-sample batches.
const DIRECT: DirectShape = DirectShape {
    streams: 2000,
    batch: 256,
    min_passes: 2,
};

/// `gateway_saturate`: the same data through the gateway, queues of 4
/// batches (well below a session's ~2200 samples).
const SATURATE: SaturateShape = SaturateShape {
    streams: 2000,
    batch: 256,
    queue: 1024,
    conns: 2,
    probe_every: 64,
    min_passes: 2,
};

/// `gateway_paced`: 2000 sessions, one 16-sample upload each every
/// 0.64 s (50k samples/s in all), one in four budget-governed.
const PACED: PacedShape = PacedShape {
    streams: 2000,
    batch: 16,
    rate: 50_000.0,
    conns: 2,
    governed_every: 4,
    setups: 9,
    idle_hold: Duration::from_millis(1000),
};

/// Probe of the fleet layer for traced gateway runs.
const DIRECT_PROBE: DirectShape = DirectShape {
    streams: 64,
    batch: 256,
    min_passes: 1,
};

/// Probe of the service layers (and the governor) for traced runs of
/// workloads that bypass them.
const PACED_PROBE: PacedShape = PacedShape {
    streams: 64,
    setups: 1,
    idle_hold: Duration::from_millis(300),
    ..PACED
};
const PACED_PROBE_S: f64 = 2.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--serve") {
        let num = |i: usize| -> usize {
            argv.get(i)
                .and_then(|v| v.parse().ok())
                .expect("--serve <max_sessions> <queue_capacity>")
        };
        gw::serve(num(1), num(2));
        std::process::exit(0);
    }
    let value = |flag: &str| -> Result<String, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(at + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<f64, String> {
        value(flag)?
            .parse::<f64>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    Ok(Args {
        workload: value("--workload")?,
        seed: number("--seed")? as u64,
        seconds: number("--seconds")?,
        trace: number("--trace")? != 0.0,
    })
}

/// Runs `workload` for `seconds` on `pool`, building its reference
/// first (outside every timed region).
fn measure(
    workload: &str,
    pool: &Pool,
    seconds: f64,
    seed: u64,
    traced: bool,
) -> (Metrics, Checks) {
    match workload {
        "fleet_direct" => {
            let reference = Reference::build(pool, DIRECT.batch, None, false);
            direct::run(pool, &reference, &DIRECT, seconds)
        }
        "gateway_saturate" => {
            let reference = Reference::build(pool, SATURATE.batch, None, false);
            gw::saturate(pool, &reference, &SATURATE, seconds, seed, traced)
        }
        "gateway_paced" => {
            let (warm, paced) = PACED.batches(pool, seconds);
            let reference = Reference::build(pool, PACED.batch, Some(warm + paced), true);
            gw::paced(pool, &reference, &PACED, seconds, traced)
        }
        other => panic!("unknown workload {other:?}"),
    }
}

/// The traced run: an untraced and a traced half, then standalone
/// replays and probes for the layers the workload does not exercise.
fn traced(workload: &str, pool: &Pool, seconds: f64, seed: u64) -> (Metrics, Checks) {
    let (base, mut checks) = measure(workload, pool, seconds / 2.0, seed, false);
    let (mut m, traced_checks) = measure(workload, pool, seconds / 2.0, seed, true);
    checks.merge(traced_checks);
    let (overhead, what) = if workload == "gateway_paced" {
        (
            m.get("ack_p50_us") / base.get("ack_p50_us") - 1.0,
            "ack_p50_us",
        )
    } else {
        (
            base.get("samples_per_s") / m.get("samples_per_s") - 1.0,
            "samples_per_s",
        )
    };
    m.put(
        "trace.overhead_pct",
        overhead * 100.0,
        "%",
        format!("{what} of the traced half against the untraced half of this run (noise included)"),
    );

    let batch = if workload == "gateway_paced" {
        PACED.batch
    } else {
        DIRECT.batch
    };
    m.fill(layers::replay(pool, batch), "standalone replay");
    if workload != "fleet_direct" {
        let reference = Reference::build(pool, DIRECT_PROBE.batch, None, false);
        let (probe, probe_checks) = direct::run(pool, &reference, &DIRECT_PROBE, 0.0);
        checks.merge(probe_checks);
        m.fill(probe, "fleet_direct probe (64 streams)");
    }
    if workload != "gateway_paced" {
        let (warm, paced) = PACED_PROBE.batches(pool, PACED_PROBE_S);
        let reference = Reference::build(pool, PACED_PROBE.batch, Some(warm + paced), true);
        let (probe, probe_checks) = gw::paced(pool, &reference, &PACED_PROBE, PACED_PROBE_S, true);
        checks.merge(probe_checks);
        m.fill(probe, "gateway_paced probe (64 sessions)");
    }
    (m, checks)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("hrvbench: {err}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "META simd={} nproc={nproc} workload={} seed={} seconds={} trace={}",
        hrv_dsp::SimdLevel::active().as_str(),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let pool = Pool::new(args.seed);
    let (mut m, checks) = if args.trace {
        traced(&args.workload, &pool, args.seconds, args.seed)
    } else {
        measure(&args.workload, &pool, args.seconds, args.seed, false)
    };
    m.put("gen.synth_s", pool.synth_s, "s", format!(
        "synthesis of the {} pooled recordings (cohort_member, {} s each), outside every timed region", pool.recs.len(), inputs::RECORD_S));
    for (name, metric) in &m.rows {
        println!(
            "METRIC {name} {} {} {}",
            metric.value, metric.unit, metric.covers
        );
    }
    println!("CHECKS {} {}", checks.attempted, checks.failed);
}
