//! The gateway workloads. The gateway runs in a child process (this
//! binary with `--serve`), so its CPU time and peak RSS are its own;
//! the generator talks to it over loopback TCP in raw frames, timing
//! every call from outside.

use crate::inputs::{budget, Pool, Reference};
use crate::util::{cpu_s, live_thread_cpu_s, median, quantile, us, vm_hwm_kb, Checks, Metrics};
use hrv_service::{
    proto, write_frame, BusyBackoff, FramePoll, FrameReader, Gateway, GatewayConfig,
    HealthSnapshot, Reply, Request, ServiceError, SessionConfig, PROTOCOL_VERSION,
};
use hrv_stream::StreamReport;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// A reply slower than this fails the run.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

// ---- the gateway process ---------------------------------------------------

/// Child-process role: one gateway with default settings except the
/// session limits; prints its address, serves until a client's
/// `Shutdown`, then prints its own CPU seconds and peak RSS.
pub fn serve(max_sessions: usize, queue_capacity: usize) {
    let handle = Gateway::start(GatewayConfig {
        session: SessionConfig {
            max_sessions,
            queue_capacity,
        },
        ..GatewayConfig::default()
    })
    .expect("gateway start");
    println!("ADDR {}", handle.local_addr());
    std::io::stdout().flush().expect("flush address");
    handle.wait().expect("gateway wait");
    println!("STATS {} {}", cpu_s("self"), vm_hwm_kb("self"));
}

/// A running child gateway; dropping it kills and reaps the process.
struct GatewayProc {
    child: Child,
    out: BufReader<ChildStdout>,
    addr: String,
    pid: String,
}

impl GatewayProc {
    fn spawn(max_sessions: usize, queue_capacity: usize) -> GatewayProc {
        let exe = std::env::current_exe().expect("current exe");
        let mut child = Command::new(exe)
            .args([
                "--serve",
                &max_sessions.to_string(),
                &queue_capacity.to_string(),
            ])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn gateway");
        let mut out = BufReader::new(child.stdout.take().expect("gateway stdout"));
        let mut line = String::new();
        out.read_line(&mut line).expect("read gateway address");
        let addr = line
            .trim()
            .strip_prefix("ADDR ")
            .expect("ADDR line")
            .to_string();
        let pid = child.id().to_string();
        GatewayProc {
            child,
            out,
            addr,
            pid,
        }
    }

    fn cpu_s(&self) -> f64 {
        cpu_s(&self.pid)
    }

    /// After `Shutdown`: the gateway's CPU seconds and peak RSS (kB) as
    /// it reported them on exit.
    fn finish(&mut self) -> (f64, f64) {
        let mut line = String::new();
        self.out.read_line(&mut line).expect("read gateway stats");
        let stats: Vec<f64> = line
            .trim()
            .strip_prefix("STATS ")
            .expect("STATS line")
            .split(' ')
            .map(|v| v.parse().expect("stat value"))
            .collect();
        let status = self.child.wait().expect("wait gateway");
        assert!(status.success(), "gateway exited with {status}");
        (stats[0], stats[1])
    }
}

impl Drop for GatewayProc {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

// ---- a raw-frame client connection -----------------------------------------

struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    out: Vec<u8>,
}

impl Conn {
    fn connect(addr: &str) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect to gateway");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_millis(200)))
            .expect("read timeout");
        let mut conn = Conn {
            stream,
            reader: FrameReader::new(),
            out: Vec::new(),
        };
        let hello = Request::Hello {
            version: PROTOCOL_VERSION,
        };
        match conn.call(&hello.encode()) {
            Ok((Reply::HelloAck { .. }, _)) => conn,
            other => panic!("handshake failed: {other:?}"),
        }
    }

    /// A second handle on the socket, for a writer thread.
    fn writer(&self) -> TcpStream {
        self.stream.try_clone().expect("clone socket")
    }

    fn send(&mut self, body: &[u8]) -> Result<(), String> {
        send_on(&mut self.stream, &mut self.out, body)
    }

    /// The next reply and the microseconds `Reply::decode` took.
    fn recv(&mut self) -> Result<(Reply, f64), String> {
        let deadline = Instant::now() + REPLY_TIMEOUT;
        loop {
            match self.reader.poll(&mut self.stream) {
                Ok(FramePoll::Frame(body)) => {
                    let started = Instant::now();
                    let reply = Reply::decode(&body).map_err(|e| format!("decode: {e}"))?;
                    return Ok((reply, us(started.elapsed())));
                }
                Ok(FramePoll::Pending) if Instant::now() < deadline => continue,
                Ok(FramePoll::Pending) => return Err("reply timeout".into()),
                Ok(FramePoll::Closed) => return Err("gateway closed the connection".into()),
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }

    fn call(&mut self, body: &[u8]) -> Result<(Reply, f64), String> {
        self.send(body)?;
        self.recv()
    }
}

/// Writes one frame with a single `write_all`.
fn send_on(stream: &mut TcpStream, out: &mut Vec<u8>, body: &[u8]) -> Result<(), String> {
    out.clear();
    write_frame(out, body).map_err(|e| format!("frame: {e}"))?;
    stream.write_all(out).map_err(|e| format!("write: {e}"))
}

// ---- set-up, drain and the shared per-layer reads ---------------------------

/// A gateway with every session open on `conns` connections.
struct Opened {
    gateway: GatewayProc,
    conns: Vec<Conn>,
    setup_s: f64,
    open_rtt_us: Vec<f64>,
}

/// Sessions per connection whose `OpenStream` is timed alone.
const OPEN_RTT_SAMPLES: usize = 16;

/// Checks one set-up reply: `BudgetSet` for a budget request,
/// `StreamOpened` otherwise.
fn check_opened(
    reply: Result<(Reply, f64), String>,
    (i, budget): (usize, bool),
    checks: &mut Checks,
) {
    let ok = match reply {
        Ok((Reply::BudgetSet { .. }, _)) => budget,
        Ok((Reply::StreamOpened { .. }, _)) => !budget,
        _ => false,
    };
    checks.check(ok, || format!("set-up of {i}: {reply:?}"));
}

/// Timed set-up: gateway start, connections, `OpenStream` for every
/// session (plus `SetBudget` where `governed`), one thread per
/// connection.
fn open(
    streams: usize,
    queue: usize,
    conns: usize,
    governed: &(dyn Fn(usize) -> bool + Sync),
    checks: &mut Checks,
) -> Opened {
    let started = Instant::now();
    let gateway = GatewayProc::spawn(streams, queue);
    let mut links: Vec<Conn> = (0..conns).map(|_| Conn::connect(&gateway.addr)).collect();
    let mut open_rtt_us = Vec::new();
    std::thread::scope(|scope| {
        let threads: Vec<_> = links
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                scope.spawn(move || {
                    let (mut rtts, mut checks) = (Vec::new(), Checks::default());
                    // The first sessions open one call at a time (the
                    // round-trip sample); the rest are pipelined, as a
                    // client opening many sessions would.
                    let mut wire = Vec::new();
                    let mut expected = Vec::new();
                    for (n, i) in (c..streams).step_by(conns).enumerate() {
                        let mut frame = |request: Request, budget: bool| {
                            write_frame(&mut wire, &request.encode()).expect("frame");
                            expected.push((i, budget));
                        };
                        frame(Request::OpenStream { stream: i as u64 }, false);
                        if governed(i) {
                            let stream = i as u64;
                            frame(
                                Request::SetBudget {
                                    stream,
                                    budget: budget(),
                                },
                                true,
                            );
                        }
                        if n < OPEN_RTT_SAMPLES {
                            let alone = expected.len() == 1;
                            let call = Instant::now();
                            conn.stream.write_all(&wire).expect("send open");
                            for sent in expected.drain(..) {
                                check_opened(conn.recv(), sent, &mut checks);
                            }
                            if alone {
                                rtts.push(us(call.elapsed()));
                            }
                            wire.clear();
                        }
                    }
                    conn.stream.write_all(&wire).expect("send opens");
                    for sent in expected {
                        check_opened(conn.recv(), sent, &mut checks);
                    }
                    (rtts, checks)
                })
            })
            .collect();
        for thread in threads {
            let (rtts, thread_checks) = thread.join().expect("open thread");
            open_rtt_us.extend(rtts);
            checks.merge(thread_checks);
        }
    });
    Opened {
        gateway,
        conns: links,
        setup_s: started.elapsed().as_secs_f64(),
        open_rtt_us,
    }
}

/// `Shutdown` on `conn`: the drained reports, id-ordered.
fn shutdown(conn: &mut Conn) -> Vec<StreamReport> {
    match conn.call(&Request::Shutdown.encode()) {
        Ok((Reply::ShutdownAck { reports }, _)) => reports,
        other => panic!("shutdown failed: {other:?}"),
    }
}

/// Compares drained reports with the reference: one per session, each
/// bit-identical to its variant, governed ones flagging what the
/// ungoverned recording flags.
fn check_reports(
    reports: &[StreamReport],
    streams: usize,
    reference: &Reference,
    governed: &dyn Fn(usize) -> bool,
    checks: &mut Checks,
) {
    checks.check(reports.len() == streams, || {
        format!("{} drained reports for {streams} sessions", reports.len())
    });
    for report in reports {
        let held = governed(report.id);
        let v = Reference::variant(report.id, held);
        checks.check(reference.matches(v, report), || {
            format!("stream {} report differs from the reference", report.id)
        });
        if held {
            checks.check(
                report.arrhythmia_windows == reference.ungoverned_arrhythmia(v),
                || format!("stream {} lost detection under its budget", report.id),
            );
        }
    }
}

/// The gateway's own stage histograms (from `ReadHealth`) as per-layer
/// metrics: p50, p99 and count per family; a family with several label
/// sets reports its busiest one's quantiles and the summed count.
fn stage_metrics(health: &HealthSnapshot, m: &mut Metrics) {
    const STAGES: [(&str, &str); 7] = [
        (
            "hrv_service_frame_read_seconds",
            "service.reactor.frame_read_us",
        ),
        (
            "hrv_service_frame_decode_seconds",
            "service.proto.frame_decode_us",
        ),
        (
            "hrv_service_report_encode_seconds",
            "service.proto.report_encode_us",
        ),
        (
            "hrv_service_queue_wait_seconds",
            "service.session.queue_wait_us",
        ),
        (
            "hrv_service_pump_dispatch_seconds",
            "service.gateway.pump_dispatch_us",
        ),
        (
            "hrv_stream_window_compute_seconds",
            "stream.sliding.window_compute_us",
        ),
        (
            "hrv_stream_governor_decision_seconds",
            "core.govern.decision_us",
        ),
    ];
    for (family, name) in STAGES {
        let rows: Vec<_> = health
            .stages
            .iter()
            .filter(|s| s.family == family && s.count > 0)
            .collect();
        let Some(busiest) = rows.iter().max_by_key(|s| s.count) else {
            continue;
        };
        let covers =
            format!("gateway histogram {family} (log2 buckets) read by one ReadHealth at run end");
        m.put(
            &format!("{name}_p50"),
            busiest.p50_s * 1e6,
            "us",
            covers.clone(),
        );
        m.put(
            &format!("{name}_p99"),
            busiest.p99_s * 1e6,
            "us",
            covers.clone(),
        );
        let count: u64 = rows.iter().map(|s| s.count).sum();
        m.put(&format!("{name}_count"), count as f64, "count", covers);
    }
}

/// Traced-run reads at run end: `ReadMetrics` and `ReadHealth` round
/// trips and the stage histograms.
fn operator_reads(conn: &mut Conn, m: &mut Metrics, checks: &mut Checks) {
    let call = Instant::now();
    let metrics = conn.call(&Request::ReadMetrics.encode());
    let metrics_ms = call.elapsed().as_secs_f64() * 1e3;
    checks.check(matches!(metrics, Ok((Reply::Metrics(_), _))), || {
        format!("ReadMetrics: {metrics:?}")
    });
    let call = Instant::now();
    let health = conn.call(&Request::ReadHealth.encode());
    let health_ms = call.elapsed().as_secs_f64() * 1e3;
    match health {
        Ok((Reply::Health(health), _)) => {
            checks.check(true, String::new);
            stage_metrics(&health, m);
        }
        other => checks.check(false, || format!("ReadHealth: {other:?}")),
    }
    m.put(
        "core.telemetry.metrics_rtt_ms",
        metrics_ms,
        "ms",
        "one ReadMetrics round trip at run end (renders the whole registry)",
    );
    m.put(
        "core.telemetry.health_rtt_ms",
        health_ms,
        "ms",
        "one ReadHealth round trip at run end (one row per session)",
    );
}

/// Gateway CPU share of one core while every session is open and no
/// traffic flows.
fn idle_share(gateway: &GatewayProc, hold: Duration) -> f64 {
    let (cpu0, t0) = (live_thread_cpu_s(&gateway.pid), Instant::now());
    std::thread::sleep(hold);
    (live_thread_cpu_s(&gateway.pid) - cpu0) / t0.elapsed().as_secs_f64()
}

// ---- gateway_saturate --------------------------------------------------------

/// `gateway_saturate` size.
pub struct SaturateShape {
    pub streams: usize,
    pub batch: usize,
    /// Per-session queue capacity in samples.
    pub queue: usize,
    pub conns: usize,
    /// Every `probe_every`-th session reads its report after each batch
    /// that completes a window.
    pub probe_every: usize,
    pub min_passes: usize,
}

/// Set-ups per run (passes plus set-up-only repetitions).
const SATURATE_SETUPS: usize = 5;

/// What one connection's closed loop measured.
#[derive(Default)]
struct LoopStats {
    ack_us: Vec<f64>,
    push_rtt_us: Vec<f64>,
    read_rtt_us: Vec<f64>,
    window_us: Vec<f64>,
    decode_us: Vec<f64>,
    pushes: u64,
    busy: u64,
    /// Time inside timed calls and backoff sleeps.
    covered_s: f64,
    checks: Checks,
}

/// One connection's closed loop: batch `k` of each of its sessions in
/// turn, one `PushRr` in flight; a `Busy` reply is retried after the
/// client's jittered backoff.
fn saturate_loop(
    conn: &mut Conn,
    c: usize,
    shape: &SaturateShape,
    pool: &Pool,
    reference: &Reference,
    seed: u64,
) -> LoopStats {
    let mut s = LoopStats::default();
    let mut backoff = BusyBackoff::new(
        Duration::from_micros(200),
        Duration::from_millis(50),
        seed ^ c as u64,
    );
    for k in 0..pool.batches(shape.batch) {
        for i in (c..shape.streams).step_by(shape.conns) {
            let chunk = pool.chunk(i, shape.batch, k);
            if chunk.is_empty() {
                continue;
            }
            let body = proto::encode_push_rr(i as u64, chunk);
            let first = Instant::now();
            backoff.reset();
            loop {
                let call = Instant::now();
                let reply = conn.call(&body);
                s.push_rtt_us.push(us(call.elapsed()));
                match reply {
                    Ok((Reply::Pushed(pushed), decode)) => {
                        s.decode_us.push(decode);
                        s.pushes += 1;
                        s.checks.check(pushed.accepted as usize == chunk.len(), || {
                            format!("stream {i} batch {k}: {pushed:?}")
                        });
                        break;
                    }
                    Ok((Reply::Error(ServiceError::Busy { .. }), _)) => {
                        s.busy += 1;
                        std::thread::sleep(backoff.next_delay());
                    }
                    other => {
                        s.checks
                            .check(false, || format!("stream {i} batch {k}: {other:?}"));
                        break;
                    }
                }
            }
            s.ack_us.push(us(first.elapsed()));
            let v = Reference::variant(i, false);
            if i.is_multiple_of(shape.probe_every) && reference.completes(v, k) {
                let call = Instant::now();
                let reply = conn.call(&Request::ReadReport { stream: i as u64 }.encode());
                s.read_rtt_us.push(us(call.elapsed()));
                s.window_us.push(us(first.elapsed()));
                let expected = reference.windows_after(v, k);
                s.checks.check(
                    matches!(&reply, Ok((Reply::Report(r), _)) if r.windows == expected),
                    || format!("stream {i} batch {k}: {reply:?}, expected {expected} windows"),
                );
            }
            s.covered_s += first.elapsed().as_secs_f64();
        }
    }
    s
}

/// What one `gateway_saturate` pass measured.
struct SaturatePass {
    samples_per_s: f64,
    cpu_us_per_sample: f64,
    cpu_cores: f64,
    rss_mb: f64,
    energy_uj_per_window: f64,
    ops_per_window: f64,
    stats: LoopStats,
    busy_ratio: f64,
    cover_pct: f64,
    drain_ms: f64,
}

/// Runs `gateway_saturate` passes until `seconds` are spent (at least
/// `min_passes`). `traced` adds the idle hold and the operator reads.
pub fn saturate(
    pool: &Pool,
    reference: &Reference,
    shape: &SaturateShape,
    seconds: f64,
    seed: u64,
    traced: bool,
) -> (Metrics, Checks) {
    let mut checks = Checks::default();
    let mut m = Metrics::default();
    let ungoverned = |_: usize| false;
    let (mut setups, mut open_rtt_us, mut passes) = (Vec::new(), Vec::new(), Vec::new());
    let mut idle = Vec::new();
    let started = Instant::now();
    while passes.len() < shape.min_passes || started.elapsed().as_secs_f64() < seconds {
        let mut opened = open(
            shape.streams,
            shape.queue,
            shape.conns,
            &ungoverned,
            &mut checks,
        );
        setups.push(opened.setup_s);
        open_rtt_us.extend_from_slice(&opened.open_rtt_us);
        if traced && passes.is_empty() {
            idle.push(idle_share(&opened.gateway, Duration::from_millis(1000)));
        }

        let cpu0 = opened.gateway.cpu_s();
        let t0 = Instant::now();
        let mut stats = LoopStats::default();
        std::thread::scope(|scope| {
            let threads: Vec<_> = opened
                .conns
                .iter_mut()
                .enumerate()
                .map(|(c, conn)| {
                    scope.spawn(move || saturate_loop(conn, c, shape, pool, reference, seed))
                })
                .collect();
            for thread in threads {
                let s = thread.join().expect("generator thread");
                stats.ack_us.extend(s.ack_us);
                stats.push_rtt_us.extend(s.push_rtt_us);
                stats.read_rtt_us.extend(s.read_rtt_us);
                stats.window_us.extend(s.window_us);
                stats.decode_us.extend(s.decode_us);
                stats.pushes += s.pushes;
                stats.busy += s.busy;
                stats.covered_s += s.covered_s;
                checks.merge(s.checks);
            }
        });
        let pushed_s = t0.elapsed().as_secs_f64();
        if traced && passes.is_empty() {
            operator_reads(&mut opened.conns[0], &mut m, &mut checks);
        }
        let drain = Instant::now();
        let reports = shutdown(&mut opened.conns[0]);
        let drain_ms = drain.elapsed().as_secs_f64() * 1e3;
        let wall = t0.elapsed().as_secs_f64();
        drop(opened.conns);
        let (cpu_end, hwm_kb) = opened.gateway.finish();
        check_reports(&reports, shape.streams, reference, &ungoverned, &mut checks);

        let samples: u64 = reports.iter().map(|r| r.ingest.accepted).sum();
        let windows: u64 = reports.iter().map(|r| r.windows).sum();
        let energy: f64 = reports.iter().map(|r| r.energy_j).sum();
        let ops: u64 = reports.iter().map(|r| r.ops.total()).sum();
        let cpu = cpu_end - cpu0;
        let busy_ratio = stats.busy as f64 / (stats.busy + stats.pushes) as f64;
        let cover_pct = stats.covered_s / (shape.conns as f64 * pushed_s) * 100.0;
        passes.push(SaturatePass {
            samples_per_s: samples as f64 / wall,
            cpu_us_per_sample: cpu * 1e6 / samples as f64,
            cpu_cores: cpu / wall,
            rss_mb: hwm_kb / 1024.0,
            energy_uj_per_window: energy * 1e6 / windows as f64,
            ops_per_window: ops as f64 / windows as f64,
            stats,
            busy_ratio,
            cover_pct,
            drain_ms,
        });
    }
    while setups.len() < SATURATE_SETUPS {
        let mut opened = open(
            shape.streams,
            shape.queue,
            shape.conns,
            &ungoverned,
            &mut checks,
        );
        setups.push(opened.setup_s);
        shutdown(&mut opened.conns[0]);
        drop(opened.conns);
        opened.gateway.finish();
    }

    let per_pass =
        |f: &dyn Fn(&SaturatePass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let n = passes.len();
    m.put(
        "setup_s",
        median(&setups),
        "s",
        format!(
            "median of {} set-ups: gateway process start + {} connections + {} OpenStream calls",
            setups.len(),
            shape.conns,
            shape.streams
        ),
    );
    m.put("samples_per_s", per_pass(&|p| p.samples_per_s), "1/s", format!(
        "median over {n} passes of drained accepted samples / (first PushRr .. ShutdownAck with the drained reports); {} sessions x {} s, {}-sample batches, {}-sample queues, {} connections each with one PushRr in flight", shape.streams, crate::inputs::RECORD_S, shape.batch, shape.queue, shape.conns));
    m.put("cpu_us_per_sample", per_pass(&|p| p.cpu_us_per_sample), "us", "median over passes of the gateway process's CPU time from first push to exit / drained samples");
    m.put(
        "rss_mb",
        per_pass(&|p| p.rss_mb),
        "MB",
        "median over passes of the gateway process's VmHWM at exit",
    );
    m.put(
        "energy_uj_per_window",
        per_pass(&|p| p.energy_uj_per_window),
        "uJ",
        "charged energy summed over drained reports / windows (deterministic per seed)",
    );
    m.put("ack_p50_us", per_pass(&|p| quantile(&p.stats.ack_us, 0.5)), "us", "median over passes of the per-pass p50 from a batch's first PushRr send to its Pushed reply (Busy backoffs included)");
    m.put(
        "ack_p99_us",
        per_pass(&|p| quantile(&p.stats.ack_us, 0.99)),
        "us",
        "as ack_p50_us, p99",
    );
    m.put("window_p50_us", per_pass(&|p| quantile(&p.stats.window_us, 0.5)), "us", format!(
        "median over passes of the per-pass p50 from the first send of a window-completing batch to the ReadReport reply carrying the window, on every {}th session", shape.probe_every));
    m.put(
        "window_p99_us",
        per_pass(&|p| quantile(&p.stats.window_us, 0.99)),
        "us",
        "as window_p50_us, p99",
    );
    m.put(
        "service.client.open_rtt_us",
        median(&open_rtt_us),
        "us",
        "median OpenStream round trip over all set-ups",
    );
    m.put(
        "service.client.push_rtt_us_p50",
        per_pass(&|p| quantile(&p.stats.push_rtt_us, 0.5)),
        "us",
        "PushRr send to reply, every attempt (Busy included), median over passes",
    );
    m.put(
        "service.client.push_rtt_us_p99",
        per_pass(&|p| quantile(&p.stats.push_rtt_us, 0.99)),
        "us",
        "as push_rtt_us_p50, p99",
    );
    m.put(
        "service.client.read_report_rtt_us_p50",
        per_pass(&|p| quantile(&p.stats.read_rtt_us, 0.5)),
        "us",
        "ReadReport send to reply on the probed sessions, median over passes",
    );
    m.put(
        "service.client.read_report_rtt_us_p99",
        per_pass(&|p| quantile(&p.stats.read_rtt_us, 0.99)),
        "us",
        "as read_report_rtt_us_p50, p99",
    );
    m.put(
        "service.proto.reply_decode_us",
        per_pass(&|p| median(&p.stats.decode_us)),
        "us",
        "median Reply::decode of a Pushed reply in the generator",
    );
    m.put(
        "service.session.busy_ratio",
        per_pass(&|p| p.busy_ratio),
        "ratio",
        "Busy replies / PushRr attempts",
    );
    m.put(
        "service.gateway.cpu_cores",
        per_pass(&|p| p.cpu_cores),
        "cores",
        "gateway CPU seconds / wall seconds from first push to ShutdownAck",
    );
    m.put(
        "service.gateway.drain_ms",
        per_pass(&|p| p.drain_ms),
        "ms",
        "Shutdown round trip (drain of the queued samples + final reports)",
    );
    m.put(
        "lomb.ops_per_window",
        per_pass(&|p| p.ops_per_window),
        "count",
        "operation count summed over drained reports / windows (deterministic)",
    );
    m.put("trace.cover_pct", per_pass(&|p| p.cover_pct), "%", "share of each connection's push-phase wall time inside timed PushRr/ReadReport calls and Busy backoffs");
    if let Some(&share) = idle.first() {
        m.put("service.gateway.idle_cpu_share", share, "cores", "gateway CPU seconds / wall seconds over a 1 s hold with every session open and no traffic");
    }
    (m, checks)
}

// ---- gateway_paced -----------------------------------------------------------

/// `gateway_paced` size.
pub struct PacedShape {
    pub streams: usize,
    pub batch: usize,
    /// Aggregate offered samples per second.
    pub rate: f64,
    pub conns: usize,
    /// Every `governed_every`-th session runs under a budget.
    pub governed_every: usize,
    /// Set-ups per run (the measured one included).
    pub setups: usize,
    /// Idle hold before the schedule in traced runs.
    pub idle_hold: Duration,
}

/// Latency percentiles are the median over this many equal slices of
/// the schedule (by due time), so one disturbed stretch of a run does
/// not move them.
const SLICES: usize = 5;

impl PacedShape {
    /// Seconds between two batches of one session.
    pub fn period(&self) -> f64 {
        self.streams as f64 * self.batch as f64 / self.rate
    }

    /// `(warm, paced)`: batches each session uploads in bulk before the
    /// schedule (just short of its first window, so windows complete
    /// throughout the schedule) and batches it sends on schedule in
    /// `seconds`. A reference for this run covers `warm + paced`
    /// batches.
    pub fn batches(&self, pool: &Pool, seconds: f64) -> (usize, usize) {
        let paced = ((seconds / self.period()) as usize).max(1);
        (pool.first_window_batch(self.batch), paced)
    }
}

/// One request in flight on a paced connection, in send order.
struct Pending {
    stream: usize,
    batch: usize,
    due: Instant,
    sent: Instant,
    read: bool,
}

/// What one paced connection measured; latencies keyed by due time.
#[derive(Default)]
struct PacedStats {
    late_us: Vec<f64>,
    ack_us: Vec<(Instant, f64)>,
    window_us: Vec<(Instant, f64)>,
    push_rtt_us: Vec<f64>,
    read_rtt_us: Vec<f64>,
    decode_us: Vec<f64>,
    busy: u64,
    pushes: u64,
    checks: Checks,
}

/// The median over [`SLICES`] due-time slices of each slice's `q`
/// quantile.
fn sliced(samples: &mut [(Instant, f64)], q: f64) -> f64 {
    samples.sort_by_key(|s| s.0);
    let per = samples.len().div_ceil(SLICES).max(1);
    let slices: Vec<f64> = samples
        .chunks(per)
        .map(|slice| quantile(&slice.iter().map(|s| s.1).collect::<Vec<_>>(), q))
        .collect();
    median(&slices)
}

/// The writer half of a paced connection: sends each session's batches
/// `first..first + count` at their due times (open loop), and a
/// `ReadReport` right behind each batch that completes a window.
#[allow(clippy::too_many_arguments)]
fn paced_writer(
    mut stream: TcpStream,
    c: usize,
    shape: &PacedShape,
    (first, count): (usize, usize),
    t0: Instant,
    pool: &Pool,
    reference: &Reference,
    tx: mpsc::Sender<Pending>,
) -> Vec<f64> {
    let mut out = Vec::new();
    let mut late_us = Vec::new();
    let period = shape.period();
    for k in first..first + count {
        for i in (c..shape.streams).step_by(shape.conns) {
            let offset = period * ((k - first) as f64 + i as f64 / shape.streams as f64);
            let due = t0 + Duration::from_secs_f64(offset);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            late_us.push(us(sent - due));
            let body = proto::encode_push_rr(i as u64, pool.chunk(i, shape.batch, k));
            let push = Pending {
                stream: i,
                batch: k,
                due,
                sent,
                read: false,
            };
            tx.send(push).expect("reader alive");
            send_on(&mut stream, &mut out, &body).expect("send push");
            let v = Reference::variant(i, i.is_multiple_of(shape.governed_every));
            if reference.completes(v, k) {
                let read = Pending {
                    stream: i,
                    batch: k,
                    due,
                    sent: Instant::now(),
                    read: true,
                };
                tx.send(read).expect("reader alive");
                let body = Request::ReadReport { stream: i as u64 }.encode();
                send_on(&mut stream, &mut out, &body).expect("send read");
            }
        }
    }
    late_us
}

/// The reader half: matches replies to requests in send order.
fn paced_reader(
    conn: &mut Conn,
    shape: &PacedShape,
    reference: &Reference,
    rx: mpsc::Receiver<Pending>,
) -> PacedStats {
    let mut s = PacedStats::default();
    for p in rx {
        let reply = conn.recv();
        let now = Instant::now();
        let (i, k) = (p.stream, p.batch);
        if p.read {
            s.read_rtt_us.push(us(now - p.sent));
            s.window_us.push((p.due, us(now - p.due)));
            let v = Reference::variant(i, i.is_multiple_of(shape.governed_every));
            let expected = reference.windows_after(v, k);
            s.checks.check(
                matches!(&reply, Ok((Reply::Report(r), _)) if r.windows == expected),
                || format!("stream {i} batch {k}: {reply:?}, expected {expected} windows"),
            );
            continue;
        }
        s.push_rtt_us.push(us(now - p.sent));
        s.ack_us.push((p.due, us(now - p.due)));
        match reply {
            Ok((Reply::Pushed(pushed), decode)) => {
                s.decode_us.push(decode);
                s.pushes += 1;
                s.checks.check(pushed.accepted as usize == shape.batch, || {
                    format!("stream {i} batch {k}: {pushed:?}")
                });
            }
            // Backpressure, not a failure of the push itself; the
            // refused batch then shows as a report mismatch.
            Ok((Reply::Error(ServiceError::Busy { .. }), _)) => s.busy += 1,
            other => s
                .checks
                .check(false, || format!("stream {i} batch {k}: {other:?}")),
        }
    }
    s
}

/// Uploads each session's first `warm` batches as one `PushRr`, one
/// thread per connection.
fn warm_up(conns: &mut [Conn], shape: &PacedShape, pool: &Pool, warm: usize, checks: &mut Checks) {
    std::thread::scope(|scope| {
        let threads: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                scope.spawn(move || {
                    let mut checks = Checks::default();
                    for i in (c..shape.streams).step_by(shape.conns) {
                        let samples = pool.chunk(i, shape.batch * warm, 0);
                        let pushed = conn.call(&proto::encode_push_rr(i as u64, samples));
                        checks.check(
                            matches!(pushed, Ok((Reply::Pushed(p), _)) if p.accepted as usize == samples.len()),
                            || format!("warm-up {i}: {pushed:?}"),
                        );
                    }
                    checks
                })
            })
            .collect();
        for thread in threads {
            checks.merge(thread.join().expect("warm-up thread"));
        }
    });
}

/// Samples still queued in the gateway's sessions (one `ReadHealth`).
fn backlog(conn: &mut Conn) -> u64 {
    match conn.call(&Request::ReadHealth.encode()) {
        Ok((Reply::Health(h), _)) => h.streams.iter().map(|r| u64::from(r.queue_depth)).sum(),
        other => panic!("ReadHealth failed: {other:?}"),
    }
}

/// Polls until every session queue is empty; false after `limit`.
fn wait_drained(conn: &mut Conn, limit: Duration) -> bool {
    let until = Instant::now() + limit;
    loop {
        if backlog(conn) == 0 {
            return true;
        }
        if Instant::now() > until {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Runs `gateway_paced`: set-up, a bulk warm-up to just short of each
/// session's first window, then one open-loop schedule lasting
/// `seconds`. `reference` must cover `shape.batches(pool, seconds)`
/// batches of `shape.batch` samples, governed variants included.
pub fn paced(
    pool: &Pool,
    reference: &Reference,
    shape: &PacedShape,
    seconds: f64,
    traced: bool,
) -> (Metrics, Checks) {
    let mut checks = Checks::default();
    let mut m = Metrics::default();
    let governed = |i: usize| i.is_multiple_of(shape.governed_every);
    let queue = SessionConfig::default().queue_capacity;
    let (warm, batches) = shape.batches(pool, seconds);
    let mut setups = Vec::new();
    for _ in 1..shape.setups {
        let mut opened = open(shape.streams, queue, shape.conns, &governed, &mut checks);
        setups.push(opened.setup_s);
        shutdown(&mut opened.conns[0]);
        drop(opened.conns);
        opened.gateway.finish();
    }
    let mut opened = open(shape.streams, queue, shape.conns, &governed, &mut checks);
    setups.push(opened.setup_s);
    warm_up(&mut opened.conns, shape, pool, warm, &mut checks);
    let warmed = wait_drained(&mut opened.conns[0], Duration::from_secs(10));
    checks.check(warmed, || "warm-up still queued after 10 s".into());
    if traced {
        let share = idle_share(&opened.gateway, shape.idle_hold);
        m.put("service.gateway.idle_cpu_share", share, "cores", format!(
            "gateway CPU seconds / wall seconds over a {:?} hold with every session open and no traffic", shape.idle_hold));
    }

    let cpu0 = opened.gateway.cpu_s();
    let samples0: u64 = (0..shape.streams)
        .map(|i| pool.chunk(i, shape.batch * warm, 0).len() as u64)
        .sum();
    let t0 = Instant::now() + Duration::from_millis(20);
    let mut s = PacedStats::default();
    std::thread::scope(|scope| {
        let mut threads = Vec::new();
        for (c, conn) in opened.conns.iter_mut().enumerate() {
            let (tx, rx) = mpsc::channel();
            let stream = conn.writer();
            let span = (warm, batches);
            let writer =
                scope.spawn(move || paced_writer(stream, c, shape, span, t0, pool, reference, tx));
            let reader = scope.spawn(move || paced_reader(conn, shape, reference, rx));
            threads.push((writer, reader));
        }
        for (writer, reader) in threads {
            s.late_us.extend(writer.join().expect("writer thread"));
            let r = reader.join().expect("reader thread");
            s.ack_us.extend(r.ack_us);
            s.window_us.extend(r.window_us);
            s.push_rtt_us.extend(r.push_rtt_us);
            s.read_rtt_us.extend(r.read_rtt_us);
            s.decode_us.extend(r.decode_us);
            s.busy += r.busy;
            s.pushes += r.pushes;
            checks.merge(r.checks);
        }
    });

    // The gateway kept up: every queue is empty right after the last
    // batch (the pump's idle sleep is 1 ms).
    let control = &mut opened.conns[0];
    let drained = wait_drained(control, Duration::from_secs(2));
    checks.check(drained, || {
        "samples still queued 2 s after the last batch".into()
    });
    if traced {
        operator_reads(control, &mut m, &mut checks);
    }
    let drain = Instant::now();
    let reports = shutdown(control);
    let drain_ms = drain.elapsed().as_secs_f64() * 1e3;
    let wall = (Instant::now() - t0).as_secs_f64();
    drop(opened.conns);
    let (cpu_end, hwm_kb) = opened.gateway.finish();
    check_reports(&reports, shape.streams, reference, &governed, &mut checks);

    let accepted: u64 = reports.iter().map(|r| r.ingest.accepted).sum();
    let samples = accepted - samples0;
    let windows: u64 = reports.iter().map(|r| r.windows).sum();
    let energy: f64 = reports.iter().map(|r| r.energy_j).sum();
    let ops: u64 = reports.iter().map(|r| r.ops.total()).sum();
    let cpu = cpu_end - cpu0;
    let (acks, reads) = (s.ack_us.len(), s.window_us.len());
    let slices = format!("median over {SLICES} due-time slices of the schedule of each slice's");
    m.put("setup_s", median(&setups), "s", format!(
        "median of {} set-ups: gateway process start + {} connections + {} OpenStream + {} SetBudget calls", setups.len(), shape.conns, shape.streams, shape.streams.div_ceil(shape.governed_every)));
    m.put("samples_per_s", samples as f64 / wall, "1/s", format!(
        "scheduled samples analysed / (first due time .. ShutdownAck); offered {} samples/s in {}-sample batches over {} sessions, {batches} batches each after a {warm}-batch bulk warm-up", shape.rate, shape.batch, shape.streams));
    m.put(
        "cpu_us_per_sample",
        cpu * 1e6 / samples as f64,
        "us",
        "gateway process CPU time from the first due time to exit / scheduled samples",
    );
    m.put(
        "rss_mb",
        hwm_kb / 1024.0,
        "MB",
        "gateway process VmHWM at exit",
    );
    m.put("energy_uj_per_window", energy * 1e6 / windows as f64, "uJ", format!(
        "charged energy summed over drained reports / windows; every {}th session budget-governed (deterministic per seed)", shape.governed_every));
    m.put(
        "ack_p50_us",
        sliced(&mut s.ack_us, 0.5),
        "us",
        format!("{slices} p50 from a batch's due time to its Pushed reply ({acks} pushes)"),
    );
    m.put(
        "ack_p99_us",
        sliced(&mut s.ack_us, 0.99),
        "us",
        format!("{slices} p99 from a batch's due time to its Pushed reply ({acks} pushes)"),
    );
    m.put("window_p50_us", sliced(&mut s.window_us, 0.5), "us", format!("{slices} p50 from the due time of a window's completing batch to the ReadReport reply carrying it ({reads} windows)"));
    m.put(
        "window_p99_us",
        sliced(&mut s.window_us, 0.99),
        "us",
        format!("{slices} p99, as window_p50_us ({reads} windows)"),
    );
    m.put(
        "gen.late_p50_us",
        quantile(&s.late_us, 0.5),
        "us",
        "generator send time minus due time, p50",
    );
    m.put(
        "gen.late_p99_us",
        quantile(&s.late_us, 0.99),
        "us",
        "generator send time minus due time, p99",
    );
    m.put(
        "service.client.push_rtt_us_p50",
        quantile(&s.push_rtt_us, 0.5),
        "us",
        "PushRr send to Pushed reply, p50",
    );
    m.put(
        "service.client.push_rtt_us_p99",
        quantile(&s.push_rtt_us, 0.99),
        "us",
        "PushRr send to Pushed reply, p99",
    );
    m.put(
        "service.client.read_report_rtt_us_p50",
        quantile(&s.read_rtt_us, 0.5),
        "us",
        "ReadReport send to reply (drains the session inline), p50",
    );
    m.put(
        "service.client.read_report_rtt_us_p99",
        quantile(&s.read_rtt_us, 0.99),
        "us",
        "ReadReport send to reply, p99",
    );
    m.put(
        "service.client.open_rtt_us",
        median(&opened.open_rtt_us),
        "us",
        "median OpenStream round trip of the measured set-up",
    );
    m.put(
        "service.proto.reply_decode_us",
        median(&s.decode_us),
        "us",
        "median Reply::decode of a Pushed reply in the generator",
    );
    m.put(
        "service.session.busy_ratio",
        s.busy as f64 / (s.busy + s.pushes).max(1) as f64,
        "ratio",
        "Busy replies / PushRr attempts",
    );
    m.put(
        "service.gateway.cpu_cores",
        cpu / wall,
        "cores",
        "gateway CPU seconds / wall seconds from the first due time to exit",
    );
    m.put(
        "service.gateway.drain_ms",
        drain_ms,
        "ms",
        "Shutdown round trip (drain of the queued samples + final reports)",
    );
    m.put(
        "lomb.ops_per_window",
        ops as f64 / windows as f64,
        "count",
        "operation count summed over drained reports / windows (deterministic)",
    );
    let gateway_p50: f64 = [
        "service.reactor.frame_read_us_p50",
        "service.proto.frame_decode_us_p50",
        "service.proto.report_encode_us_p50",
    ]
    .iter()
    .map(|name| m.get(name))
    .sum();
    m.put("trace.cover_pct", gateway_p50 / quantile(&s.push_rtt_us, 0.5) * 100.0, "%", "share of the PushRr round-trip p50 that the gateway's own frame-read, decode and encode p50s explain; the gap is socket, wake-up and generator time");
    (m, checks)
}
