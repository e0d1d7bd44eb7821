//! The TCP gateway: reactor shards and the analysis pump.
//!
//! Two kinds of threads cooperate around two shared structures:
//!
//! * **reactor shards** ([`crate::reactor`]) own every connection:
//!   nonblocking accept, edge-triggered frame reassembly, request
//!   serving, and vectored reply writes all happen on a fixed number of
//!   event-loop threads, so sessions scale past thread-per-connection
//!   limits. Pushes land in the session table's bounded queues and are
//!   answered immediately (`Pushed` or `Busy` — network reads never
//!   wait on analysis);
//! * the **pump** moves queued samples into the [`FleetScheduler`]
//!   (external-ingest mode, kernels from the shared
//!   [`hrv_core::KernelCache`]) and performs the shutdown drain. It
//!   parks on the session table's ready list — woken when a queue turns
//!   non-empty or the drain begins — and wakes the shards when the final
//!   reports are published, so parked `Shutdown` connections get their
//!   `ShutdownAck` event-driven. Neither side polls.
//!
//! Lock discipline: whenever session queues are *drained into the
//! fleet*, the fleet lock is taken **before** the session lock, and the
//! samples move inside that critical section — so two drainers can never
//! reorder one stream's samples. Queue *appends* (reactor shards) only
//! take the session lock, which is also where the "still admitting?"
//! check lives; once the pump observes `STATE_DRAINING` and an empty
//! ready list under that lock, no sample can exist outside the fleet,
//! making the final per-stream reports complete.

use crate::client::ServiceClient;
use crate::error::ServiceError;
use crate::frame::MAX_FRAME;
use crate::proto::{
    HealthSnapshot, Reply, Request, StageLatency, StageSlow, StreamHealth, PROTOCOL_VERSION,
};
use crate::reactor::{self, ReactorConfig, ServeOutcome, ShardHandle, ShardService};
use crate::session::{SessionConfig, SessionTable, STATE_DONE, STATE_DRAINING, STATE_RUNNING};
use hrv_core::{
    lock_unpoisoned, Counter, HealthConfig, HealthEngine, Histogram, MonotonicClock, PsaConfig,
    PsaError, Slo, SpectralPlan, Telemetry, Tracer,
};
use hrv_stream::{EventRecord, FleetScheduler, StreamReport};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Samples the pump moves from one session per pass before the session
/// goes to the back of the ready list — the fairness cap that keeps one
/// deep queue from starving the others.
const PUMP_BATCH: usize = 512;

/// Hard ceiling on [`SessionConfig::max_sessions`], chosen so the
/// `ShutdownAck` frame carrying every stream's final report stays under
/// [`MAX_FRAME`] (256 bytes budgeted per report: 16384 × 256 B = 4 MiB
/// of an 8 MiB frame). [`Gateway::start`] clamps larger configured
/// values to this.
pub const MAX_SESSIONS: usize = 16384;

/// Gateway construction parameters.
#[derive(Clone, Debug)]
pub struct GatewayConfig {
    /// Bind address; `127.0.0.1:0` (the default) picks a free loopback
    /// port, reported by [`GatewayHandle::local_addr`].
    pub addr: String,
    /// The analysis configuration every stream runs
    /// ([`PsaConfig::conventional`] by default).
    pub psa: PsaConfig,
    /// Worker shards of the backing fleet.
    pub workers: usize,
    /// Session admission limits.
    pub session: SessionConfig,
    /// Reactor shards (event-loop threads) the connection layer runs.
    /// Connections are partitioned across shards with the same
    /// splitmix64 finalizer the fleet uses for streams.
    pub reactors: usize,
    /// Per-connection outbound byte budget: a connection whose queued
    /// replies exceed this stops being read until the kernel accepts
    /// the backlog — a client that stops reading cannot grow gateway
    /// memory without bound.
    pub write_buffer: usize,
    /// Maximum concurrent connections across all reactor shards. A
    /// connection accepted at the cap is closed immediately after a
    /// best-effort typed refusal — connections, like queues, never grow
    /// without bound.
    pub max_connections: usize,
    /// Span tracer threaded through every pipeline stage (request
    /// handling, pump dispatch, fleet window compute). The default is
    /// [`Tracer::disabled`] — one relaxed atomic load per would-be span,
    /// no clock reads. Pass [`Tracer::monotonic`] to record, then pull
    /// spans/Chrome JSON from [`GatewayHandle::tracer`].
    pub tracer: Tracer,
    /// Burn-rate engine tuning for the built-in SLO catalog served by
    /// `ReadHealth`. The default ([`HealthConfig::default`]) has
    /// `period_ns = 0`, so every `ReadHealth` advances exactly one
    /// evaluation tick — the deterministic client-driven mode the
    /// health smoke relies on.
    pub health: HealthConfig,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            addr: "127.0.0.1:0".into(),
            psa: PsaConfig::conventional(),
            workers: 1,
            session: SessionConfig::default(),
            reactors: 2,
            write_buffer: 256 * 1024,
            max_connections: 256,
            tracer: Tracer::disabled(),
            health: HealthConfig::default(),
        }
    }
}

/// State shared by every gateway thread.
struct Shared {
    state: Arc<AtomicU8>,
    sessions: SessionTable,
    fleet: Mutex<FleetScheduler>,
    telemetry: Telemetry,
    session_config: SessionConfig,
    final_reports: Mutex<Option<Vec<StreamReport>>>,
    /// Wake handles of the reactor shards, so drain-state transitions
    /// (a `Shutdown` frame, the pump publishing reports, the gateway
    /// handle dropping) interrupt their `epoll_wait` immediately.
    shards: Vec<ShardHandle>,
    connections_total: Counter,
    frames_total: Counter,
    errors_total: Counter,
    tracer: Tracer,
    /// The burn-rate engine behind `ReadHealth`. Locked only inside
    /// that handler, after the fleet lock is released — it never nests
    /// with the fleet or session locks.
    health: Mutex<HealthEngine>,
    /// Socket-read work per completed frame (bytes-available →
    /// frame-complete; idle waits excluded — they land in
    /// `conn_idle_hist`).
    frame_read_hist: Histogram,
    /// Time a connection sat idle (no bytes in flight) before its next
    /// readable event.
    conn_idle_hist: Histogram,
    /// Wire-to-[`Request`] decode time per frame.
    frame_decode_hist: Histogram,
    /// [`Reply`] encode time per frame (socket write excluded).
    report_encode_hist: Histogram,
    /// Pump time moving one session's non-empty batch into the fleet.
    pump_dispatch_hist: Histogram,
}

impl Shared {
    /// Begins the drain (idempotent) and wakes everything that must see
    /// it: the pump out of its ready-list wait, the shards out of
    /// `epoll_wait`.
    fn begin_drain(&self) {
        let _ = self.state.compare_exchange(
            STATE_RUNNING,
            STATE_DRAINING,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
        self.sessions.notify_state_change();
        self.wake_shards();
    }

    /// Interrupts every shard's `epoll_wait` so a state transition is
    /// observed now, not at the next timeout tick.
    fn wake_shards(&self) {
        for shard in &self.shards {
            shard.wake();
        }
    }
}

/// The gateway entry point; [`Gateway::start`] returns a
/// [`GatewayHandle`] for the running instance.
///
/// # Examples
///
/// ```
/// use hrv_service::{Gateway, GatewayConfig, ServiceClient};
///
/// let handle = Gateway::start(GatewayConfig::default())?;
/// let mut client = ServiceClient::connect(handle.local_addr())?;
/// client.open_stream(1)?;
/// client.push_rr(1, &[(0.8, 0.8), (1.6, 0.8)])?;
/// let reports = client.shutdown()?;
/// assert_eq!(reports.len(), 1);
/// assert_eq!(reports[0].ingest.accepted, 2);
/// handle.wait()?;
/// # Ok::<(), hrv_service::ServiceError>(())
/// ```
pub struct Gateway;

impl Gateway {
    /// Starts a gateway from a plain configuration (the plan is built
    /// internally, like [`FleetScheduler::new`]).
    ///
    /// # Errors
    ///
    /// Returns the [`PsaError`] of an invalid configuration (dynamic
    /// pruning needs [`Gateway::start_with_plan`] and a calibrated
    /// plan), or [`ServiceError::Io`] when binding fails.
    pub fn start(config: GatewayConfig) -> Result<GatewayHandle, ServiceError> {
        let plan = SpectralPlan::new(config.psa.clone()).map_err(ServiceError::from)?;
        if plan.requires_calibration() {
            return Err(PsaError::NeedsCalibration.into());
        }
        Self::start_with_plan(plan, config)
    }

    /// Starts a gateway whose streams run an explicit (possibly
    /// calibrated) [`SpectralPlan`].
    ///
    /// # Errors
    ///
    /// See [`Gateway::start`].
    pub fn start_with_plan(
        plan: SpectralPlan,
        mut config: GatewayConfig,
    ) -> Result<GatewayHandle, ServiceError> {
        // Bound the session table so a ShutdownAck carrying every
        // stream's final report always fits one MAX_FRAME frame
        // (budgeting 256 bytes per wire report, ~4× the actual size).
        // The clamped value is what HelloAck advertises.
        config.session.max_sessions = config.session.max_sessions.min(MAX_SESSIONS);
        let mut fleet =
            FleetScheduler::external(plan, config.workers).map_err(ServiceError::from)?;
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let telemetry = Telemetry::new();
        fleet.set_observability(&telemetry, config.tracer.clone());
        // Constant build-info gauge: a scrape (or `hrv-top`) can tell at
        // a glance which protocol, SIMD dispatch level and crate version
        // the gateway is running.
        telemetry
            .gauge_with(
                "hrv_build_info",
                "constant 1; build identity in the labels",
                &[
                    ("protocol_version", &PROTOCOL_VERSION.to_string()),
                    ("simd_level", hrv_dsp::SimdLevel::active().as_str()),
                    ("version", env!("CARGO_PKG_VERSION")),
                ],
            )
            .set(1.0);
        let health = Mutex::new(default_health_engine(&telemetry, config.health.clone()));
        let state = Arc::new(AtomicU8::new(STATE_RUNNING));
        let shards = reactor::shard_handles(config.reactors)?;
        let shared = Arc::new(Shared {
            state: state.clone(),
            sessions: SessionTable::new(config.session.clone(), telemetry.clone(), state),
            fleet: Mutex::new(fleet),
            telemetry: telemetry.clone(),
            session_config: config.session.clone(),
            final_reports: Mutex::new(None),
            shards,
            health,
            connections_total: telemetry.counter(
                "hrv_service_connections_total",
                "client connections accepted",
            ),
            frames_total: telemetry.counter("hrv_service_frames_total", "request frames decoded"),
            errors_total: telemetry.counter("hrv_service_errors_total", "error replies sent"),
            tracer: config.tracer.clone(),
            frame_read_hist: telemetry.histogram(
                "hrv_service_frame_read_seconds",
                "socket-read work per completed request frame (idle wait excluded)",
            ),
            conn_idle_hist: telemetry.histogram(
                "hrv_service_conn_idle_seconds",
                "connection idle time between frames (socket wait, no bytes in flight)",
            ),
            frame_decode_hist: telemetry.histogram(
                "hrv_service_frame_decode_seconds",
                "wire-to-request decode time per frame",
            ),
            report_encode_hist: telemetry.histogram(
                "hrv_service_report_encode_seconds",
                "reply encode time per frame (socket write excluded)",
            ),
            pump_dispatch_hist: telemetry.histogram(
                "hrv_service_pump_dispatch_seconds",
                "pump time moving one session's non-empty batch into the fleet",
            ),
        });
        let pump = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("hrv-service-pump".into())
                .spawn(move || pump_loop(&shared))?
        };
        let reactor_config = ReactorConfig {
            max_connections: config.max_connections.max(1),
            write_buffer: config.write_buffer,
        };
        let reactors = reactor::spawn_shards(&shared, listener, &shared.shards, &reactor_config)?;
        Ok(GatewayHandle {
            addr,
            shared,
            reactors,
            pump: Some(pump),
        })
    }
}

/// Builds the gateway's SLO catalog: request-path tail latency and the
/// admission `Busy` ratio. Thresholds are deliberately generous — the
/// catalog exists to catch overload (queues refusing work, encode/decode
/// stalls), not to grade absolute wall-clock performance, which CI
/// machines cannot do deterministically.
fn default_health_engine(telemetry: &Telemetry, config: HealthConfig) -> HealthEngine {
    let mut engine = HealthEngine::new(telemetry, Arc::new(MonotonicClock::new()), config);
    engine.add_slo(Slo::p99(
        "frame_decode_p99",
        "hrv_service_frame_decode_seconds",
        0.010,
    ));
    engine.add_slo(Slo::p99(
        "report_encode_p99",
        "hrv_service_report_encode_seconds",
        0.010,
    ));
    engine.add_slo(Slo::ratio(
        "busy_ratio",
        "hrv_service_busy_total",
        "hrv_service_frames_total",
        0.001,
    ));
    engine
}

/// A running gateway. Dropping the handle initiates shutdown and joins
/// the service threads; prefer [`GatewayHandle::shutdown`] (or a client
/// [`Request::Shutdown`] plus [`GatewayHandle::wait`]) to also receive
/// the drained reports.
pub struct GatewayHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    reactors: Vec<JoinHandle<()>>,
    pump: Option<JoinHandle<()>>,
}

impl GatewayHandle {
    /// The bound address clients connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle to the gateway's telemetry registry (shared; render it
    /// any time, or ask the gateway over the wire via `ReadMetrics`).
    pub fn telemetry(&self) -> Telemetry {
        self.shared.telemetry.clone()
    }

    /// A handle to the gateway's span tracer (the one passed in via
    /// [`GatewayConfig::tracer`]; disabled by default). Use it to pull
    /// recorded spans, slow-request captures, or a Chrome trace export
    /// while the gateway runs.
    pub fn tracer(&self) -> Tracer {
        self.shared.tracer.clone()
    }

    /// Connects a loopback client to this gateway.
    ///
    /// # Errors
    ///
    /// Propagates connection/handshake failures.
    pub fn client(&self) -> Result<ServiceClient, ServiceError> {
        ServiceClient::connect(self.addr)
    }

    /// Initiates the drain (idempotent), waits for it to complete and
    /// returns the final id-ordered per-stream reports.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Io`] when a service thread panicked.
    pub fn shutdown(mut self) -> Result<Vec<StreamReport>, ServiceError> {
        self.shared.begin_drain();
        self.join()?;
        let reports = lock_unpoisoned(&self.shared.final_reports).clone();
        reports.ok_or_else(|| ServiceError::Io("gateway drained without reports".into()))
    }

    /// Blocks until the gateway shuts down (a client sent `Shutdown`, or
    /// the process is tearing it down another way) and returns the final
    /// reports.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Io`] when a service thread panicked.
    pub fn wait(mut self) -> Result<Vec<StreamReport>, ServiceError> {
        self.join()?;
        let reports = lock_unpoisoned(&self.shared.final_reports).clone();
        reports.ok_or_else(|| ServiceError::Io("gateway drained without reports".into()))
    }

    fn join(&mut self) -> Result<(), ServiceError> {
        let mut panicked = false;
        if let Some(pump) = self.pump.take() {
            panicked |= pump.join().is_err();
        }
        for reactor in self.reactors.drain(..) {
            panicked |= reactor.join().is_err();
        }
        if panicked {
            return Err(ServiceError::Io("a gateway thread panicked".into()));
        }
        Ok(())
    }
}

impl Drop for GatewayHandle {
    fn drop(&mut self) {
        self.shared.begin_drain();
        let _ = self.join();
    }
}

impl ShardService for Shared {
    /// Serves one decoded frame on a reactor shard: decode → (hello
    /// gate) → handle → encode, each stage spanned and timed exactly as
    /// the thread-per-connection handler did. `Shutdown` parks the
    /// connection instead of blocking an event-loop thread on the drain.
    fn serve(&self, handshaken: &mut bool, body: &[u8]) -> ServeOutcome {
        self.frames_total.inc();
        // The root span covers decode → handle → encode; socket reads
        // and writes are excluded so a slow client cannot masquerade as
        // a slow request.
        let request_span = self.tracer.span("request");
        let decoded = {
            let _decode = self.tracer.span("frame_decode");
            let started = Instant::now();
            let decoded = Request::decode(body);
            self.frame_decode_hist.observe_duration(started.elapsed());
            decoded
        };
        let reply = match decoded {
            // Version negotiation is not optional: Hello must come
            // before anything else on a connection, so a client speaking
            // a future protocol always gets the intended version
            // rejection, never a misdecode.
            Ok(request) if !*handshaken && !matches!(request, Request::Hello { .. }) => {
                Reply::Error(ServiceError::Protocol(
                    "expected Hello before any other request".into(),
                ))
            }
            Ok(Request::Shutdown) => {
                // Begin the drain and park the connection: the reactor
                // delivers the ShutdownAck once the pump publishes the
                // final reports (see the shard drain epilogue).
                self.begin_drain();
                return ServeOutcome::ShutdownPending;
            }
            Ok(request) => {
                let _handle = self.tracer.span("handle");
                let reply = handle_request(self, request);
                if matches!(reply, Reply::HelloAck { .. }) {
                    *handshaken = true;
                }
                reply
            }
            Err(err) => Reply::Error(err),
        };
        if matches!(reply, Reply::Error(_)) {
            self.errors_total.inc();
        }
        let encoded = {
            let _encode = self.tracer.span("report_encode");
            let started = Instant::now();
            let encoded = reply.encode();
            self.report_encode_hist.observe_duration(started.elapsed());
            encoded
        };
        drop(request_span);
        ServeOutcome::Reply(encoded)
    }

    fn shutdown_reply(&self) -> Option<Vec<u8>> {
        let reports = lock_unpoisoned(&self.final_reports).clone()?;
        Some(Reply::ShutdownAck { reports }.encode())
    }

    fn state(&self) -> u8 {
        self.state.load(Ordering::SeqCst)
    }

    fn on_accept(&self) {
        self.connections_total.inc();
    }

    fn refusal(&self, limit: usize) -> Vec<u8> {
        self.errors_total.inc();
        Reply::Error(ServiceError::Protocol(format!(
            "connection limit reached ({limit})"
        )))
        .encode()
    }

    fn on_frame_read(&self, busy: Duration) {
        self.frame_read_hist.observe_duration(busy);
    }

    fn on_conn_idle(&self, idle: Duration) {
        self.conn_idle_hist.observe_duration(idle);
    }

    fn on_frame_error(&self) {
        self.errors_total.inc();
    }
}

/// Serves one decoded request. Every outcome is a typed [`Reply`].
fn handle_request(shared: &Shared, request: Request) -> Reply {
    match request {
        Request::Hello { version } => {
            if version != PROTOCOL_VERSION {
                Reply::Error(ServiceError::Protocol(format!(
                    "protocol version {version} unsupported (gateway speaks {PROTOCOL_VERSION})"
                )))
            } else {
                Reply::HelloAck {
                    version: PROTOCOL_VERSION,
                    max_frame: MAX_FRAME as u32,
                    max_sessions: shared.session_config.max_sessions as u32,
                }
            }
        }
        Request::OpenStream { stream } => match open_stream(shared, stream) {
            Ok(()) => Reply::StreamOpened { stream },
            Err(err) => Reply::Error(err),
        },
        Request::PushRr { stream, samples } => match shared.sessions.push_rr(stream, &samples) {
            Ok(pushed) => Reply::Pushed(pushed),
            Err(err) => Reply::Error(err),
        },
        Request::PushBeats { stream, beats } => match shared.sessions.push_beats(stream, &beats) {
            Ok(pushed) => Reply::Pushed(pushed),
            Err(err) => Reply::Error(err),
        },
        Request::ReadReport { stream } => {
            let mut fleet = lock_unpoisoned(&shared.fleet);
            drain_session(shared, &mut fleet, stream);
            match fleet.stream_report(stream as usize) {
                Ok(report) => Reply::Report(report),
                Err(err) => Reply::Error(err.into()),
            }
        }
        Request::SetQuality { stream, mode } => {
            let mut fleet = lock_unpoisoned(&shared.fleet);
            // Drain first so the switch applies after the samples the
            // client already pushed, not in the middle of them.
            drain_session(shared, &mut fleet, stream);
            match fleet.set_stream_mode(stream as usize, mode) {
                Ok(backend) => Reply::QualitySet { stream, backend },
                Err(err) => Reply::Error(err.into()),
            }
        }
        Request::SetBudget { stream, budget } => {
            // Validate at the gateway, before anything reaches the fleet
            // or a governor: the wire codec decodes arbitrary f64 bit
            // patterns, and a NaN budget would poison every later
            // comparison. The refusal is a typed wire error.
            if let Err(err) = budget.validate() {
                return Reply::Error(ServiceError::InvalidTarget(err.to_string()));
            }
            let mut fleet = lock_unpoisoned(&shared.fleet);
            // Drain first so the governor takes over after the samples
            // the client already pushed, not in the middle of them.
            drain_session(shared, &mut fleet, stream);
            match fleet.set_stream_budget(stream as usize, budget) {
                Ok(backend) => Reply::BudgetSet { stream, backend },
                Err(err) => Reply::Error(err.into()),
            }
        }
        Request::ReadBudget { stream } => {
            let mut fleet = lock_unpoisoned(&shared.fleet);
            drain_session(shared, &mut fleet, stream);
            match fleet.stream_budget(stream as usize) {
                Ok(status) => Reply::Budget(status),
                Err(err) => Reply::Error(err.into()),
            }
        }
        Request::ReadMetrics => {
            {
                let fleet = lock_unpoisoned(&shared.fleet);
                fleet.report().publish(&shared.telemetry);
                fleet.kernel_cache().publish(&shared.telemetry);
            }
            Reply::Metrics(shared.telemetry.render())
        }
        Request::ReadHealth => Reply::Health(read_health(shared)),
        Request::ReadEvents { stream } => match read_events(shared, stream) {
            Ok(events) => Reply::Events { stream, events },
            Err(err) => Reply::Error(err),
        },
        Request::CloseStream { stream } => match close_stream(shared, stream) {
            Ok(report) => Reply::Closed(report),
            Err(err) => Reply::Error(err),
        },
        // Unreachable from the reactor path — `serve` intercepts
        // Shutdown to park the connection — but kept total for any
        // direct caller: initiating the drain twice is harmless and the
        // typed reply says what to expect instead.
        Request::Shutdown => {
            shared.begin_drain();
            Reply::Error(ServiceError::ShuttingDown)
        }
    }
}

/// Pipeline-stage histogram families surfaced as [`StageLatency`] rows
/// in `ReadHealth` snapshots, pipeline order. `conn_idle` leads: it is
/// the socket wait the `frame_read` row explicitly excludes, kept as
/// its own family so the stage table stays honest.
const STAGE_FAMILIES: [&str; 8] = [
    "hrv_service_conn_idle_seconds",
    "hrv_service_frame_read_seconds",
    "hrv_service_frame_decode_seconds",
    "hrv_service_queue_wait_seconds",
    "hrv_service_pump_dispatch_seconds",
    "hrv_stream_window_compute_seconds",
    "hrv_stream_governor_decision_seconds",
    "hrv_service_report_encode_seconds",
];

/// Builds the `ReadHealth` snapshot: one burn-rate evaluation tick plus
/// point-in-time stage, stream and slow-request views.
///
/// Lock order: the fleet lock is taken (for stream reports) and released
/// before the health lock — the two never nest, and the session lock is
/// only taken by `queue_depths` on its own.
fn read_health(shared: &Shared) -> HealthSnapshot {
    let reports = {
        let fleet = lock_unpoisoned(&shared.fleet);
        fleet.stream_reports()
    };
    let depths: BTreeMap<u64, u32> = shared.sessions.queue_depths().into_iter().collect();
    let streams = reports
        .into_iter()
        .map(|report| StreamHealth {
            id: report.id as u64,
            windows: report.windows,
            energy_j: report.energy_j,
            queue_depth: depths.get(&(report.id as u64)).copied().unwrap_or(0),
            backend: report.backend,
        })
        .collect();
    let mut stages = Vec::new();
    for family in STAGE_FAMILIES {
        let mut rows = shared.telemetry.histogram_series(family);
        rows.sort_by(|(a, _), (b, _)| a.cmp(b));
        for (labels, hist) in rows {
            stages.push(StageLatency {
                family: family.to_string(),
                labels,
                count: hist.count(),
                p50_s: hist.quantile(0.5),
                p99_s: hist.quantile(0.99),
            });
        }
    }
    let slow = shared.tracer.slow_requests();
    let slow_requests = slow.len() as u64;
    let mut worst: BTreeMap<&'static str, u64> = BTreeMap::new();
    for capture in &slow {
        let entry = worst.entry(capture.root.stage).or_default();
        *entry = (*entry).max(capture.root.duration_ns);
    }
    let slow_stages = worst
        .into_iter()
        .map(|(stage, worst_ns)| StageSlow {
            stage: stage.to_string(),
            worst_ns,
        })
        .collect();
    let mut health = lock_unpoisoned(&shared.health);
    let alerts = health.evaluate();
    HealthSnapshot {
        ticks: health.ticks(),
        alerts,
        slow_requests,
        slow_stages,
        stages,
        streams,
    }
}

/// Serves `ReadEvents`: drains the stream's queued samples first (so
/// journalled fleet events reflect everything the client already
/// pushed), then concatenates the session journal (admissions, Busy
/// refusals) with the fleet journal (quality switches, budget/battery
/// edges, drain). Each journal keeps its own sequence space.
fn read_events(shared: &Shared, stream: u64) -> Result<Vec<EventRecord>, ServiceError> {
    let fleet_events = {
        let mut fleet = lock_unpoisoned(&shared.fleet);
        drain_session(shared, &mut fleet, stream);
        fleet.stream_events(stream as usize)
    };
    let mut events = shared.sessions.events(stream)?;
    events.extend(fleet_events.map_err(ServiceError::from)?);
    Ok(events)
}

/// Session + fleet admission as one atomic step **under the fleet
/// lock** (fleet → session, the drain lock order). Holding the fleet
/// lock across both registrations upholds the drain invariant — a
/// session visible to any drainer always has its fleet stream — and
/// closes two races: a concurrent push landing between the two
/// registrations being drained into a not-yet-open fleet stream, and
/// the pump's final drain running between them during shutdown.
fn open_stream(shared: &Shared, stream: u64) -> Result<(), ServiceError> {
    let mut fleet = lock_unpoisoned(&shared.fleet);
    if shared.state.load(Ordering::SeqCst) != STATE_RUNNING {
        return Err(ServiceError::ShuttingDown);
    }
    shared.sessions.open(stream)?;
    if let Err(err) = fleet.open_stream(stream as usize) {
        let _ = shared.sessions.close(stream);
        return Err(err.into());
    }
    Ok(())
}

/// Removes the session (atomically, so no later push can race), flushes
/// its leftovers into the fleet, and closes the fleet stream.
fn close_stream(shared: &Shared, stream: u64) -> Result<StreamReport, ServiceError> {
    let mut fleet = lock_unpoisoned(&shared.fleet);
    let leftovers = shared.sessions.close(stream)?;
    fleet
        .push_rr_batch(stream as usize, &leftovers)
        .map_err(ServiceError::from)?;
    fleet
        .close_stream(stream as usize)
        .map_err(ServiceError::from)
}

/// Moves every queued sample of one session into the fleet — the
/// inline drain read-style requests (`ReadReport`, `SetQuality`, …) run
/// on reactor shards for read-your-writes semantics. The caller holds
/// the fleet lock, so concurrent drainers cannot reorder a stream's
/// samples.
fn drain_session(shared: &Shared, fleet: &mut FleetScheduler, stream: u64) {
    let started = Instant::now();
    let mut batch = Vec::new();
    if shared.sessions.take_batch(stream, usize::MAX, &mut batch) > 0 {
        dispatch(shared, fleet, stream, &batch, started);
    }
}

/// Pushes one session's taken, non-empty batch into the fleet. Dispatch
/// is timed here (histogram from `started`, before the take, plus a
/// `pump_dispatch` span) rather than in the pump loop, because inline
/// drains dispatch too: whichever thread moves the samples owns the
/// latency.
fn dispatch(
    shared: &Shared,
    fleet: &mut FleetScheduler,
    stream: u64,
    batch: &[(f64, f64)],
    started: Instant,
) {
    let _span = shared.tracer.span("pump_dispatch");
    // Invariant: a queued sample implies its fleet stream exists — both
    // are registered and removed under the fleet lock the caller holds.
    // The gate count is ignored deliberately (the fleet's ingest
    // re-checks the same rules that admitted the samples); a missing
    // stream, by contrast, would be silent data loss and must fail
    // loudly.
    fleet
        .push_rr_batch(stream as usize, batch)
        // analyze::allow(panic-free-wire): a missing stream here is silent data loss — registration and removal both happen under the fleet lock this caller holds, so this is unreachable without memory corruption
        .expect("queued samples for a stream absent from the fleet");
    shared
        .pump_dispatch_hist
        .observe_duration(started.elapsed());
}

/// Moves STATE to DONE even when the pump unwinds — and wakes the
/// reactor shards so parked Shutdown waiters observe the failure
/// instead of sleeping until their next timeout tick.
struct PumpDoneGuard<'a>(&'a Shared);

impl Drop for PumpDoneGuard<'_> {
    fn drop(&mut self) {
        self.0.state.store(STATE_DONE, Ordering::SeqCst);
        self.0.wake_shards();
    }
}

/// The analysis pump: parks until a session is ready, moves up to
/// [`PUMP_BATCH`] of its samples into the fleet, and repeats; once the
/// drain has begun and nothing is left ready, performs the shutdown
/// drain.
fn pump_loop(shared: &Arc<Shared>) {
    let done_guard = PumpDoneGuard(shared);
    let mut batch = Vec::with_capacity(PUMP_BATCH);
    while shared.sessions.wait_ready() {
        let mut fleet = lock_unpoisoned(&shared.fleet);
        let started = Instant::now();
        batch.clear();
        // An inline drain may have emptied the list since the wait.
        if let Some(id) = shared.sessions.take_ready(PUMP_BATCH, &mut batch) {
            dispatch(shared, &mut fleet, id, &batch, started);
        }
    }
    // The wait saw `STATE_DRAINING` and an empty ready list under the
    // session lock, so every admission since has been refused and every
    // queue is empty; inline drainers hold the fleet lock taken below
    // until their samples are in. The fleet now holds all samples that
    // will ever arrive. Flush trailing windows, publish final telemetry
    // (before `close_all` empties the fleet), then take reports.
    let mut fleet = lock_unpoisoned(&shared.fleet);
    fleet.finish();
    fleet.report().publish(&shared.telemetry);
    fleet.kernel_cache().publish(&shared.telemetry);
    let reports = fleet.close_all();
    shared.sessions.close_all();
    *lock_unpoisoned(&shared.final_reports) = Some(reports);
    // The guard flips STATE to DONE and wakes the shards — here on the
    // normal path, and equally during unwind if anything above panicked.
    drop(done_guard);
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrv_core::AlertState;
    use hrv_stream::StreamEvent;

    /// A loopback gateway with a queue so small that any oversized push
    /// is refused `Busy` regardless of pump timing — the deterministic
    /// overload used by the alerting tests.
    fn tiny_queue_gateway() -> GatewayHandle {
        Gateway::start(GatewayConfig {
            session: SessionConfig {
                max_sessions: 8,
                queue_capacity: 4,
            },
            ..GatewayConfig::default()
        })
        .expect("gateway")
    }

    #[test]
    fn sustained_busy_burn_pages_at_a_deterministic_tick() {
        let handle = tiny_queue_gateway();
        let mut client = handle.client().expect("client");
        client.open_stream(1).expect("open");
        // Each round: one guaranteed-Busy push (batch > queue capacity,
        // so admission refuses it no matter how fast the pump drains)
        // followed by one health tick. The bad/total frame ratio per
        // round is then exactly 1/2 — far past the page threshold —
        // and the dwell machine pages on the third tick, every run.
        let oversized: Vec<(f64, f64)> = (1..=8).map(|i| (0.8 * i as f64, 0.8)).collect();
        let mut states = Vec::new();
        for _ in 0..4 {
            let refused = client.push_rr(1, &oversized);
            assert!(matches!(refused, Err(ServiceError::Busy { .. })));
            let health = client.read_health().expect("health");
            let busy = health
                .alerts
                .iter()
                .find(|alert| alert.slo == "busy_ratio")
                .expect("busy_ratio in the catalog");
            states.push((health.ticks, busy.state, busy.since_tick));
        }
        assert_eq!(
            states,
            vec![
                (1, AlertState::Ok, 0),
                (2, AlertState::Ok, 0),
                (3, AlertState::Page, 3),
                (4, AlertState::Page, 3),
            ],
            "page must land on tick 3 (dwell 2) deterministically"
        );
        drop(client);
        handle.shutdown().expect("shutdown");
    }

    #[test]
    fn health_snapshot_carries_streams_stages_and_catalog() {
        let handle = tiny_queue_gateway();
        let mut client = handle.client().expect("client");
        client.open_stream(3).expect("open");
        client.push_rr(3, &[(0.8, 0.8), (1.6, 0.8)]).expect("push");
        let health = client.read_health().expect("health");
        let names: Vec<&str> = health.alerts.iter().map(|a| a.slo.as_str()).collect();
        assert_eq!(
            names,
            ["frame_decode_p99", "report_encode_p99", "busy_ratio"],
            "catalog order is stable"
        );
        assert_eq!(health.streams.len(), 1);
        assert_eq!(health.streams[0].id, 3);
        assert_eq!(health.streams[0].backend, "split-radix");
        let families: Vec<&str> = health.stages.iter().map(|s| s.family.as_str()).collect();
        assert!(families.contains(&"hrv_service_frame_decode_seconds"));
        // The tracer is disabled by default — no slow requests retained.
        assert_eq!(health.slow_requests, 0);
        assert!(health.slow_stages.is_empty());
        drop(client);
        handle.shutdown().expect("shutdown");
    }

    #[test]
    fn event_journals_travel_over_the_wire() {
        let handle = tiny_queue_gateway();
        let mut client = handle.client().expect("client");
        client.open_stream(1).expect("open");
        client.push_rr(1, &[(0.8, 0.8), (1.6, 0.8)]).expect("push");
        let oversized: Vec<(f64, f64)> = (1..=8).map(|i| (0.8 * i as f64, 0.8)).collect();
        assert!(matches!(
            client.push_rr(1, &oversized),
            Err(ServiceError::Busy { .. })
        ));
        client
            .set_quality(1, hrv_core::ApproximationMode::BandDrop)
            .expect("set quality");
        let events = client.read_events(1).expect("events");
        let kinds: Vec<&str> = events.iter().map(|e| e.event.kind()).collect();
        // Session journal first (admission, refusal), then fleet
        // journal (the operator quality switch).
        assert_eq!(kinds, ["admission", "busy_refusal", "quality_switch"]);
        assert!(matches!(
            events[0].event,
            StreamEvent::Admission {
                accepted: 2,
                gated: 0
            }
        ));
        assert!(matches!(
            events[1].event,
            StreamEvent::BusyRefusal { capacity: 4, .. }
        ));
        assert!(matches!(
            client.read_events(99),
            Err(ServiceError::UnknownStream(99))
        ));
        drop(client);
        handle.shutdown().expect("shutdown");
    }
}
