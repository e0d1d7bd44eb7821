//! Session admission, bounded queues and backpressure.
//!
//! A *session* is the gateway-side state of one open stream: a bounded
//! queue of clean `(beat time, RR)` samples awaiting the analysis pump,
//! plus the admission gate that keeps implausible data out of the queue
//! in the first place. The gate reuses `hrv-delineate`'s plausibility
//! rules ([`hrv_delineate::MIN_RR`]/[`hrv_delineate::MAX_RR`] interval
//! bounds, monotone beat time; raw
//! beats go through the same [`StreamingRrFilter`] the batch delineator
//! uses), so a byte that costs queue space has already passed the same
//! physiology checks the analysis layer would apply.
//!
//! Backpressure is strict: a batch that does not fit the remaining queue
//! capacity is refused whole with [`ServiceError::Busy`] — the queue
//! never grows past its bound, whatever a client sends.
//!
//! Readiness is pushed, not polled: the table keeps a *ready list* of
//! the sessions whose queue is non-empty, under the same lock as the
//! queues, and the analysis pump parks on a condition variable until the
//! list has work or the gateway stops admitting.

use crate::error::ServiceError;
use crate::proto::Pushed;
use hrv_core::{lock_unpoisoned, Counter, Gauge, Histogram, Telemetry};
use hrv_delineate::{BeatOutcome, StreamingRrFilter};
use hrv_stream::{EventJournal, EventRecord, StreamEvent, EVENT_JOURNAL_CAPACITY};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

/// Gateway lifecycle: accepting work.
pub(crate) const STATE_RUNNING: u8 = 0;
/// Gateway lifecycle: draining queues; no new work admitted.
pub(crate) const STATE_DRAINING: u8 = 1;
/// Gateway lifecycle: drained; final reports published.
pub(crate) const STATE_DONE: u8 = 2;

/// Admission limits of the session table.
#[derive(Clone, Debug)]
pub struct SessionConfig {
    /// Maximum concurrently open sessions.
    pub max_sessions: usize,
    /// Bounded per-session queue capacity in samples; a push that does
    /// not fit draws [`ServiceError::Busy`].
    pub queue_capacity: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            max_sessions: 64,
            queue_capacity: 4096,
        }
    }
}

/// One open stream's gateway-side state.
#[derive(Debug)]
struct Session {
    queue: VecDeque<(f64, f64)>,
    /// Converts raw beat times to gated RR intervals (`PushBeats` path).
    beats: StreamingRrFilter,
    /// Last admitted beat time (`PushRr` path monotonicity gate).
    last_time: Option<f64>,
    depth_gauge: Gauge,
    /// When the queue's current head sample started waiting — armed on
    /// the empty→non-empty transition, observed into the queue-wait
    /// histogram each time the pump drains, re-armed while samples
    /// remain. `None` while the queue is empty.
    queued_since: Option<Instant>,
    /// Gateway-side forensics ring: admission batches and Busy
    /// refusals (the fleet keeps the analysis-side journal).
    journal: EventJournal,
}

/// The open sessions and the ready list, guarded together so a queue's
/// emptiness and its listing can never disagree: an id is in `ready`
/// exactly while its queue is non-empty, once, in the order the queues
/// became non-empty.
#[derive(Debug, Default)]
struct Sessions {
    open: BTreeMap<u64, Session>,
    ready: VecDeque<u64>,
}

/// The admission-controlled session store; see the module docs.
///
/// All methods take `&self`; the table is internally locked and is the
/// single place where "is the gateway still admitting work?" is decided
/// (the check happens under the same lock as the queue append, so the
/// drain pass that follows `STATE_DRAINING` cannot miss samples).
#[derive(Debug)]
pub(crate) struct SessionTable {
    config: SessionConfig,
    state: Arc<AtomicU8>,
    telemetry: Telemetry,
    inner: Mutex<Sessions>,
    /// Signalled when the ready list gains an id and on lifecycle
    /// changes; the pump waits on it in [`SessionTable::wait_ready`].
    ready_cv: Condvar,
    open_gauge: Gauge,
    accepted_total: Counter,
    gated_total: Counter,
    busy_total: Counter,
    /// `hrv_service_queue_wait_seconds` — head-of-line wait between a
    /// sample entering an empty queue (or surviving a previous drain)
    /// and the pump picking it up.
    queue_wait_hist: Histogram,
}

impl SessionTable {
    pub(crate) fn new(config: SessionConfig, telemetry: Telemetry, state: Arc<AtomicU8>) -> Self {
        let open_gauge = telemetry.gauge("hrv_service_sessions_open", "currently open sessions");
        let accepted_total = telemetry.counter(
            "hrv_service_samples_admitted_total",
            "samples admitted into session queues",
        );
        let gated_total = telemetry.counter(
            "hrv_service_samples_gated_total",
            "samples rejected by the admission plausibility gate",
        );
        let busy_total = telemetry.counter(
            "hrv_service_busy_total",
            "pushes refused with Busy (queue backpressure)",
        );
        let queue_wait_hist = telemetry.histogram(
            "hrv_service_queue_wait_seconds",
            "head-of-line wait of queued samples until the analysis pump drains them",
        );
        SessionTable {
            config,
            state,
            telemetry,
            inner: Mutex::new(Sessions::default()),
            ready_cv: Condvar::new(),
            open_gauge,
            accepted_total,
            gated_total,
            busy_total,
            queue_wait_hist,
        }
    }

    fn admitting(&self) -> Result<(), ServiceError> {
        if self.state.load(Ordering::SeqCst) == STATE_RUNNING {
            Ok(())
        } else {
            Err(ServiceError::ShuttingDown)
        }
    }

    /// Admits a new session.
    pub(crate) fn open(&self, id: u64) -> Result<(), ServiceError> {
        let mut guard = lock_unpoisoned(&self.inner);
        self.admitting()?;
        let sessions = &mut guard.open;
        if sessions.contains_key(&id) {
            return Err(ServiceError::DuplicateStream(id));
        }
        if sessions.len() >= self.config.max_sessions {
            return Err(ServiceError::SessionLimit {
                max: self.config.max_sessions as u32,
            });
        }
        let depth_gauge = self.depth_gauge(id);
        depth_gauge.set(0.0);
        sessions.insert(
            id,
            Session {
                queue: VecDeque::with_capacity(self.config.queue_capacity.min(1024)),
                beats: StreamingRrFilter::new(),
                last_time: None,
                depth_gauge,
                queued_since: None,
                journal: EventJournal::new(EVENT_JOURNAL_CAPACITY),
            },
        );
        self.open_gauge.set(sessions.len() as f64);
        Ok(())
    }

    fn depth_gauge(&self, id: u64) -> Gauge {
        self.telemetry.gauge_with(
            "hrv_session_queue_depth",
            "buffered samples awaiting the analysis pump",
            &[("stream", &id.to_string())],
        )
    }

    /// `(beat time, RR)` batch admission: plausibility-gate every sample,
    /// refuse the batch with `Busy` when the admissible part does not fit
    /// the queue, else append it.
    pub(crate) fn push_rr(&self, id: u64, samples: &[(f64, f64)]) -> Result<Pushed, ServiceError> {
        let mut guard = lock_unpoisoned(&self.inner);
        self.admitting()?;
        let Sessions { open, ready } = &mut *guard;
        let session = open.get_mut(&id).ok_or(ServiceError::UnknownStream(id))?;
        // Pass 1 (pure): how many samples would the gate admit?
        let mut admissible = 0usize;
        let mut last = session.last_time;
        for &(t, rr) in samples {
            if plausible_rr(t, rr, last) {
                admissible += 1;
                last = Some(t);
            }
        }
        self.check_capacity(id, session, admissible)?;
        // Pass 2: apply — same deterministic gate, now mutating.
        let mut accepted = 0u32;
        for &(t, rr) in samples {
            if plausible_rr(t, rr, session.last_time) {
                session.queue.push_back((t, rr));
                session.last_time = Some(t);
                accepted += 1;
            }
        }
        debug_assert_eq!(accepted as usize, admissible);
        Ok(self.pushed(
            ready,
            id,
            session,
            accepted,
            samples.len() as u32 - accepted,
        ))
    }

    /// Raw beat-time batch admission (delineate's [`StreamingRrFilter`]).
    /// Capacity is checked against the worst case (every beat completing
    /// an interval) before the stateful filter runs, so a `Busy` refusal
    /// leaves the filter chain untouched and the retried batch replays
    /// identically.
    pub(crate) fn push_beats(&self, id: u64, beats: &[f64]) -> Result<Pushed, ServiceError> {
        let mut guard = lock_unpoisoned(&self.inner);
        self.admitting()?;
        let Sessions { open, ready } = &mut *guard;
        let session = open.get_mut(&id).ok_or(ServiceError::UnknownStream(id))?;
        self.check_capacity(id, session, beats.len())?;
        let mut accepted = 0u32;
        for &t in beats {
            if let BeatOutcome::Accepted { time, rr } = session.beats.push(t) {
                // The beat filter knows nothing of samples admitted via
                // `PushRr` — re-apply the session-wide monotonicity gate
                // so mixing the two paths cannot enqueue out-of-order
                // samples (the queue invariant the fleet relies on).
                if session.last_time.is_some_and(|l| time <= l) {
                    continue;
                }
                session.queue.push_back((time, rr));
                session.last_time = Some(time);
                accepted += 1;
            }
        }
        Ok(self.pushed(ready, id, session, accepted, beats.len() as u32 - accepted))
    }

    fn check_capacity(
        &self,
        id: u64,
        session: &mut Session,
        incoming: usize,
    ) -> Result<(), ServiceError> {
        if session.queue.len() + incoming > self.config.queue_capacity {
            self.busy_total.inc();
            session.journal.record(
                0,
                StreamEvent::BusyRefusal {
                    queue_depth: session.queue.len() as u32,
                    capacity: self.config.queue_capacity as u32,
                },
            );
            return Err(ServiceError::Busy {
                stream: id,
                capacity: self.config.queue_capacity as u32,
            });
        }
        Ok(())
    }

    /// Books an admitted batch. On the queue's empty→non-empty
    /// transition it arms the head-of-line timer, lists the session ready
    /// and wakes the pump.
    fn pushed(
        &self,
        ready: &mut VecDeque<u64>,
        id: u64,
        session: &mut Session,
        accepted: u32,
        gated: u32,
    ) -> Pushed {
        if accepted > 0 && session.queued_since.is_none() {
            session.queued_since = Some(Instant::now());
            ready.push_back(id);
            self.ready_cv.notify_one();
        }
        self.accepted_total.add(u64::from(accepted));
        self.gated_total.add(u64::from(gated));
        session.depth_gauge.set(session.queue.len() as f64);
        session
            .journal
            .record(0, StreamEvent::Admission { accepted, gated });
        Pushed {
            stream: id,
            accepted,
            gated,
            queue_depth: session.queue.len() as u32,
        }
    }

    /// The gateway-side event journal of session `id`, oldest first.
    pub(crate) fn events(&self, id: u64) -> Result<Vec<EventRecord>, ServiceError> {
        let sessions = lock_unpoisoned(&self.inner);
        let session = sessions
            .open
            .get(&id)
            .ok_or(ServiceError::UnknownStream(id))?;
        Ok(session.journal.events())
    }

    /// `(id, queue depth)` of every open session, id-ascending.
    pub(crate) fn queue_depths(&self) -> Vec<(u64, u32)> {
        lock_unpoisoned(&self.inner)
            .open
            .iter()
            .map(|(&id, session)| (id, session.queue.len() as u32))
            .collect()
    }

    /// Moves up to `max` queued samples of session `id` into `out`.
    /// Returns the number moved (0 for an unknown/empty session).
    pub(crate) fn take_batch(&self, id: u64, max: usize, out: &mut Vec<(f64, f64)>) -> usize {
        self.take(&mut lock_unpoisoned(&self.inner), id, max, out)
    }

    /// Moves up to `max` queued samples of the longest-listed ready
    /// session into `out` and returns its id (`None` when nothing is
    /// ready). A session with samples left behind goes to the back of the
    /// list, so one deep queue cannot starve the others.
    pub(crate) fn take_ready(&self, max: usize, out: &mut Vec<(f64, f64)>) -> Option<u64> {
        let mut sessions = lock_unpoisoned(&self.inner);
        let id = *sessions.ready.front()?;
        self.take(&mut sessions, id, max, out);
        Some(id)
    }

    fn take(
        &self,
        sessions: &mut Sessions,
        id: u64,
        max: usize,
        out: &mut Vec<(f64, f64)>,
    ) -> usize {
        let Sessions { open, ready } = sessions;
        let Some(session) = open.get_mut(&id) else {
            return 0;
        };
        let n = session.queue.len().min(max);
        if n == 0 {
            return 0;
        }
        out.extend(session.queue.drain(..n));
        session.depth_gauge.set(session.queue.len() as f64);
        if let Some(since) = session.queued_since.take() {
            self.queue_wait_hist.observe_duration(since.elapsed());
        }
        delist(ready, id);
        if !session.queue.is_empty() {
            // Samples survived the drain — the new head starts its wait
            // now (per-dispatch head-of-line wait, not age).
            session.queued_since = Some(Instant::now());
            ready.push_back(id);
        }
        n
    }

    /// Blocks until a session is ready (`true`), or until the gateway
    /// stops admitting while nothing is ready (`false`: every admitted
    /// sample has been taken, and no more can arrive).
    pub(crate) fn wait_ready(&self) -> bool {
        let mut sessions = lock_unpoisoned(&self.inner);
        loop {
            if !sessions.ready.is_empty() {
                return true;
            }
            if self.admitting().is_err() {
                return false;
            }
            sessions = self
                .ready_cv
                .wait(sessions)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Wakes [`SessionTable::wait_ready`] after a lifecycle change. The
    /// lock is taken before notifying, so a waiter is either before its
    /// state check (and sees the change) or already waiting (and is
    /// woken) — the change cannot slip between the two.
    pub(crate) fn notify_state_change(&self) {
        let _sessions = lock_unpoisoned(&self.inner);
        self.ready_cv.notify_all();
    }

    /// Removes every session (shutdown epilogue: queues are already
    /// drained) and retires their telemetry series.
    pub(crate) fn close_all(&self) {
        let mut sessions = lock_unpoisoned(&self.inner);
        for id in sessions.open.keys() {
            self.telemetry
                .remove_series("hrv_session_queue_depth", &[("stream", &id.to_string())]);
        }
        sessions.open.clear();
        sessions.ready.clear();
        self.open_gauge.set(0.0);
    }

    /// Removes session `id`, returning whatever was still queued (the
    /// caller flushes it into the fleet before closing the stream there).
    pub(crate) fn close(&self, id: u64) -> Result<Vec<(f64, f64)>, ServiceError> {
        let mut sessions = lock_unpoisoned(&self.inner);
        let session = sessions
            .open
            .remove(&id)
            .ok_or(ServiceError::UnknownStream(id))?;
        if !session.queue.is_empty() {
            delist(&mut sessions.ready, id);
        }
        self.open_gauge.set(sessions.open.len() as f64);
        self.telemetry
            .remove_series("hrv_session_queue_depth", &[("stream", &id.to_string())]);
        Ok(session.queue.into_iter().collect())
    }
}

/// Takes `id` off the ready list. The list holds only sessions with
/// queued samples, so the scan is short; the pump's own takes find the id
/// at the front.
fn delist(ready: &mut VecDeque<u64>, id: u64) {
    if let Some(pos) = ready.iter().position(|&listed| listed == id) {
        ready.remove(pos);
    }
}

/// The admission gate: [`hrv_stream::rr_sample_plausible`], the *same
/// predicate* the fleet's [`hrv_stream::RrIngest`] applies downstream —
/// shared, not copied, so the layers cannot drift and a sample that
/// costs queue space is always a sample the fleet will accept. The
/// finite check matters on a network boundary: the wire codec decodes
/// arbitrary f64 bit patterns, and an admitted NaN beat time would
/// poison every later ordering comparison.
fn plausible_rr(t: f64, rr: f64, last: Option<f64>) -> bool {
    hrv_stream::rr_sample_plausible(t, rr, last)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(max_sessions: usize, queue_capacity: usize) -> SessionTable {
        SessionTable::new(
            SessionConfig {
                max_sessions,
                queue_capacity,
            },
            Telemetry::new(),
            Arc::new(AtomicU8::new(STATE_RUNNING)),
        )
    }

    #[test]
    fn admission_limits_are_enforced() {
        let table = table(2, 16);
        table.open(1).expect("first");
        table.open(2).expect("second");
        assert_eq!(table.open(1).unwrap_err(), ServiceError::DuplicateStream(1));
        assert_eq!(
            table.open(3).unwrap_err(),
            ServiceError::SessionLimit { max: 2 }
        );
        assert_eq!(table.queue_depths().len(), 2);
        // Closing frees a slot.
        table.close(1).expect("close");
        table.open(3).expect("freed slot");
        assert_eq!(table.queue_depths(), vec![(2, 0), (3, 0)]);
    }

    #[test]
    fn plausibility_gate_reuses_delineate_rules() {
        let table = table(4, 16);
        table.open(1).expect("open");
        let outcome = table
            .push_rr(
                1,
                &[
                    (1.0, 0.8), // fine
                    (0.5, 0.8), // time going backwards
                    (2.0, 0.1), // below MIN_RR (double detection)
                    (3.0, 3.0), // above MAX_RR (dropout)
                    (3.5, 0.9), // fine
                ],
            )
            .expect("admitted");
        assert_eq!((outcome.accepted, outcome.gated), (2, 3));
        assert_eq!(outcome.queue_depth, 2);
    }

    #[test]
    fn non_finite_wire_values_are_gated_and_do_not_poison_the_session() {
        let table = table(4, 16);
        table.open(1).expect("open");
        let outcome = table
            .push_rr(
                1,
                &[
                    (f64::NAN, 0.8),      // NaN beat time
                    (f64::INFINITY, 0.8), // infinite beat time
                    (1.0, f64::NAN),      // NaN interval
                    (2.0, f64::INFINITY), // infinite interval
                ],
            )
            .expect("admitted");
        assert_eq!((outcome.accepted, outcome.gated), (0, 4));
        // The ordering gate still works afterwards — nothing was poisoned.
        let outcome = table
            .push_rr(1, &[(1.0, 0.8), (0.5, 0.8), (2.0, 0.8)])
            .expect("admitted");
        assert_eq!((outcome.accepted, outcome.gated), (2, 1));
    }

    #[test]
    fn beats_are_converted_and_gated_like_the_batch_delineator() {
        let table = table(4, 16);
        table.open(1).expect("open");
        let outcome = table
            .push_beats(1, &[0.0, 0.8, 0.82, 5.0, 5.8])
            .expect("admitted");
        // Anchor, accepted, double detection, dropout, accepted-after-restart.
        assert_eq!((outcome.accepted, outcome.gated), (2, 3));
        let mut drained = Vec::new();
        table.take_batch(1, 16, &mut drained);
        assert_eq!(drained.len(), 2);
        assert!((drained[0].1 - 0.8).abs() < 1e-12);
    }

    #[test]
    fn mixing_rr_and_beat_pushes_keeps_the_queue_monotone() {
        let table = table(4, 32);
        table.open(1).expect("open");
        table
            .push_rr(1, &[(99.2, 0.8), (100.0, 0.8)])
            .expect("rr path");
        // A fresh beat chain starting in the past: its intervals are
        // plausible in isolation but precede the RR-path samples.
        let outcome = table.push_beats(1, &[0.0, 0.8, 1.6]).expect("beats");
        assert_eq!((outcome.accepted, outcome.gated), (0, 3));
        // A chain continuing past the newest sample is admitted.
        let outcome = table.push_beats(1, &[100.5, 101.3]).expect("beats");
        assert_eq!(outcome.accepted, 1); // 100.5 restarts the chain (dropout)
        let mut drained = Vec::new();
        table.take_batch(1, 32, &mut drained);
        assert!(drained.windows(2).all(|w| w[0].0 < w[1].0), "{drained:?}");
    }

    #[test]
    fn saturated_queue_refuses_the_whole_batch() {
        let table = table(4, 4);
        table.open(7).expect("open");
        let batch: Vec<(f64, f64)> = (0..6).map(|i| (i as f64 + 1.0, 0.8)).collect();
        assert_eq!(
            table.push_rr(7, &batch).unwrap_err(),
            ServiceError::Busy {
                stream: 7,
                capacity: 4
            }
        );
        // Nothing was enqueued — the bound is strict, and the session
        // state (monotonicity gate) is untouched, so a smaller batch of
        // the same samples still succeeds.
        let outcome = table.push_rr(7, &batch[..4]).expect("fits");
        assert_eq!(outcome.accepted, 4);
        assert_eq!(outcome.queue_depth, 4);
        // Full now: even one more sample is refused.
        assert!(matches!(
            table.push_rr(7, &batch[4..5]),
            Err(ServiceError::Busy { .. })
        ));
        // Draining makes room again.
        let mut out = Vec::new();
        assert_eq!(table.take_batch(7, 2, &mut out), 2);
        table.push_rr(7, &batch[4..5]).expect("room again");
    }

    #[test]
    fn busy_only_counts_admissible_samples_against_capacity() {
        let table = table(4, 4);
        table.open(1).expect("open");
        // 8 samples, but only 4 pass the gate (others are implausible) —
        // the batch fits.
        let batch: Vec<(f64, f64)> = (0..8)
            .map(|i| {
                if i % 2 == 0 {
                    (i as f64 + 1.0, 0.8)
                } else {
                    (i as f64 + 1.5, 9.0) // dropout, gated
                }
            })
            .collect();
        let outcome = table.push_rr(1, &batch).expect("fits after gating");
        assert_eq!((outcome.accepted, outcome.gated), (4, 4));
    }

    #[test]
    fn draining_state_stops_admission_inside_the_lock() {
        let state = Arc::new(AtomicU8::new(STATE_RUNNING));
        let table = SessionTable::new(SessionConfig::default(), Telemetry::new(), state.clone());
        table.open(1).expect("open while running");
        state.store(STATE_DRAINING, Ordering::SeqCst);
        assert_eq!(table.open(2).unwrap_err(), ServiceError::ShuttingDown);
        assert_eq!(
            table.push_rr(1, &[(1.0, 0.8)]).unwrap_err(),
            ServiceError::ShuttingDown
        );
        // Draining still works.
        let mut out = Vec::new();
        assert_eq!(table.take_batch(1, 8, &mut out), 0);
        assert_eq!(table.close(1).expect("close"), Vec::new());
    }

    fn ready_ids(table: &SessionTable) -> Vec<u64> {
        lock_unpoisoned(&table.inner)
            .ready
            .iter()
            .copied()
            .collect()
    }

    #[test]
    fn ready_list_tracks_exactly_the_non_empty_queues() {
        let table = table(8, 64);
        for id in 1..=3 {
            table.open(id).expect("open");
        }
        assert!(ready_ids(&table).is_empty(), "opening queues nothing");
        // Listed once per empty→non-empty transition, in arrival order.
        table.push_rr(2, &[(1.0, 0.8)]).expect("push");
        table.push_rr(1, &[(1.0, 0.8), (2.0, 0.8)]).expect("push");
        table.push_rr(2, &[(2.0, 0.8)]).expect("push");
        table
            .push_beats(3, &[0.0])
            .expect("anchor beat queues nothing");
        assert_eq!(ready_ids(&table), vec![2, 1]);
        // A partial take re-lists the session at the back.
        let mut out = Vec::new();
        assert_eq!(table.take_ready(1, &mut out), Some(2));
        assert_eq!(out, vec![(1.0, 0.8)]);
        assert_eq!(ready_ids(&table), vec![1, 2]);
        // A take that empties the queue delists it.
        out.clear();
        assert_eq!(table.take_ready(8, &mut out), Some(1));
        assert_eq!(out.len(), 2);
        assert_eq!(ready_ids(&table), vec![2]);
        // Inline drains and closes leave no work behind.
        table.push_rr(1, &[(3.0, 0.8)]).expect("push");
        table.push_rr(3, &[(1.0, 0.8)]).expect("push");
        assert_eq!(ready_ids(&table), vec![2, 1, 3]);
        assert_eq!(table.take_batch(2, usize::MAX, &mut out), 1);
        assert_eq!(table.close(3).expect("close"), vec![(1.0, 0.8)]);
        assert_eq!(ready_ids(&table), vec![1]);
        assert_eq!(table.take_batch(1, usize::MAX, &mut out), 1);
        assert!(ready_ids(&table).is_empty());
        assert_eq!(table.take_ready(8, &mut out), None);
        assert_eq!(table.take_batch(1, usize::MAX, &mut out), 0);
    }

    #[test]
    fn ready_wait_returns_on_work_or_on_a_state_change() {
        let state = Arc::new(AtomicU8::new(STATE_RUNNING));
        let table = SessionTable::new(SessionConfig::default(), Telemetry::new(), state.clone());
        table.open(1).expect("open");
        table.push_rr(1, &[(1.0, 0.8)]).expect("push");
        assert!(table.wait_ready(), "a listed session wakes the wait");
        let mut out = Vec::new();
        assert_eq!(table.take_ready(8, &mut out), Some(1));
        std::thread::scope(|scope| {
            // Nothing is ready, so the waiter parks (the pause only makes
            // that likely); parked or not, the state change must end the
            // wait with `false`.
            let waiter = scope.spawn(|| table.wait_ready());
            std::thread::sleep(std::time::Duration::from_millis(20));
            state.store(STATE_DRAINING, Ordering::SeqCst);
            table.notify_state_change();
            assert!(!waiter.join().expect("waiter"), "drain with nothing ready");
        });
        // Still-listed work is handed out after the drain begins.
        let table = SessionTable::new(SessionConfig::default(), Telemetry::new(), state.clone());
        state.store(STATE_RUNNING, Ordering::SeqCst);
        table.open(1).expect("open");
        table.push_rr(1, &[(1.0, 0.8)]).expect("push");
        state.store(STATE_DRAINING, Ordering::SeqCst);
        assert!(table.wait_ready());
        assert_eq!(table.take_ready(8, &mut out), Some(1));
        assert!(!table.wait_ready());
    }

    #[test]
    fn close_returns_leftovers_and_frees_telemetry() {
        let telemetry = Telemetry::new();
        let table = SessionTable::new(
            SessionConfig::default(),
            telemetry.clone(),
            Arc::new(AtomicU8::new(STATE_RUNNING)),
        );
        table.open(5).expect("open");
        table.push_rr(5, &[(1.0, 0.8), (2.0, 0.9)]).expect("push");
        assert!(telemetry
            .render()
            .contains("hrv_session_queue_depth{stream=\"5\"} 2"));
        let leftovers = table.close(5).expect("close");
        assert_eq!(leftovers, vec![(1.0, 0.8), (2.0, 0.9)]);
        assert!(!telemetry.render().contains("stream=\"5\""));
        assert_eq!(table.close(5).unwrap_err(), ServiceError::UnknownStream(5));
    }
}
