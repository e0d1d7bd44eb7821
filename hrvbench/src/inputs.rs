//! Seeded inputs and the reference every run checks against.
//!
//! A small pool of distinct synthetic recordings (`cohort_member`, the
//! fleet's own cohort recipe) is synthesised once per run, outside every
//! timed region; stream `i` replays recording `i % POOL`. Because
//! streams sharing a recording see identical samples, one reference
//! stream per (recording, governed) variant fixes what every stream's
//! report must be, bit for bit.

use hrv_core::{PsaConfig, SpectralPlan};
use hrv_stream::{cohort_member, FleetScheduler, StreamBudget, StreamReport};
use std::time::Instant;

/// Distinct recordings per run.
pub const POOL: usize = 32;
/// Seconds of RR data per recording.
pub const RECORD_S: f64 = 1800.0;

/// The energy budget of governed streams: joules per 4-window interval,
/// tight enough that the governor leaves the nominal operating point.
pub fn budget() -> StreamBudget {
    StreamBudget::per_interval(2.5e-3, 4)
}

/// The run's recordings as `(beat time, RR interval)` samples.
pub struct Pool {
    pub recs: Vec<Vec<(f64, f64)>>,
    /// Wall time the synthesis took.
    pub synth_s: f64,
}

impl Pool {
    pub fn new(seed: u64) -> Pool {
        let started = Instant::now();
        let recs = (0..POOL)
            .map(|k| {
                let record = cohort_member(seed, k, RECORD_S);
                let times = record.rr.times().iter().copied();
                times.zip(record.rr.intervals().iter().copied()).collect()
            })
            .collect();
        Pool {
            recs,
            synth_s: started.elapsed().as_secs_f64(),
        }
    }

    /// Batch `k` (of `batch` samples) of stream `stream`'s recording;
    /// empty past its end.
    pub fn chunk(&self, stream: usize, batch: usize, k: usize) -> &[(f64, f64)] {
        let rec = &self.recs[stream % POOL];
        let start = (k * batch).min(rec.len());
        &rec[start..(start + batch).min(rec.len())]
    }

    /// The first batch (of `batch` samples) that completes a spectral
    /// window on any recording: batches before it only fill windows.
    pub fn first_window_batch(&self, batch: usize) -> usize {
        let window_s = PsaConfig::conventional().window_duration;
        self.recs
            .iter()
            .map(|rec| {
                rec.iter()
                    .position(|&(t, _)| t >= rec[0].0 + window_s)
                    .expect("a full window")
                    / batch
            })
            .min()
            .expect("recordings")
    }

    /// Batches per recording (the longest one).
    pub fn batches(&self, batch: usize) -> usize {
        self.recs
            .iter()
            .map(|r| r.len().div_ceil(batch))
            .max()
            .unwrap_or(0)
    }
}

/// Reference reports of an external fleet fed one stream per variant —
/// variant `v < POOL` is recording `v` ungoverned, `v ≥ POOL` recording
/// `v - POOL` under [`budget`] — in the same batches a workload sends.
pub struct Reference {
    /// Windows of each variant after each batch.
    windows_after: Vec<Vec<u64>>,
    /// Final (closed) report of each variant.
    reports: Vec<StreamReport>,
}

impl Reference {
    /// Feeds `batches` batches of `batch` samples (all when `None`) of
    /// every recording, ungoverned and, with `governed`, under budget.
    pub fn build(pool: &Pool, batch: usize, batches: Option<usize>, governed: bool) -> Reference {
        let plan = SpectralPlan::new(PsaConfig::conventional()).expect("reference plan");
        let mut fleet = FleetScheduler::external(plan, 1).expect("reference fleet");
        let variants = if governed { 2 * POOL } else { POOL };
        let limit = batches.unwrap_or(usize::MAX);
        let mut windows_after = Vec::with_capacity(variants);
        for v in 0..variants {
            fleet.open_stream(v).expect("reference open");
            if v >= POOL {
                fleet
                    .set_stream_budget(v, budget())
                    .expect("reference budget");
            }
            let mut after = Vec::new();
            for chunk in pool.recs[v % POOL].chunks(batch).take(limit) {
                fleet.push_rr_batch(v, chunk).expect("reference push");
                after.push(fleet.stream_report(v).expect("reference report").windows);
            }
            windows_after.push(after);
        }
        let reports = fleet.close_all();
        let reference = Reference {
            windows_after,
            reports,
        };
        if governed {
            let binds = (0..POOL)
                .any(|v| reference.reports[v + POOL].energy_j < reference.reports[v].energy_j);
            assert!(
                binds,
                "the budget must move governed streams off the nominal operating point"
            );
        }
        reference
    }

    /// The variant stream `stream` replays.
    pub fn variant(stream: usize, governed: bool) -> usize {
        stream % POOL + if governed { POOL } else { 0 }
    }

    /// Windows variant `v` has emitted once batch `k` is analysed.
    pub fn windows_after(&self, v: usize, k: usize) -> u64 {
        self.windows_after[v][k]
    }

    /// Whether batch `k` completes at least one window of variant `v`.
    pub fn completes(&self, v: usize, k: usize) -> bool {
        let before = if k == 0 {
            0
        } else {
            self.windows_after[v][k - 1]
        };
        self.windows_after[v][k] > before
    }

    /// Whether `report` is variant `v`'s final report, bit for bit
    /// (stream ids aside).
    pub fn matches(&self, v: usize, report: &StreamReport) -> bool {
        let mut expected = self.reports[v].clone();
        expected.id = report.id;
        expected == *report
    }

    /// Arrhythmia windows the ungoverned run of `v`'s recording flags.
    pub fn ungoverned_arrhythmia(&self, v: usize) -> u64 {
        self.reports[v % POOL].arrhythmia_windows
    }
}
