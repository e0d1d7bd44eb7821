//! Small shared helpers: order statistics, `/proc` readers, and the
//! metric/check ledger every workload writes into.

use std::collections::BTreeMap;
use std::time::Duration;

/// Nearest-rank quantile of `values` (`q` in `[0, 1]`); 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// A duration in microseconds.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Clock ticks per second of `/proc/<pid>/stat` times (Linux `USER_HZ`,
/// fixed at 100 on every architecture this runs on).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of process `pid` (`"self"` for this one),
/// all threads included.
pub fn cpu_s(pid: &str) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("read /proc/<pid>/stat");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 12 and 13 after ")".
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 =
        fields[11].parse::<f64>().expect("utime") + fields[12].parse::<f64>().expect("stime");
    ticks / USER_HZ
}

/// On-CPU seconds summed over the live threads of process `pid`
/// (`/proc/<pid>/task/*/schedstat`, nanosecond resolution); for short
/// intervals where `cpu_s`'s 10 ms ticks are too coarse.
pub fn live_thread_cpu_s(pid: &str) -> f64 {
    let tasks = std::fs::read_dir(format!("/proc/{pid}/task")).expect("read /proc/<pid>/task");
    let ns: u64 = tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("schedstat")).ok())
        .filter_map(|stat| stat.split_whitespace().next()?.parse::<u64>().ok())
        .sum();
    ns as f64 * 1e-9
}

/// Peak resident set (`VmHWM`) of process `pid` in kB.
pub fn vm_hwm_kb(pid: &str) -> f64 {
    let status =
        std::fs::read_to_string(format!("/proc/{pid}/status")).expect("read /proc/<pid>/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM row")
}

/// One reported number: value, unit and what its timer covers.
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub covers: String,
}

/// Named metrics of one measurement. A later `put` of the same name
/// replaces the earlier value; `fill` only adds names not yet present.
#[derive(Default)]
pub struct Metrics {
    pub rows: BTreeMap<String, Metric>,
}

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, covers: impl Into<String>) {
        self.rows.insert(
            name.to_string(),
            Metric {
                value,
                unit,
                covers: covers.into(),
            },
        );
    }

    pub fn get(&self, name: &str) -> f64 {
        self.rows.get(name).map_or(0.0, |m| m.value)
    }

    /// Adds every metric of `other` whose name is not present yet,
    /// prefixing its covers line with `source`.
    pub fn fill(&mut self, other: Metrics, source: &str) {
        for (name, metric) in other.rows {
            self.rows.entry(name).or_insert(Metric {
                covers: format!("{source}: {}", metric.covers),
                ..metric
            });
        }
    }
}

/// Operation counts and output checks. Every timed operation and every
/// output comparison is one attempt; a failed check is one failure.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Counts one attempt; a false `ok` counts a failure and logs `what`
    /// (the first few only) on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("check failed: {}", what());
            }
        }
    }

    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}
