//! Samples, quantiles, and the result every workload run returns.

use std::fmt::Write;

/// Linear-interpolated quantile of sorted samples (`q` in 0..=1).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// How many consecutive groups of cycles a run's latencies are split
/// into for [`Latencies::windowed`].
pub const WINDOWS: u64 = 6;

/// Latency samples in milliseconds, each tagged with the cycle of the
/// workload it ran in.
#[derive(Default, Clone)]
pub struct Latencies {
    ms: Vec<f64>,
    cycle: Vec<u64>,
}

impl Latencies {
    pub fn push(&mut self, cycle: u64, secs: f64) {
        self.ms.push(secs * 1e3);
        self.cycle.push(cycle);
    }

    pub fn extend(&mut self, other: &Latencies) {
        self.ms.extend_from_slice(&other.ms);
        self.cycle.extend_from_slice(&other.cycle);
    }

    pub fn len(&self) -> usize {
        self.ms.len()
    }

    pub fn total_ms(&self) -> f64 {
        self.ms.iter().sum()
    }

    /// The `q` quantile of all samples.
    pub fn p(&self, q: f64) -> f64 {
        let mut v = self.ms.clone();
        v.sort_by(f64::total_cmp);
        quantile(&v, q)
    }

    /// The median, over [`WINDOWS`] consecutive groups of whole cycles,
    /// of each group's `q` quantile. Every group holds the cycle's mix in
    /// full, so its quantile lands in the same cost mode; a burst of
    /// contention from other tenants of the host that slows a minority of
    /// the groups leaves the median of the groups where it was.
    pub fn windowed(&self, q: f64) -> f64 {
        let cycles = self.cycle.iter().max().map_or(1, |c| c + 1);
        let mut groups: Vec<Vec<f64>> = vec![Vec::new(); WINDOWS as usize];
        for (ms, cycle) in self.ms.iter().zip(&self.cycle) {
            groups[(cycle * WINDOWS / cycles) as usize].push(*ms);
        }
        let per_group: Vec<f64> = groups
            .into_iter()
            .filter(|g| !g.is_empty())
            .map(|mut g| {
                g.sort_by(f64::total_cmp);
                quantile(&g, q)
            })
            .collect();
        median(&per_group)
    }
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total and steal jiffies of the host's CPUs so far (`/proc/stat`).
/// Steal is time the hypervisor gave this machine's virtual CPUs to
/// someone else; a run that saw much of it is a run on a busy host.
pub fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.iter().sum(), fields.get(7).copied().unwrap_or(0))
}

/// What one workload run reports: the operation counts, each metric
/// with its unit, and the free-text lines printed before the result.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records a wrong answer: counted in `failed`, described in notes
    /// (the first few only, so a systematic bug does not flood output).
    pub fn wrong(&mut self, what: impl Into<String>) {
        self.failed += 1;
        if self.failed <= 5 {
            self.notes.push(format!("WRONG ANSWER: {}", what.into()));
        }
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn json(&self, names: &[&str]) -> String {
        let mut m = String::new();
        for (i, name) in names.iter().enumerate() {
            let (_, value, unit) = self
                .metrics
                .iter()
                .find(|(n, _, _)| n == name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            if i > 0 {
                m.push_str(", ");
            }
            let _ = write!(
                m,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed
        )
    }
}

/// Sorted lines of a rendered answer, dropping a data answer's header.
pub fn rows_of(rendered: &str) -> Vec<String> {
    let mut rows: Vec<String> = rendered.lines().skip(1).map(str::to_string).collect();
    rows.sort();
    rows
}

/// True when a rendered answer has exactly these lines, in any order.
pub fn same_lines(rendered: &str, mut want: Vec<String>) -> bool {
    let mut got: Vec<&str> = rendered.lines().collect();
    got.sort_unstable();
    want.sort();
    got == want
}
