//! Latency samples, metric output, registry deltas and the host
//! fingerprint.

use std::time::Duration;

/// Every latency of one kind, kept exactly (no bucketing) so medians
/// carry all their digits.
#[derive(Default, Clone)]
pub struct Lat(Vec<u64>);

impl Lat {
    pub fn with_capacity(n: usize) -> Self {
        Lat(Vec::with_capacity(n))
    }

    pub fn record(&mut self, d: Duration) {
        self.0.push(d.as_nanos() as u64);
    }

    pub fn merge(&mut self, other: Lat) {
        self.0.extend(other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank quantile in microseconds (0 when empty).
    pub fn quantile_us(&mut self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0.sort_unstable();
        let rank = ((q * self.0.len() as f64).ceil() as usize).clamp(1, self.0.len());
        self.0[rank - 1] as f64 / 1e3
    }

    pub fn p50_us(&mut self) -> f64 {
        self.quantile_us(0.5)
    }

    /// The p99, or the maximum when fewer than 10 samples lie beyond
    /// the p99 (reported as unsupported in the sample line).
    pub fn p99_us(&mut self) -> f64 {
        self.quantile_us(if self.p99_supported() { 0.99 } else { 1.0 })
    }

    pub fn p99_supported(&self) -> bool {
        self.0.len() >= 1000
    }
}

/// Median of a few repeated measurements.
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A JSON array of numbers.
pub fn list(v: impl Iterator<Item = f64>) -> String {
    format!("[{}]", v.map(num).collect::<Vec<_>>().join(", "))
}

/// `a / b`, 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Named metrics with units, printed in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        match self.0.iter_mut().find(|m| m.0 == name) {
            Some(m) => (m.1, m.2) = (value, unit),
            None => self.0.push((name.to_string(), value, unit)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// Keeps only the named metrics, in the given order; a missing name
    /// is a harness bug.
    pub fn select(&self, names: &[(&str, &'static str)]) -> Metrics {
        let mut out = Metrics::default();
        for (name, unit) in names {
            let v = self
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            out.set(name, v, unit);
        }
        out
    }
}

/// A JSON number with every digit Rust's shortest round-trip form has.
pub fn num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Before/after view of the process-wide `pr_obs` registry.
pub struct RegDelta(pr_obs::RegistrySnapshot);

impl RegDelta {
    pub fn between(before: &pr_obs::RegistrySnapshot) -> Self {
        RegDelta(pr_obs::global().snapshot().delta_since(before))
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.0.counter(name) as f64
    }

    /// Quantile of a microsecond histogram (0 when it saw nothing).
    pub fn hist_us(&self, name: &str, q: f64) -> f64 {
        match self.0.histogram(name) {
            Some(h) if !h.is_empty() => h.quantile(q) as f64,
            _ => 0.0,
        }
    }
}

pub fn registry() -> pr_obs::RegistrySnapshot {
    pr_obs::global().snapshot()
}

fn read_trim(path: &str) -> String {
    std::fs::read_to_string(path)
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// The host and build this run measured, as one JSON object.
pub fn fingerprint(seed: u64, workload: &str, scale: &str, extra: &[(&str, String)]) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = read_trim("/proc/sys/kernel/osrelease");
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut fields = vec![
        format!("\"workload\": \"{workload}\""),
        format!("\"seed\": {seed}"),
        format!("\"scale\": \"{scale}\""),
        format!("\"nproc\": {nproc}"),
        format!("\"kernel\": \"{kernel}\""),
        format!("\"build_profile\": \"{profile}\""),
        "\"durability\": \"Fsync (fsync before every ack)\"".to_string(),
    ];
    fields.extend(extra.iter().map(|(k, v)| format!("\"{k}\": {v}")));
    format!("{{\"fingerprint\": {{{}}}}}", fields.join(", "))
}
