//! What a run reports: named metrics with units, failure counts, digests and
//! the run manifest.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// Metrics of one run, by name, each with its unit.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|(v, _)| *v)
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.0.keys().map(String::as_str)
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` with every digit of `v`.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, (v, u))| format!("\"{k}\":{{\"value\":{},\"unit\":\"{u}\"}}", json_num(*v)))
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

/// A finite number as JSON (non-finite values become `null`, which the
/// reader rejects, rather than invalid JSON).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Operations attempted and failed, with the first few failure reasons.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Outcome {
    /// Counts one operation; `problems` lists every check it failed.
    pub fn record(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                if self.reasons.len() < 20 && !self.reasons.contains(&p) {
                    self.reasons.push(p);
                }
            }
        }
    }
}

/// 64-bit FNV-1a, fed through `fmt::Write` so that a value's `Debug` output
/// (shortest round-trip floats) is hashed without materialising it.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// Digest of a value's `Debug` representation.
pub fn debug_digest<T: fmt::Debug>(value: &T) -> u64 {
    use fmt::Write as _;
    let mut h = Fnv::new();
    write!(h, "{value:?}").expect("hashing never fails");
    h.finish()
}

/// Derives an independent stream seed from the run seed (SplitMix64).
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A `/proc/self/status` memory field in MiB, if the platform reports it.
fn status_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    status_mb("VmHWM:")
}

/// Current resident set of this process, in MiB (`VmRSS`).
pub fn rss_mb() -> Option<f64> {
    status_mb("VmRSS:")
}

/// The commit checked out in `root`, read from `.git` without running git;
/// `None` outside a git checkout.
pub fn git_head(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(_, name)| *name == reference)
        .map(|(hash, _)| hash.to_string())
}

/// Identifies a run: what ran, on which inputs, and which outputs it gave.
pub struct Manifest {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub config_digest: u64,
    pub result_digest: u64,
}

impl Manifest {
    pub fn to_json(&self) -> String {
        let head = git_head(Path::new(".")).map_or("null".to_string(), |h| format!("\"{h}\""));
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        let nproc = std::thread::available_parallelism().map_or(0, usize::from);
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"config_digest\":\"{:016x}\",\
             \"result_digest\":\"{:016x}\",\"git_head\":{head},\"build_profile\":\"{profile}\",\
             \"nproc\":{nproc}}}",
            self.workload, self.seed, self.trace, self.config_digest, self.result_digest
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_follows_the_value() {
        assert_eq!(debug_digest(&(1.5f64, "a")), debug_digest(&(1.5f64, "a")));
        assert_ne!(debug_digest(&1.5f64), debug_digest(&1.5000001f64));
    }

    #[test]
    fn derived_seeds_differ_per_stream() {
        assert_ne!(derive_seed(1, 0), derive_seed(1, 1));
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
        assert_eq!(derive_seed(9, 3), derive_seed(9, 3));
    }

    #[test]
    fn outcome_counts_failed_operations_once() {
        let mut o = Outcome::default();
        o.record(vec![]);
        o.record(vec!["a".into(), "b".into()]);
        assert_eq!((o.attempted, o.failed), (2, 1));
        assert_eq!(o.reasons, ["a", "b"]);
    }
}
