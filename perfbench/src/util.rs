//! Small measurement helpers: order statistics, hashing, `/proc` and
//! directory probes, and the result-line JSON.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// The `q`-quantile (0..=1) of `values` by nearest rank. Sorts in place.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Median of `values` (the upper median for even counts).
pub fn median(values: &[f64]) -> f64 {
    quantile(&mut values.to_vec(), 0.5)
}

/// Mean of `values` without the lowest and highest tenth. The host
/// alternates between a fast and a slow speed for seconds at a time, so
/// per-iteration timings are bimodal: their median jumps from one mode
/// to the other as the slow share of a run crosses one half, while this
/// mean moves in proportion to that share and still drops the odd
/// stalled iteration.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 10;
    let kept = &sorted[cut..sorted.len() - cut];
    if kept.is_empty() {
        return 0.0;
    }
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Seconds elapsed since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives an independent stream seed from the run seed and a label, so
/// each workload and tenant draws different inputs from one `--seed`.
pub fn derive_seed(seed: u64, label: &str) -> u64 {
    let mut s = fnv1a(FNV_OFFSET, label.as_bytes()) ^ seed;
    splitmix64(&mut s)
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Peak resident set (`VmHWM`, KiB) of process `pid` (`"self"` for this
/// process), from `/proc/<pid>/status`.
pub fn vm_hwm_kib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Filesystem type of the mount holding `path`, from the longest
/// matching mount point in `/proc/self/mounts`.
pub fn fs_type(path: &Path) -> String {
    let Ok(abs) = path.canonicalize() else { return "unknown".into() };
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    let mut best = (0usize, "unknown".to_owned());
    for line in mounts.lines() {
        let mut fields = line.split_whitespace();
        let (Some(_dev), Some(mount), Some(kind)) = (fields.next(), fields.next(), fields.next())
        else {
            continue;
        };
        if abs.starts_with(mount) && mount.len() >= best.0 {
            best = (mount.len(), kind.to_owned());
        }
    }
    best.1
}

/// Total bytes of the regular files directly inside `dir` whose names
/// start with `prefix`, and how many there are.
pub fn files_with_prefix(dir: &Path, prefix: &str) -> (u64, u64) {
    let mut bytes = 0;
    let mut count = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let is_match = name.to_str().is_some_and(|n| n.starts_with(prefix));
            if let (true, Ok(meta)) = (is_match, entry.metadata()) {
                if meta.is_file() {
                    bytes += meta.len();
                    count += 1;
                }
            }
        }
    }
    (bytes, count)
}

/// What one run reports: the correctness verdict, the operation counts
/// and the metrics by name, printed as the final JSON line.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
    /// Why the correctness gate failed, if it did.
    pub mismatches: Vec<String>,
}

impl Report {
    pub fn new() -> Report {
        Report {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
            mismatches: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Records a correctness check; a failed one fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.correct = false;
            self.mismatches.push(what());
        }
    }

    /// The result line, with the metrics of `names` in that order. A
    /// metric the workload did not measure is reported as 0: its layer
    /// is bypassed by the workload.
    pub fn to_json(&self, names: &[(String, &str)]) -> String {
        let metrics: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                let value = self.metrics.get(name).copied().filter(|v| v.is_finite());
                format!("\"{name}\":{{\"value\":{:?},\"unit\":\"{unit}\"}}", value.unwrap_or(0.0))
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// Extracts a bare numeric field `"key":<number>` from a flat JSON
/// object (the daemon's hand-rolled STATS reply).
pub fn json_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let start = json.find(&needle)? + needle.len();
    let rest = &json[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Extracts the balanced `{...}` value of `"key":` from a JSON document
/// whose strings contain no braces (true of every STATS reply).
pub fn json_object<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":{{");
    let start = json.find(&needle)? + needle.len() - 1;
    let mut depth = 0usize;
    for (i, b) in json[start..].bytes().enumerate() {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&json[start..=start + i]);
                }
            }
            _ => {}
        }
    }
    None
}
