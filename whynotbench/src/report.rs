//! Metric names, summary statistics and the result line.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The end-to-end metrics a timed run prints, with their units. Every
/// workload reports every one of them.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("question_p50_ms", "ms"),
    ("question_tail_ms", "ms"),
    ("questions_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics a traced run prints, with their units. Values
/// are per question unless the name says otherwise; a layer a workload
/// does not run reads 0.
pub const PER_LAYER: [(&str, &str); 58] = [
    ("core.rsl_ms", "ms"),
    ("core.sr_ms", "ms"),
    ("core.explain_ms", "ms"),
    ("core.mwp_ms", "ms"),
    ("core.mqp_ms", "ms"),
    ("core.mwq_ms", "ms"),
    ("core.mwp_self_ms", "ms"),
    ("core.mqp_self_ms", "ms"),
    ("core.mwq_search_ms", "ms"),
    ("core.mwq_corner_calls", "count"),
    ("core.mwq_c2_frac", "1"),
    ("core.anti_ddr_ms", "ms"),
    ("core.cache_hit_rate", "1"),
    ("core.cache_hits", "count"),
    ("core.cache_misses", "count"),
    ("core.cache_partial_invalidations", "count"),
    ("core.cache_full_flushes", "count"),
    ("core.cache_evictions", "count"),
    ("core.cache_stale_fills", "count"),
    ("reverse_skyline.rsl_members", "count"),
    ("reverse_skyline.window_ms", "ms"),
    ("reverse_skyline.culprits", "count"),
    ("reverse_skyline.member_probes", "count"),
    ("reverse_skyline.member_probe_ms", "ms"),
    ("reverse_skyline.member_hit_frac", "1"),
    ("skyline.dsl_ms", "ms"),
    ("skyline.dsl_calls", "count"),
    ("skyline.dsl_points", "count"),
    ("geometry.intersect_ms", "ms"),
    ("geometry.anti_ddr_boxes", "count"),
    ("geometry.sr_boxes", "count"),
    ("geometry.dominance_tests", "count"),
    ("rtree.node_visits", "count"),
    ("rtree.build_s", "s"),
    ("storage.logical_reads", "count"),
    ("storage.physical_reads", "count"),
    ("storage.pool_hit_rate", "1"),
    ("storage.read_ms", "ms"),
    ("storage.read_us", "us"),
    ("storage.pages", "count"),
    ("storage.resident_pages_max", "count"),
    ("storage.build_s", "s"),
    ("server.rtt_ms", "ms"),
    ("server.service_ms", "ms"),
    ("server.wait_ms", "ms"),
    ("server.codec_us", "us"),
    ("server.request_bytes", "bytes"),
    ("server.response_bytes", "bytes"),
    ("server.write_p50_ms", "ms"),
    ("server.write_tail_ms", "ms"),
    ("server.write_wait_ms", "ms"),
    ("server.errors", "count"),
    ("trace.questions", "count"),
    ("trace.question_ms", "ms"),
    ("trace.overhead_frac", "1"),
    ("trace.phase_coverage", "1"),
    ("trace.exact_counts", "count"),
    ("trace.decomposition_mismatches", "count"),
];

/// What one run found: operations attempted and failed, the metric
/// values, and report lines for stderr.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Counts one failed operation and says why.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        let why = why.into();
        // Keep the report readable when many answers fail the same way.
        if self.failed <= 10 {
            self.notes.push(format!("FAILED: {why}"));
        }
    }

    /// Prints the report on stderr and the result object as the last
    /// line of stdout.
    pub fn print(&self, workload: &str, trace: bool) {
        let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        for line in &self.notes {
            eprintln!("  {line}");
        }
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        eprintln!(
            "  {workload}: attempted {} failed {} failed_frac {failed_frac} (1)",
            self.attempted, self.failed
        );
        let mut missing = false;
        let mut body = Vec::with_capacity(names.len());
        for (name, unit) in names {
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(_) => {
                    missing = true;
                    0.0
                }
                // A layer the workload does not run reads 0; an
                // end-to-end metric must always be measured.
                None => {
                    missing |= !trace;
                    0.0
                }
            };
            eprintln!("  {name} = {value} {unit}");
            body.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        let correct = self.failed == 0 && !missing && self.attempted > 0;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
    }
}

fn json_number(v: f64) -> String {
    // `Display` for f64 never uses exponents, so the text is valid JSON
    // and keeps every digit of the measurement.
    format!("{v}")
}

/// Nearest-rank quantile of an ascending slice (`p` in `[0, 1]`).
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts latencies ascending and returns them.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// The median of a sample (nearest rank).
pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

/// The tail percentile of a sample of `n`: the highest of p99.9, p99,
/// p95 and p90 with at least 10 samples beyond it. Runs of one workload
/// and length have the same `n`, so they share the percentile.
pub fn tail_p(n: usize) -> f64 {
    [0.999, 0.99, 0.95, 0.9]
        .into_iter()
        .find(|p| (1.0 - p) * n as f64 >= 10.0)
        .unwrap_or(0.5)
}

/// Records the median and the tail percentile of a latency sample
/// (milliseconds), with the percentile and sample count noted beside it.
pub fn latency_metrics(
    out: &mut Outcome,
    p50_name: &'static str,
    tail_name: &'static str,
    ms: Vec<f64>,
) {
    let n = ms.len();
    let tail_p = tail_p(n);
    let s = sorted(ms);
    let beyond = n - ((tail_p * n as f64).ceil() as usize).min(n);
    out.set(p50_name, quantile(&s, 0.5));
    out.set(tail_name, quantile(&s, tail_p));
    out.note(format!(
        "{tail_name} is p{} over {n} samples ({beyond} beyond it)",
        tail_p * 100.0
    ));
}

/// The report line giving a run's as-measured times beside the host's
/// median slowdown against the reference speed.
pub fn as_measured(raw: &Outcome, slowdown: f64) -> String {
    let values: Vec<String> = raw
        .metrics
        .iter()
        .map(|(k, v)| format!("{k} {v}"))
        .collect();
    format!(
        "as measured (host {slowdown:.3}x the reference probe time): {}",
        values.join(", ")
    )
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// A scratch directory inside the checkout for page files, removed when
/// the run ends.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    pub fn create(seed: u64) -> Result<Self, String> {
        let path = PathBuf::from(".whynotbench-tmp").join(format!("{}-{seed}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(Self { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    pub fn remove(self) {
        let _ = std::fs::remove_dir_all(&self.path);
        if let Some(parent) = self.path.parent() {
            // Succeeds only once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}
