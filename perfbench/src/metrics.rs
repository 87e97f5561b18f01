//! What a run measured, and how it becomes the named metrics.

use std::time::Instant;

use crate::pipeline::{Counts, Steps};
use crate::procfs::Usage;
use crate::stats::{median, percentile};
use crate::trace::{Recorder, Span, Summary};

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Operations attempted and failed, with the first few failure
/// messages for the log.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted (requests, checks).
    pub attempted: u64,
    /// Operations that failed, were refused, or returned wrong output.
    pub failed: u64,
    /// The first failure messages.
    pub messages: Vec<String>,
}

impl Tally {
    /// Records one operation; `problem` is `Some` when it failed.
    pub fn record(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(message) = problem {
            self.failed += 1;
            if self.messages.len() < 20 {
                self.messages.push(message);
            }
        }
    }

    /// Records a check whose failures are listed (empty = passed).
    pub fn check(&mut self, failures: Vec<String>) {
        self.record((!failures.is_empty()).then(|| failures.join("; ")));
    }

    /// Adds another tally.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for message in other.messages {
            if self.messages.len() < 20 {
                self.messages.push(message);
            }
        }
    }
}

/// Request latencies and work of the measured window.
#[derive(Debug, Default)]
pub struct Load {
    /// New-key requests, ms (sweeps: a file's batch run; serve-mix: a
    /// cold `submit`→`results`).
    pub cold: Vec<f64>,
    /// Resubmitted-key requests, ms.
    pub warm: Vec<f64>,
    /// Report (render) requests, ms.
    pub report: Vec<f64>,
    /// Host time of single points, ms (sweeps: `batch::run_point`;
    /// serve-mix: the cold requests).
    pub point: Vec<f64>,
    /// Point results answered by the throughput phase (sweeps: the
    /// batch runs; serve-mix: every request's points).
    pub points: u64,
    /// Simulated messages of those points' engine runs.
    pub msgs: u64,
    /// Wall seconds of the throughput phase.
    pub points_wall_s: f64,
    /// Wall seconds in which the requests ran.
    pub requests_wall_s: f64,
}

impl Load {
    /// Adds another window's samples.
    pub fn merge(&mut self, other: Load) {
        self.cold.extend(other.cold);
        self.warm.extend(other.warm);
        self.report.extend(other.report);
        self.point.extend(other.point);
        self.points += other.points;
        self.msgs += other.msgs;
        self.points_wall_s += other.points_wall_s;
        self.requests_wall_s += other.requests_wall_s;
    }

    /// Requests of every class.
    pub fn requests(&self) -> usize {
        self.cold.len() + self.warm.len() + self.report.len()
    }

    /// Whether the percentiles have the samples they need.
    pub fn enough(&self) -> bool {
        let needed = crate::stats::min_samples_for(0.9);
        self.point.len() >= needed && self.requests() >= needed
    }
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(load: &Load, setup_s: f64, peak_rss_bytes: u64) -> Vec<Metric> {
    let all: Vec<f64> = [&load.cold, &load.warm, &load.report]
        .into_iter()
        .flatten()
        .copied()
        .collect();
    let nan = f64::NAN;
    vec![
        metric("setup_s", setup_s, "s"),
        metric(
            "points_per_s",
            load.points as f64 / load.points_wall_s,
            "1/s",
        ),
        metric("point_ms_p50", median(&load.point).unwrap_or(nan), "ms"),
        metric(
            "point_ms_p90",
            percentile(&load.point, 0.9).unwrap_or(nan),
            "ms",
        ),
        metric(
            "sim_msgs_per_s",
            load.msgs as f64 / load.points_wall_s,
            "msgs/s",
        ),
        metric(
            "requests_per_s",
            load.requests() as f64 / load.requests_wall_s,
            "1/s",
        ),
        metric("request_ms_p90", percentile(&all, 0.9).unwrap_or(nan), "ms"),
        metric("cold_ms_p50", median(&load.cold).unwrap_or(nan), "ms"),
        metric("warm_ms_p50", median(&load.warm).unwrap_or(nan), "ms"),
        metric("report_ms_p50", median(&load.report).unwrap_or(nan), "ms"),
        metric(
            "peak_rss_mb",
            peak_rss_bytes as f64 / (1024.0 * 1024.0),
            "MB",
        ),
    ]
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Everything a traced run gathers for the per-layer metrics.
#[derive(Debug, Default)]
pub struct Layers {
    /// Spans of every traced call in the run (window, determinism
    /// pass, golden probe through the server).
    pub spans: Summary,
    /// Spans of the traced share of the measured window only.
    pub window: Summary,
    /// Worker seconds the traced window offered: each phase's wall ×
    /// the threads working in it.
    pub window_budget_s: f64,
    /// Untraced and traced time over the same inputs, for the tracing
    /// overhead.
    pub untraced_s: f64,
    /// See `untraced_s`.
    pub traced_s: f64,
    /// `Store::open` on the warm log, ms.
    pub store_open_ms: f64,
    /// Hits ÷ lookups of the determinism pass.
    pub hit_ratio: f64,
    /// Exact counts of the determinism pass.
    pub counts: Counts,
    /// Of which from RBC points.
    pub rbc_counts: Counts,
    /// `step` calls of the determinism pass.
    pub step_calls: u64,
    /// Step loops of every traced point.
    pub steps: Steps,
    /// Process counters over the untraced throughput phase.
    pub usage: Usage,
    /// Cold points the throughput phase ran while `usage` counted.
    pub usage_points: u64,
    /// Σ point time ÷ (batch wall × workers) of the traced batch
    /// replay (serve-mix: Σ request time ÷ (window × clients)).
    pub busy_frac: f64,
    /// Round trip minus replayed layers, per traced point request, ms.
    pub server_own_ms: Vec<f64>,
    /// Every recorder's spans, written out at exit.
    pub raw: Vec<Vec<Span>>,
}

impl Layers {
    /// Keeps one load thread's spans; `window` marks spans of the
    /// measured window (the base of `trace.unaccounted_frac`).
    pub fn record(&mut self, rec: Recorder, window: bool) {
        let spans = rec.into_spans();
        self.spans.add(&spans);
        if window {
            self.window.add(&spans);
        }
        self.raw.push(spans);
    }

    fn span_median(&self, name: &str, scale: f64) -> f64 {
        self.spans
            .total
            .get(name)
            .and_then(|v| median(v))
            .map_or(f64::NAN, |s| s * scale)
    }

    fn own_median(&self, name: &str, scale: f64) -> f64 {
        self.spans
            .own
            .get(name)
            .and_then(|v| median(v))
            .map_or(f64::NAN, |s| s * scale)
    }

    /// The per-layer metrics, `failed_frac` included.
    pub fn metrics(&self, tally: &Tally) -> Vec<Metric> {
        const US: f64 = 1e6;
        const MS: f64 = 1e3;
        let per_point = |v: f64| v / self.usage_points.max(1) as f64;
        vec![
            metric(
                "scenario_file.parse_us",
                self.span_median("scenario_file.parse", US),
                "us",
            ),
            metric("cache.key_us", self.span_median("cache.key", US), "us"),
            metric(
                "cache.encode_us",
                self.span_median("cache.encode", US),
                "us",
            ),
            metric(
                "cache.decode_us",
                self.span_median("cache.decode", US),
                "us",
            ),
            metric("store.open_ms", self.store_open_ms, "ms"),
            metric("store.get_us", self.own_median("store.get", US), "us"),
            metric("store.put_us", self.own_median("store.put", US), "us"),
            metric("store.hit_ratio", self.hit_ratio, "ratio"),
            metric("sim.build_ms", self.span_median("sim.build", MS), "ms"),
            metric("sim.prepare_ms", self.span_median("sim.prepare", MS), "ms"),
            metric("sim.step_ms", self.span_median("sim.step", MS), "ms"),
            metric(
                "sim.step_us_per_wave",
                self.steps.seconds * US / self.steps.calls.max(1) as f64,
                "us",
            ),
            metric("sim.waves", self.step_calls as f64, "count"),
            metric("sim.msgs", self.counts.msgs as f64, "count"),
            metric(
                "proc.user_ms_per_point",
                per_point(self.usage.user_s * MS),
                "ms",
            ),
            metric(
                "proc.sys_ms_per_point",
                per_point(self.usage.sys_s * MS),
                "ms",
            ),
            metric(
                "proc.minor_faults_per_point",
                per_point(self.usage.minor_faults as f64),
                "count",
            ),
            metric(
                "rbc.step_ns_per_msg",
                self.steps.rbc_seconds * 1e9 / self.steps.rbc_msgs.max(1) as f64,
                "ns",
            ),
            metric("rbc.msgs", self.rbc_counts.msgs as f64, "count"),
            metric("rbc.wire_bits", self.rbc_counts.wire_bits as f64, "bits"),
            metric("rbc.waves", self.rbc_counts.waves as f64, "count"),
            metric("batch.jsonl_us", self.span_median("batch.jsonl", US), "us"),
            metric("batch.worker_busy_frac", self.busy_frac, "ratio"),
            metric("server.conn_ms", self.span_median("server.conn", MS), "ms"),
            metric(
                "server.submit_ms",
                self.span_median("server.submit", MS),
                "ms",
            ),
            metric(
                "server.results_ms",
                self.span_median("server.results", MS),
                "ms",
            ),
            metric(
                "server.own_ms",
                median(&self.server_own_ms).unwrap_or(f64::NAN),
                "ms",
            ),
            metric(
                "report.render_ms",
                self.span_median("report.render", MS),
                "ms",
            ),
            metric(
                "trace.overhead_frac",
                self.traced_s / self.untraced_s - 1.0,
                "ratio",
            ),
            metric(
                "trace.unaccounted_frac",
                1.0 - self.window.layer_seconds() / self.window_budget_s,
                "ratio",
            ),
            metric(
                "failed_frac",
                tally.failed as f64 / tally.attempted.max(1) as f64,
                "ratio",
            ),
        ]
    }
}

/// Milliseconds since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}
