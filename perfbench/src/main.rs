//! The bftbcast benchmark: three workloads, end-to-end metrics with
//! tracing off, per-layer metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload grid-sweep|rbc-quorum|serve-mix --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}`.
//! A host record and the failure log go to standard error; a traced
//! run also writes its spans to `.perfbench/trace-<workload>-<seed>.jsonl`.
//! See `perfbench/README.md` for the metric definitions.

mod checks;
mod gen;
mod metrics;
mod pipeline;
mod procfs;
mod serve;
mod stats;
mod sweep;
mod trace;

use std::fs;
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use bftbcast::{run_file, ScenarioFile};
use bftbcast_server::client;
use bftbcast_store::Store;

use metrics::{Layers, Metric, Tally};
use trace::Recorder;

/// Set-up repetitions per run of a sweep workload; `setup_s` is their
/// median. serve-mix's set-up is a fifth as long, so it repeats
/// [`SETUP_REPS`] × 3 times.
pub const SETUP_REPS: usize = 3;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Large-torus counting and crash sweeps.
    GridSweep,
    /// Message-level RBC sweeps.
    RbcQuorum,
    /// Closed-loop clients against an in-process server.
    ServeMix,
}

impl Workload {
    fn from_name(name: &str) -> Option<Workload> {
        match name {
            "grid-sweep" => Some(Workload::GridSweep),
            "rbc-quorum" => Some(Workload::RbcQuorum),
            "serve-mix" => Some(Workload::ServeMix),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::GridSweep => "grid-sweep",
            Workload::RbcQuorum => "rbc-quorum",
            Workload::ServeMix => "serve-mix",
        }
    }
}

/// One invocation's settings.
#[derive(Debug)]
pub struct Run {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// Load threads: one per available core.
    pub threads: usize,
    /// Working directory for stores, removed at exit.
    pub scratch: PathBuf,
}

const USAGE: &str =
    "usage: perfbench --workload grid-sweep|rbc-quorum|serve-mix --seed N --seconds S --trace 0|1";

fn parse_args(args: &[String]) -> Result<(Workload, u64, f64, bool), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(value).ok_or(format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok((
        workload.ok_or("--workload is required")?,
        seed.ok_or("--seed is required")?,
        seconds.ok_or("--seconds is required")?,
        trace.unwrap_or(false),
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, seed, seconds, trace) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let run = Run {
        workload,
        seed,
        seconds,
        trace,
        threads,
        scratch: PathBuf::from(".perfbench").join(format!(
            "{}-{}-{}",
            workload.name(),
            seed,
            std::process::id()
        )),
    };
    if let Err(e) = fs::create_dir_all(&run.scratch) {
        eprintln!("perfbench: cannot create {}: {e}", run.scratch.display());
        return ExitCode::from(1);
    }

    let mut tally = Tally::default();
    let mut layers = Layers::default();
    goldens(&run, &mut tally, &mut layers);
    let (load, wall_s, setup_s, peak) = match workload {
        Workload::ServeMix => serve::run(&run, &mut tally, &mut layers),
        _ => sweep::run(&run, &mut tally, &mut layers),
    };
    let metrics = if trace {
        layers.metrics(&tally)
    } else {
        metrics::end_to_end(&load, setup_s, peak)
    };
    for m in &metrics {
        tally.record((!m.value.is_finite()).then(|| format!("metric {} was not measured", m.name)));
    }

    let host = host_record(&run, &layers, wall_s, load.requests());
    eprintln!("{host}");
    if trace {
        let path =
            PathBuf::from(".perfbench").join(format!("trace-{}-{seed}.jsonl", workload.name()));
        if let Err(e) = write_trace(&path, &host, &layers) {
            tally.record(Some(format!("write {}: {e}", path.display())));
        }
    }
    let _ = fs::remove_dir_all(&run.scratch);
    for message in &tally.messages {
        eprintln!("perfbench: FAILED: {message}");
    }
    for m in &metrics {
        eprintln!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_line(&tally, &metrics));
    ExitCode::SUCCESS
}

/// The golden points, untimed. Traced runs also replay them through
/// the span-recording path and through a server, so every layer has
/// spans in every workload's trace.
fn goldens(run: &Run, tally: &mut Tally, layers: &mut Layers) {
    let server = run.trace.then(|| serve::Running::start(Store::in_memory()));
    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch);
    for (text, check) in checks::goldens() {
        let file = match ScenarioFile::parse(text) {
            Ok(file) => file,
            Err(e) => {
                tally.record(Some(format!("golden scenario rejected: {e}")));
                continue;
            }
        };
        let rows = match run_file(&file) {
            Ok(report) => report.jsonl(),
            Err(e) => {
                tally.record(Some(format!("golden {}: {e}", file.name)));
                continue;
            }
        };
        tally.check(check(&rows));
        if !run.trace {
            continue;
        }
        // Cold, then warm: replayed in-process, then through the server.
        let store = Store::in_memory();
        for class in ["request.cold", "request.warm"] {
            let replay_start = rec.spans().len();
            let mut replayed = String::new();
            for point in file.points() {
                let mut steps = pipeline::Steps::default();
                match rec.span(class, |rec| {
                    pipeline::traced_point(rec, &file, &point, &store, &mut steps)
                }) {
                    Ok((row, _, _)) => replayed.push_str(&row),
                    Err(e) => tally.record(Some(format!("golden {} replay: {e}", file.name))),
                }
                layers.steps.add(steps);
            }
            tally.record(
                (replayed != rows).then(|| format!("golden {}: replayed rows differ", file.name)),
            );
            let replay_ms = trace::seconds_in(&rec.spans()[replay_start..], class) * 1e3;
            let Some(Ok(server)) = &server else { continue };
            let addr = &server.addr;
            let first = rec.spans().len();
            let served = rec.span(class, |rec| -> Result<String, String> {
                rec.span("server.conn", |_| client::ping(addr))
                    .map_err(|e| e.to_string())?;
                let job = rec
                    .span("server.submit", |_| client::submit(addr, text))
                    .map_err(|e| e.to_string())?;
                let (lines, _) = rec
                    .span("server.results", |_| client::results(addr, &job))
                    .map_err(|e| e.to_string())?;
                Ok(lines.iter().map(|l| format!("{l}\n")).collect())
            });
            if class == "request.warm" {
                // Both sides answer from a store here, so the
                // difference is the server's own share.
                let served_ms = (trace::seconds_in(&rec.spans()[first..], "server.submit")
                    + trace::seconds_in(&rec.spans()[first..], "server.results"))
                    * 1e3;
                layers.server_own_ms.push(served_ms - replay_ms);
            }
            tally.record(match served {
                Ok(served) if served == rows => None,
                Ok(_) => Some(format!("golden {}: served rows differ", file.name)),
                Err(e) => Some(format!("golden {} through the server: {e}", file.name)),
            });
        }
    }
    layers.record(rec, false);
    match server {
        Some(Ok(server)) => tally.record(server.stop()),
        Some(Err(e)) => tally.record(Some(format!("golden server: {e}"))),
        None => {}
    }
}

/// The run's host and process record (one JSON object).
fn host_record(run: &Run, layers: &Layers, wall_s: f64, requests: usize) -> String {
    let commit = std::env::var("PERFBENCH_COMMIT").ok().or_else(|| {
        std::process::Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    });
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let usage = procfs::Usage::now();
    format!(
        "{{\"host\":{{\"nproc\":{},\"rustc\":\"{}\",\"commit\":\"{}\",\"profile\":\"{profile}\"}},\
         \"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"wall_s\":{wall_s},\
         \"requests\":{requests},\"process\":{{\"peak_rss_mb\":{},\"user_s\":{},\"sys_s\":{},\
         \"minor_faults\":{}}},\"window\":{{\"user_s\":{},\"sys_s\":{},\"minor_faults\":{}}}}}",
        run.threads,
        env!("PERFBENCH_RUSTC_VERSION"),
        commit.as_deref().unwrap_or("unknown"),
        run.workload.name(),
        run.seed,
        run.seconds,
        run.trace,
        procfs::peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0),
        usage.user_s,
        usage.sys_s,
        usage.minor_faults,
        layers.usage.user_s,
        layers.usage.sys_s,
        layers.usage.minor_faults,
    )
}

/// The host record, then every span, one JSON object per line.
fn write_trace(path: &PathBuf, host: &str, layers: &Layers) -> std::io::Result<()> {
    let mut out = BufWriter::new(fs::File::create(path)?);
    writeln!(out, "{host}")?;
    for (thread, spans) in layers.raw.iter().enumerate() {
        trace::write_jsonl(&mut out, thread, spans)?;
    }
    out.flush()
}

/// The result line: correctness, counts and every metric.
fn result_line(tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\":{{\"value\":{value:?},\"unit\":\"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        body.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn arguments_parse_and_reject() {
        let parsed = parse_args(&args(
            "--workload serve-mix --seed 3 --seconds 2.5 --trace 1",
        ));
        assert_eq!(parsed, Ok((Workload::ServeMix, 3, 2.5, true)));
        assert!(parse_args(&args("--workload nope --seed 3 --seconds 1")).is_err());
        assert!(parse_args(&args("--workload grid-sweep --seconds 1")).is_err());
        assert!(parse_args(&args("--workload grid-sweep --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&args(
            "--workload grid-sweep --seed 1 --seconds 1 --trace 2"
        ))
        .is_err());
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut tally = Tally::default();
        tally.record(None);
        let line = result_line(
            &tally,
            &[Metric {
                name: "setup_s",
                value: 0.5,
                unit: "s",
            }],
        );
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}"
        );
        let doc = bftbcast::json::Json::parse(&line).unwrap();
        assert_eq!(doc.get("failed").and_then(|f| f.as_u64()), Some(0));
    }
}
