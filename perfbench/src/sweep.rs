//! grid-sweep and rbc-quorum: generated sweep files run in-process,
//! the way a researcher runs `run --scenario --store` over a sweep and
//! then renders its chart.
//!
//! A *cycle* is one generated set of sweep files (a fixed menu of
//! shapes; the seed picks values inside it). Each cycle runs four
//! phases:
//!
//! 1. batch: each file, one after another, through
//!    `batch::run_file_with` with `jobs` = nproc and the store (engine
//!    runs plus store puts, fanned out by the batch runner itself).
//!    Each call is a cold request; this phase sets `points_per_s` and
//!    `sim_msgs_per_s`.
//! 2. points: every point once more through `batch::run_point` (build →
//!    run → probes, no store) on nproc closed-loop load threads, which
//!    times single points; each file's rows must equal its batch rows.
//! 3. warm: each file again through `run_file_with` (store hits and
//!    decodes); the rows must equal the batch rows.
//! 4. report: each file's chart through `report::render_scenario` on
//!    the warm store.
//!
//! Warm and report run once per cycle. They exist to fill the format's
//! warm and report metrics: nothing in the repository says how often a
//! finished sweep is re-run or re-plotted.

use std::path::Path;
use std::time::Instant;

use bftbcast::batch::{self, BatchReport, PointResult};
use bftbcast::report::{self, FigureKind, ReportOutput, ReportSpec};
use bftbcast::sim::runner::sweep_bounded;
use bftbcast::{run_file_with, BatchOptions, PointSpec, ScenarioError, ScenarioFile};
use bftbcast_store::Store;

use crate::gen;
use crate::metrics::{ms_since, Layers, Load, Tally};
use crate::pipeline::{self, fan_out, guarantee_holds, Counts, Steps};
use crate::procfs::Usage;
use crate::trace::Recorder;
use crate::{Run, Workload};

/// The generated files of one cycle.
fn cycle_texts(workload: Workload, seed: u64, cycle: u64) -> Vec<String> {
    match workload {
        Workload::GridSweep => gen::grid_cycle(seed, cycle),
        Workload::RbcQuorum => gen::rbc_cycle(seed, cycle),
        Workload::ServeMix => unreachable!("serve-mix has no sweep cycles"),
    }
}

/// The chart each report request renders.
fn chart() -> ReportSpec {
    ReportSpec {
        figure: FigureKind::Chart,
        field: Some("waves".to_string()),
        x_axis: Some("seed".to_string()),
        ..ReportSpec::default()
    }
}

/// `None` when a chart request was answered from the store with one
/// figure.
fn check_report(file: &ScenarioFile, out: Result<ReportOutput, ScenarioError>) -> Option<String> {
    match out {
        Ok(out) if out.cache_misses == 0 && out.figures.len() == 1 => None,
        Ok(out) => Some(format!(
            "{} report: {} misses, {} figures",
            file.name,
            out.cache_misses,
            out.figures.len()
        )),
        Err(e) => Some(format!("{} report: {e}", file.name)),
    }
}

/// `None` when a warm re-run answered every point from the store with
/// the cold rows.
fn check_warm(
    file: &ScenarioFile,
    warm: &Result<String, String>,
    misses: usize,
    cold: &Result<String, String>,
) -> Option<String> {
    match (warm, cold) {
        (Ok(warm), Ok(cold)) if warm == cold && misses == 0 => None,
        (Ok(_), Ok(_)) if misses != 0 => {
            Some(format!("{}: warm re-run missed the store", file.name))
        }
        (Err(e), _) => Some(format!("{}: warm: {e}", file.name)),
        _ => Some(format!(
            "{}: warm rows differ from the batch rows",
            file.name
        )),
    }
}

/// A parsed cycle: its files and their points.
struct Cycle {
    files: Vec<ScenarioFile>,
    points: Vec<Vec<PointSpec>>,
    /// `(file, point)` per point, in sweep order.
    work: Vec<(usize, usize)>,
}

impl Cycle {
    fn parse(texts: &[String], mut rec: Option<&mut Recorder>, tally: &mut Tally) -> Cycle {
        let mut files = Vec::new();
        for text in texts {
            let parsed = match rec.as_deref_mut() {
                Some(rec) => rec.span("scenario_file.parse", |_| ScenarioFile::parse(text)),
                None => ScenarioFile::parse(text),
            };
            match parsed {
                Ok(file) => files.push(file),
                Err(e) => tally.record(Some(format!("generated file rejected: {e}"))),
            }
        }
        let points: Vec<Vec<PointSpec>> = files.iter().map(ScenarioFile::points).collect();
        let work = points
            .iter()
            .enumerate()
            .flat_map(|(f, ps)| (0..ps.len()).map(move |p| (f, p)))
            .collect();
        Cycle {
            files,
            points,
            work,
        }
    }
}

/// What the untraced phases of one cycle produced.
struct CycleOut {
    load: Load,
    tally: Tally,
    /// Batch rows per file.
    rows: Vec<Result<String, String>>,
    /// Counts per point, in sweep order.
    counts: Vec<Counts>,
    /// Wall seconds of the batch, warm and report phases: the base of
    /// the tracing overhead.
    compared_s: f64,
    /// Process counters over the batch phase.
    usage: Usage,
}

fn run_cycle(cycle: &Cycle, store: &Store, threads: usize) -> CycleOut {
    let mut tally = Tally::default();
    let mut load = Load::default();
    let options = BatchOptions {
        jobs: Some(threads),
        store: Some(store),
    };

    let (start, before) = (Instant::now(), Usage::now());
    let batches: Vec<(f64, Result<BatchReport, ScenarioError>)> = cycle
        .files
        .iter()
        .map(|file| {
            let t = Instant::now();
            let out = run_file_with(file, &options);
            (ms_since(t), out)
        })
        .collect();
    let batch_s = start.elapsed().as_secs_f64();
    let usage = Usage::now().since(before);
    let mut rows = Vec::new();
    let mut counts = Vec::new();
    for ((ms, out), file) in batches.into_iter().zip(&cycle.files) {
        load.cold.push(ms);
        match out {
            Ok(report) => {
                load.points += report.results.len() as u64;
                for (p, result) in report.results.iter().enumerate() {
                    let c = Counts::of(&result.outcome);
                    load.msgs += c.msgs;
                    counts.push(c);
                    tally.record(
                        (!guarantee_holds(file, &result.outcome))
                            .then(|| format!("{} point {p}: guarantee violated", file.name)),
                    );
                }
                tally.record(
                    (report.cache_hits != 0)
                        .then(|| format!("{}: cold batch run hit the store", file.name)),
                );
                rows.push(Ok(report.jsonl()));
            }
            Err(e) => {
                tally.record(Some(format!("{}: {e}", file.name)));
                counts.extend(file.points().iter().map(|_| Counts::default()));
                rows.push(Err(e.to_string()));
            }
        }
    }
    load.points_wall_s = batch_s;

    let (singles, _) = fan_out(cycle.work.len(), threads, None, |i, _| {
        let (f, p) = cycle.work[i];
        let start = Instant::now();
        let result = batch::run_point(&cycle.files[f], &cycle.points[f][p]);
        (ms_since(start), result)
    });
    let mut single: Vec<Result<Vec<PointResult>, String>> = vec![Ok(Vec::new()); cycle.files.len()];
    for (&(f, _), (ms, result)) in cycle.work.iter().zip(singles) {
        load.point.push(ms);
        match (&mut single[f], result) {
            (Ok(results), Ok(result)) => results.push(result),
            (slot, Err(e)) => *slot = Err(e.to_string()),
            (Err(_), Ok(_)) => {}
        }
    }
    for ((single, batch), file) in single.into_iter().zip(&rows).zip(&cycle.files) {
        let single = single.map(|results| {
            BatchReport {
                name: file.name.clone(),
                engine: file.engine,
                results,
                cache_hits: 0,
                cache_misses: 0,
            }
            .jsonl()
        });
        tally.record(
            (&single != batch)
                .then(|| format!("{}: run_point rows differ from the batch rows", file.name)),
        );
    }

    let start = Instant::now();
    for (file, cold) in cycle.files.iter().zip(&rows) {
        let t = Instant::now();
        let out = run_file_with(file, &options);
        load.warm.push(ms_since(t));
        let misses = out.as_ref().map_or(0, |r| r.cache_misses);
        let warm = out.map(|r| r.jsonl()).map_err(|e| e.to_string());
        tally.record(check_warm(file, &warm, misses, cold));
    }
    for file in &cycle.files {
        let t = Instant::now();
        let out = report::render_scenario(file, &chart(), &options);
        load.report.push(ms_since(t));
        tally.record(check_report(file, out));
    }
    let compared_s = batch_s + start.elapsed().as_secs_f64();
    load.requests_wall_s = compared_s;
    CycleOut {
        load,
        tally,
        rows,
        counts,
        compared_s,
        usage,
    }
}

/// What the traced replay of one cycle produced.
struct Replay {
    tally: Tally,
    /// Replayed batch rows per file, and counts per point.
    rows: Vec<Result<String, String>>,
    counts: Vec<Counts>,
    recorders: Vec<Recorder>,
    steps: Steps,
    /// Wall seconds of the replayed batch, warm and report phases.
    compared_s: f64,
    /// Worker seconds the replay offered: each phase's wall × the
    /// threads working in it.
    budget_s: f64,
    /// Σ point time, and batch wall × workers, of the batch replay.
    busy_s: f64,
    offered_s: f64,
}

/// Replays a cycle's batch, warm and report phases with spans. The
/// batch runs go through the batch runner's own fan-out
/// (`sweep_bounded` with `jobs` = nproc), each point on the traced path
/// with a recorder of its own.
fn replay_cycle(texts: &[String], store: &Store, threads: usize, epoch: Instant) -> Replay {
    let mut tally = Tally::default();
    let mut main = Recorder::new(epoch);
    let parse = Instant::now();
    let cycle = Cycle::parse(texts, Some(&mut main), &mut tally);
    let start = Instant::now();
    let mut out = Replay {
        tally,
        rows: Vec::new(),
        counts: Vec::new(),
        recorders: Vec::new(),
        steps: Steps::default(),
        compared_s: 0.0,
        budget_s: 0.0,
        busy_s: 0.0,
        offered_s: 0.0,
    };
    for class in ["request.cold", "request.warm"] {
        let cold = class == "request.cold";
        for (f, file) in cycle.files.iter().enumerate() {
            let points = &cycle.points[f];
            let t = Instant::now();
            let answers = sweep_bounded(points, Some(threads), |point| {
                let mut rec = Recorder::new(epoch);
                let mut steps = Steps::default();
                let answer = rec.span(class, |rec| {
                    pipeline::traced_point(rec, file, point, store, &mut steps)
                });
                (answer, steps, rec)
            });
            let offered_s = t.elapsed().as_secs_f64() * threads.min(points.len()) as f64;
            out.budget_s += offered_s;
            let mut body = Ok(String::new());
            let mut misses = 0;
            for (answer, steps, rec) in answers {
                out.steps.add(steps);
                if cold {
                    out.busy_s += rec.spans()[0].duration().as_secs_f64();
                }
                out.recorders.push(rec);
                match answer {
                    Ok((row, outcome, hit)) => {
                        misses += usize::from(!hit);
                        if cold {
                            out.counts.push(Counts::of(&outcome));
                        }
                        if let Ok(body) = &mut body {
                            body.push_str(&row);
                        }
                    }
                    Err(e) => {
                        if cold {
                            out.counts.push(Counts::default());
                        }
                        body = Err(e.to_string());
                    }
                }
            }
            if cold {
                out.offered_s += offered_s;
                out.tally.record(
                    (misses != points.len())
                        .then(|| format!("{}: cold batch replay hit the store", file.name)),
                );
                out.rows.push(body);
            } else {
                out.tally
                    .record(check_warm(file, &body, misses, &out.rows[f]));
            }
        }
    }
    let options = BatchOptions {
        jobs: Some(threads),
        store: Some(store),
    };
    let report_start = Instant::now();
    for file in &cycle.files {
        let rendered = main.span("request.report", |rec| {
            rec.span("report.render", |_| {
                report::render_scenario(file, &chart(), &options)
            })
        });
        out.tally.record(check_report(file, rendered));
    }
    out.compared_s = start.elapsed().as_secs_f64();
    // Parse and render run on this thread alone.
    out.budget_s += (start - parse).as_secs_f64() + report_start.elapsed().as_secs_f64();
    out.recorders.push(main);
    out
}

/// Runs the sweep workload: returns the window's load, its wall
/// seconds, the set-up seconds and the window's peak RSS in bytes.
pub fn run(run: &Run, tally: &mut Tally, layers: &mut Layers) -> (Load, f64, f64, u64) {
    let workload = run.workload;
    let threads = run.threads;
    let traced = run.trace.then(Instant::now);

    // Set-up, repeated; the last repetition's store is kept.
    let mut setups = Vec::new();
    let mut store = None;
    for rep in 0..crate::SETUP_REPS {
        let start = Instant::now();
        let dir = run.scratch.join(format!("store-{rep}"));
        let _ = std::fs::remove_dir_all(&dir);
        let opened = Store::open(&dir).expect("open the workload store");
        // Warm-up: the batch run and chart of the first half of the
        // menu, on inputs the window never uses (cycle u64::MAX), so
        // lazy set-up in the allocator, the engines and the renderer is
        // paid here.
        let texts = cycle_texts(workload, run.seed, u64::MAX);
        let cycle = Cycle::parse(&texts[..texts.len() / 2], None, tally);
        let options = BatchOptions {
            jobs: Some(threads),
            store: Some(&opened),
        };
        for file in &cycle.files {
            let batch = run_file_with(file, &options);
            tally.record(batch.err().map(|e| format!("warm-up {}: {e}", file.name)));
            tally.record(check_report(
                file,
                report::render_scenario(file, &chart(), &options),
            ));
        }
        setups.push(start.elapsed().as_secs_f64());
        store = Some(opened);
    }
    let store = store.expect("at least one set-up");
    let setup_s = crate::stats::median(&setups).expect("set-up ran");

    let first = &cycle_texts(workload, run.seed, 0)[..1];
    let other = &cycle_texts(workload, run.seed.wrapping_add(1), 0)[..1];
    pipeline::determinism(first, other, threads, tally, layers);

    let traced_dir = run.scratch.join("store-traced");
    let _ = std::fs::remove_dir_all(&traced_dir);
    let traced_store = Store::open(&traced_dir).expect("open the traced store");

    tally.record(
        (!crate::procfs::reset_peak_rss()).then(|| "cannot reset the peak-RSS mark".to_string()),
    );
    let window = Instant::now();
    let mut load = Load::default();
    let mut cycle = 0u64;
    let (mut busy_s, mut offered_s) = (0.0, 0.0);
    loop {
        let texts = cycle_texts(workload, run.seed, cycle);
        // A traced run pairs each cycle with a traced replay of the same
        // inputs, alternating which side goes first.
        let replay = |texts: &[String]| {
            traced.map(|epoch| replay_cycle(texts, &traced_store, threads, epoch))
        };
        let mut t = if cycle % 2 == 1 { replay(&texts) } else { None };
        let out = run_cycle(&Cycle::parse(&texts, None, tally), &store, threads);
        if t.is_none() {
            t = replay(&texts);
        }
        layers.usage = layers.usage.plus(out.usage);
        layers.usage_points += out.load.points;
        if let Some(t) = t {
            layers.untraced_s += out.compared_s;
            layers.traced_s += t.compared_s;
            layers.window_budget_s += t.budget_s;
            layers.steps.add(t.steps);
            busy_s += t.busy_s;
            offered_s += t.offered_s;
            tally.record((t.rows != out.rows || t.counts != out.counts).then(|| {
                format!("cycle {cycle}: traced replay rows or counts differ from the untraced rows")
            }));
            tally.merge(t.tally);
            for rec in t.recorders {
                layers.record(rec, true);
            }
        }
        tally.merge(out.tally);
        load.merge(out.load);
        cycle += 1;
        if window.elapsed().as_secs_f64() >= run.seconds && (run.trace || load.enough()) {
            break;
        }
    }
    let wall_s = window.elapsed().as_secs_f64();
    let peak = crate::procfs::peak_rss_bytes().unwrap_or(0);
    layers.busy_frac = busy_s / offered_s;
    drop(traced_store);
    layers.store_open_ms = time_open(&traced_dir, tally);
    (load, wall_s, setup_s, peak)
}

/// `Store::open` (log replay) on a warm store directory, ms.
pub fn time_open(dir: &Path, tally: &mut Tally) -> f64 {
    let start = Instant::now();
    let opened = Store::open(dir);
    let ms = ms_since(start);
    tally.record(
        opened
            .err()
            .map(|e| format!("reopen {}: {e}", dir.display())),
    );
    ms
}
