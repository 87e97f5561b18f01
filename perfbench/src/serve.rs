//! serve-mix: an in-process `Server` on loopback over a file-backed
//! store, driven by `nproc` closed-loop clients (the real callers —
//! scripts and the federation coordinator — wait for each reply).
//!
//! Each client repeats a triple of requests until the window closes:
//!
//! 1. cold: `submit` a new single-point scenario, then `results`
//!    (engine run + store put);
//! 2. warm: resubmit the same text, then `results` (store hit + decode);
//!    the rows must equal the cold rows byte for byte;
//! 3. report: a `report` request for a scenario of the warm pool, whose
//!    map figure the set-up already rendered (store hits + SVG render).
//!
//! One warm resubmit per cold submit is the pattern of
//! `scripts/smoke_serve.sh` and `scripts/chaos_serve.sh`, and one report
//! per scenario that of `scripts/gen_figures.sh`. How real traffic mixes
//! the three classes is not known; the 1:1:1 mix is an assumption.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use bftbcast::json::Json;
use bftbcast::report::{self, ReportSpec};
use bftbcast::{run_file, run_file_with, BatchOptions, ScenarioFile};
use bftbcast_server::client::{self, ReportParams};
use bftbcast_server::Server;
use bftbcast_store::Store;

use crate::gen;
use crate::metrics::{ms_since, Layers, Load, Tally};
use crate::pipeline::{self, fan_out, guarantee_holds, Counts, Steps};
use crate::procfs::Usage;
use crate::sweep::time_open;
use crate::trace::Recorder;
use crate::Run;

/// Requests of the determinism pass (two of each engine).
const DETERMINISM_REQUESTS: u64 = 10;

fn pool_texts(seed: u64) -> Vec<String> {
    (0..gen::POOL).map(|k| gen::pool_point(seed, k)).collect()
}

/// A running server and the thread serving it.
pub struct Running {
    /// `host:port`.
    pub addr: String,
    handle: JoinHandle<std::io::Result<()>>,
}

impl Running {
    /// Binds on an ephemeral loopback port and serves on a thread.
    pub fn start(store: Store) -> std::io::Result<Running> {
        let server = Server::bind("127.0.0.1:0", Arc::new(store), None)?;
        let addr = server.local_addr().to_string();
        let handle = std::thread::spawn(move || server.serve());
        Ok(Running { addr, handle })
    }

    /// Asks the server to stop and waits for it; `Some` on failure.
    pub fn stop(self) -> Option<String> {
        let ack = client::shutdown(&self.addr);
        let joined = self.handle.join();
        match (ack, joined) {
            (Ok(_), Ok(Ok(()))) => None,
            (ack, joined) => Some(format!("server shutdown: {ack:?} / {joined:?}")),
        }
    }
}

/// Writes the pool's plain and map results into `store`.
fn warm(store: &Store, pool: &[String]) -> Result<(), String> {
    let options = BatchOptions {
        jobs: None,
        store: Some(store),
    };
    for text in pool {
        let file = ScenarioFile::parse(text).map_err(|e| e.to_string())?;
        run_file_with(&file, &options).map_err(|e| e.to_string())?;
        report::render_scenario(&file, &ReportSpec::default(), &options)
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Writes the pool's results into the store at `dir`, as a previous
/// server process would have.
fn warm_log(dir: &Path, pool: &[String]) -> Result<(), String> {
    let store = Store::open(dir).map_err(|e| e.to_string())?;
    warm(&store, pool)?;
    store.sync().map_err(|e| e.to_string())
}

fn trailer_u64(trailer: &str, key: &str) -> Option<u64> {
    Json::parse(trailer).ok()?.get(key)?.as_u64()
}

/// `submit` then `results`: the rows (JSONL, newline-terminated) and
/// the trailer's cache hits.
fn submit_and_collect(
    addr: &str,
    text: &str,
    mut rec: Option<&mut Recorder>,
) -> Result<(String, u64), String> {
    let job = match rec.as_deref_mut() {
        Some(rec) => rec.span("server.submit", |_| client::submit(addr, text)),
        None => client::submit(addr, text),
    }
    .map_err(|e| format!("submit: {e}"))?;
    let (rows, trailer) = match rec {
        Some(rec) => rec.span("server.results", |_| client::results(addr, &job)),
        None => client::results(addr, &job),
    }
    .map_err(|e| format!("results: {e}"))?;
    let hits = trailer_u64(&trailer, "cache_hits").ok_or(format!("bad trailer {trailer}"))?;
    let mut body = rows.join("\n");
    body.push('\n');
    Ok((body, hits))
}

/// `report` for a pool scenario: the SVG and the trailer's misses.
fn report_request(
    addr: &str,
    text: &str,
    rec: Option<&mut Recorder>,
) -> Result<(String, u64), String> {
    let params = ReportParams::default();
    let (figures, trailer) = match rec {
        Some(rec) => rec.span("server.report", |_| client::report(addr, text, &params)),
        None => client::report(addr, text, &params),
    }
    .map_err(|e| format!("report: {e}"))?;
    let misses = trailer_u64(&trailer, "cache_misses").ok_or(format!("bad trailer {trailer}"))?;
    match figures.as_slice() {
        [(_, svg)] => Ok((svg.clone(), misses)),
        _ => Err(format!("report returned {} figures", figures.len())),
    }
}

/// A reply's payload (rows or SVG) and its trailer count, or why the
/// request failed.
type Reply = Result<(String, u64), String>;

/// Times one request, inside a span named `class` when traced.
fn timed(
    class: &'static str,
    rec: Option<&mut Recorder>,
    f: impl FnOnce(Option<&mut Recorder>) -> Reply,
) -> (f64, Reply) {
    let start = Instant::now();
    let out = match rec {
        Some(rec) => rec.span(class, |rec| f(Some(rec))),
        None => f(None),
    };
    (ms_since(start), out)
}

/// One client triple's record: latency (ms) and reply per request.
struct Triple {
    index: u64,
    cold: (f64, Reply),
    warm: (f64, Reply),
    report: (f64, Reply),
    /// Traced only: replay check failures, server shares (ms) and the
    /// replay's step loops.
    replay_failures: Vec<String>,
    server_own_ms: Vec<f64>,
    steps: Steps,
}

/// One triple against `addr`; with a recorder, each server round trip
/// is followed by an in-process replay of the layers below it.
fn triple(
    addr: &str,
    seed: u64,
    index: u64,
    pool: &[String],
    mut rec: Option<&mut Recorder>,
    replay: Option<&Store>,
) -> Triple {
    let text = gen::serve_point(seed, index);
    let report_text = &pool[(index % gen::POOL) as usize];
    let mut replay_failures = Vec::new();
    let mut server_own_ms = Vec::new();
    let mut steps = Steps::default();
    if let Some(rec) = rec.as_deref_mut() {
        // Connection set-up and a round trip through the connection
        // thread, outside the timed requests.
        if let Err(e) = rec.span("server.conn", |_| client::ping(addr)) {
            replay_failures.push(format!("ping: {e}"));
        }
    }
    let cold = timed("request.cold", rec.as_deref_mut(), |rec| {
        submit_and_collect(addr, &text, rec)
    });
    let warm = timed("request.warm", rec.as_deref_mut(), |rec| {
        submit_and_collect(addr, &text, rec)
    });
    let report = timed("request.report", rec.as_deref_mut(), |rec| {
        report_request(addr, report_text, rec)
    });
    if let (Some(rec), Some(replay)) = (rec, replay) {
        for (round_trip_ms, expected) in [(cold.0, &cold.1), (warm.0, &warm.1)] {
            let first = rec.spans().len();
            let outcome = rec.span("request.replay", |rec| -> Result<String, String> {
                let file = rec
                    .span("scenario_file.parse", |_| ScenarioFile::parse(&text))
                    .map_err(|e| e.to_string())?;
                let point = file.points().remove(0);
                pipeline::traced_point(rec, &file, &point, replay, &mut steps)
                    .map(|(row, _, _)| row)
                    .map_err(|e| e.to_string())
            });
            let replay_ms = rec.spans()[first].duration().as_secs_f64() * 1e3;
            server_own_ms.push(round_trip_ms - replay_ms);
            match (outcome, expected) {
                (Ok(row), Ok((served, _))) if &row == served => {}
                (Ok(_), Ok(_)) => replay_failures.push(format!("{text}: replayed row differs")),
                (Err(e), _) => replay_failures.push(format!("replay: {e}")),
                (_, Err(_)) => {}
            }
        }
        let svg = rec.span("request.replay", |rec| -> Result<String, String> {
            let file = rec
                .span("scenario_file.parse", |_| ScenarioFile::parse(report_text))
                .map_err(|e| e.to_string())?;
            let options = BatchOptions {
                jobs: Some(1),
                store: Some(replay),
            };
            let out = rec
                .span("report.render", |_| {
                    report::render_scenario(&file, &ReportSpec::default(), &options)
                })
                .map_err(|e| e.to_string())?;
            Ok(out
                .figures
                .into_iter()
                .next()
                .map(|f| f.svg)
                .unwrap_or_default())
        });
        match (svg, &report.1) {
            (Ok(svg), Ok((served, _))) if &svg == served => {}
            (Ok(_), Ok(_)) => replay_failures.push("replayed report differs".to_string()),
            (Err(e), _) => replay_failures.push(format!("report replay: {e}")),
            (_, Err(_)) => {}
        }
    }
    Triple {
        index,
        cold,
        warm,
        report,
        replay_failures,
        server_own_ms,
        steps,
    }
}

/// Runs the clients for `seconds`; each finishes the triple it
/// started.
fn clients(
    run: &Run,
    addr: &str,
    pool: &[String],
    next: &AtomicU64,
    seconds: f64,
    replay: Option<&Store>,
    epoch: Option<Instant>,
) -> (Vec<Triple>, Vec<Recorder>) {
    let start = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..run.threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut rec = epoch.map(Recorder::new);
                    let mut out = Vec::new();
                    while start.elapsed().as_secs_f64() < seconds {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        out.push(triple(addr, run.seed, index, pool, rec.as_mut(), replay));
                    }
                    (out, rec)
                })
            })
            .collect();
        let mut triples = Vec::new();
        let mut recorders = Vec::new();
        for h in handles {
            let (out, rec) = h.join().expect("client thread panicked");
            triples.extend(out);
            recorders.extend(rec);
        }
        (triples, recorders)
    })
}

/// Folds triples into the load and tally; returns the cold texts'
/// served rows for the in-process comparison.
fn account(
    triples: Vec<Triple>,
    load: &mut Load,
    tally: &mut Tally,
    layers: &mut Layers,
) -> Vec<(u64, String)> {
    let mut cold_rows = Vec::new();
    for t in triples {
        load.cold.push(t.cold.0);
        load.warm.push(t.warm.0);
        load.report.push(t.report.0);
        load.points += 3;
        match (&t.cold.1, &t.warm.1) {
            (Ok((cold, _)), Ok((warm, hits))) => {
                tally.record(None);
                tally.record(if warm != cold {
                    Some(format!(
                        "request {}: warm rows differ from cold rows",
                        t.index
                    ))
                } else if *hits != 1 {
                    Some(format!(
                        "request {}: warm resubmit missed the store",
                        t.index
                    ))
                } else {
                    None
                });
                cold_rows.push((t.index, cold.clone()));
            }
            (cold, warm) => {
                tally.record(
                    cold.as_ref()
                        .err()
                        .map(|e| format!("request {}: cold: {e}", t.index)),
                );
                tally.record(Some(format!(
                    "request {}: warm: {:?}",
                    t.index,
                    warm.as_ref().err()
                )));
            }
        }
        tally.record(match &t.report.1 {
            Ok((svg, 0)) if svg.starts_with("<svg") => None,
            Ok((_, misses)) => Some(format!("report {}: {misses} misses or no SVG", t.index)),
            Err(e) => Some(format!("report {}: {e}", t.index)),
        });
        for failure in t.replay_failures {
            tally.record(Some(failure));
        }
        layers.server_own_ms.extend(t.server_own_ms);
        layers.steps.add(t.steps);
    }
    cold_rows
}

/// Runs serve-mix.
pub fn run(run: &Run, tally: &mut Tally, layers: &mut Layers) -> (Load, f64, f64, u64) {
    let pool = pool_texts(run.seed);

    // Set-up, repeated: warm log from a previous process, log
    // recovery, bind, and one warm pass over the pool. The last
    // repetition's server is kept.
    let mut setups = Vec::new();
    let mut kept: Option<(Running, std::path::PathBuf)> = None;
    for rep in 0..crate::SETUP_REPS * 3 {
        if let Some((server, _)) = kept.take() {
            tally.record(server.stop());
        }
        let start = Instant::now();
        let dir = run.scratch.join(format!("serve-{rep}"));
        let _ = std::fs::remove_dir_all(&dir);
        if let Err(e) = warm_log(&dir, &pool) {
            tally.record(Some(format!("warm log: {e}")));
        }
        let store = Store::open(&dir).expect("reopen the warm store");
        let server = Running::start(store).expect("bind the server");
        for text in &pool {
            let problem = match (
                submit_and_collect(&server.addr, text, None),
                report_request(&server.addr, text, None),
            ) {
                (Ok((_, 1)), Ok((_, 0))) => None,
                (a, b) => Some(format!("warm-up: {a:?} / {b:?}")),
            };
            tally.record(problem);
        }
        setups.push(start.elapsed().as_secs_f64());
        kept = Some((server, dir));
    }
    let (server, dir) = kept.expect("at least one set-up");
    let setup_s = crate::stats::median(&setups).expect("set-up ran");

    let slice: Vec<String> = (0..DETERMINISM_REQUESTS)
        .map(|i| gen::serve_point(run.seed, i))
        .collect();
    let other: Vec<String> = (0..DETERMINISM_REQUESTS)
        .map(|i| gen::serve_point(run.seed.wrapping_add(1), i))
        .collect();
    pipeline::determinism(&slice, &other, run.threads, tally, layers);

    // Traced runs replay against a store warmed like the server's.
    let replay_dir = run.scratch.join("serve-replay");
    let replay_store = run.trace.then(|| {
        let _ = std::fs::remove_dir_all(&replay_dir);
        if let Err(e) = warm_log(&replay_dir, &pool) {
            tally.record(Some(format!("replay warm log: {e}")));
        }
        Store::open(&replay_dir).expect("open the replay store")
    });

    tally.record(
        (!crate::procfs::reset_peak_rss()).then(|| "cannot reset the peak-RSS mark".to_string()),
    );
    let next = AtomicU64::new(0);
    let window = Instant::now();
    let mut load = Load::default();
    let mut cold_rows = Vec::new();
    if let Some(replay) = &replay_store {
        // Untraced and traced blocks alternate; the untraced blocks'
        // round trips are the baseline of the tracing overhead.
        let epoch = Instant::now();
        let block = run.seconds / 4.0;
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        for b in 0..4 {
            let traced_block = b % 2 == 1;
            let (start, before) = (Instant::now(), Usage::now());
            let (triples, recorders) = clients(
                run,
                &server.addr,
                &pool,
                &next,
                block,
                traced_block.then_some(replay),
                traced_block.then_some(epoch),
            );
            let latencies = triples
                .iter()
                .flat_map(|t| [t.cold.0, t.warm.0, t.report.0]);
            if traced_block {
                layers.window_budget_s += start.elapsed().as_secs_f64() * run.threads as f64;
                traced.extend(latencies);
                for rec in recorders {
                    layers.record(rec, true);
                }
            } else {
                layers.usage = layers.usage.plus(Usage::now().since(before));
                layers.usage_points += triples.len() as u64;
                plain.extend(latencies);
            }
            cold_rows.extend(account(triples, &mut load, tally, layers));
        }
        layers.untraced_s = plain.iter().sum::<f64>() / plain.len().max(1) as f64;
        layers.traced_s = traced.iter().sum::<f64>() / traced.len().max(1) as f64;
    } else {
        // The window runs on, a second at a time, until the p90 has the
        // samples it needs.
        let mut seconds = run.seconds;
        while load.cold.len() < crate::stats::min_samples_for(0.9) {
            let (triples, _) = clients(run, &server.addr, &pool, &next, seconds, None, None);
            cold_rows.extend(account(triples, &mut load, tally, layers));
            seconds = 1.0;
        }
    }
    let wall_s = window.elapsed().as_secs_f64();
    let peak = crate::procfs::peak_rss_bytes().unwrap_or(0);
    load.point = load.cold.clone();
    load.points_wall_s = wall_s;
    load.requests_wall_s = wall_s;
    let in_requests: f64 = [&load.cold, &load.warm, &load.report]
        .into_iter()
        .flatten()
        .sum();
    layers.busy_frac = in_requests / 1e3 / (wall_s * run.threads as f64);
    tally.record(server.stop());

    // Every served cold row must equal an in-process run of its text.
    let (checks, _) = fan_out(cold_rows.len(), run.threads, None, |i, _| {
        let (index, served) = &cold_rows[i];
        let text = gen::serve_point(run.seed, *index);
        let file = ScenarioFile::parse(&text).map_err(|e| e.to_string())?;
        let report = run_file(&file).map_err(|e| e.to_string())?;
        if report.jsonl() != *served {
            return Err(format!("request {index}: served rows differ from run_file"));
        }
        let outcome = &report.results[0].outcome;
        if !guarantee_holds(&file, outcome) {
            return Err(format!("request {index}: guarantee violated"));
        }
        Ok(Counts::of(outcome).msgs)
    });
    for check in checks {
        match check {
            Ok(msgs) => {
                load.msgs += msgs;
                tally.record(None);
            }
            Err(e) => tally.record(Some(e)),
        }
    }
    layers.store_open_ms = time_open(&dir, tally);
    (load, wall_s, setup_s, peak)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_triple_counts_every_step_it_times() {
        let pool = pool_texts(5);
        let (served, replay) = (Store::in_memory(), Store::in_memory());
        warm(&served, &pool).unwrap();
        warm(&replay, &pool).unwrap();
        let server = Running::start(served).unwrap();
        let mut rec = Recorder::new(Instant::now());
        let triples = vec![triple(
            &server.addr,
            5,
            0,
            &pool,
            Some(&mut rec),
            Some(&replay),
        )];
        let (mut load, mut tally, mut layers) =
            (Load::default(), Tally::default(), Layers::default());
        account(triples, &mut load, &mut tally, &mut layers);
        layers.record(rec, true);
        assert_eq!(server.stop(), None);
        assert_eq!(tally.failed, 0, "{:?}", tally.messages);

        let timed: f64 = layers.spans.total["sim.step"].iter().sum();
        assert!(layers.steps.calls > 0);
        assert!((timed - layers.steps.seconds).abs() < 1e-12);
        let per_wave = layers
            .metrics(&tally)
            .into_iter()
            .find(|m| m.name == "sim.step_us_per_wave")
            .unwrap()
            .value;
        let expected = timed * 1e6 / layers.steps.calls as f64;
        assert!((per_wave - expected).abs() <= 1e-9 * expected);
    }
}
