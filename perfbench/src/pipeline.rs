//! The traced per-point path every workload replays, and the helpers
//! the workloads share.
//!
//! Untraced, the workloads call the program as a user does
//! (`batch::run_file_with`, a server round trip). Traced, the benchmark
//! replays the same steps through the layers' public functions (the
//! steps of `batch::run_point_cached`: key, store lookup, engine build,
//! prepare, step loop, probes, codec, JSONL) with a span around each
//! call. The replay's rows must equal the untraced rows byte for byte.

use bftbcast::batch::{self, BatchReport, PointResult, ProbeResult};
use bftbcast::cache;
use bftbcast::sim::engine::EngineOutcome;
use bftbcast::{PointSpec, ScenarioError, ScenarioFile};
use bftbcast_store::Store;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use crate::metrics::{Layers, Tally};
use crate::trace::Recorder;

/// Exact work counts of one point's outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Simulated messages: copies sent (counting, crash), messages
    /// (rbc), data + NACK frames (slot); 0 for agreement.
    pub msgs: u64,
    /// Waves (counting, crash, rbc) or rounds (slot).
    pub waves: u64,
    /// Bits on the wire (rbc only).
    pub wire_bits: u64,
}

impl Counts {
    /// The counts an outcome reports.
    pub fn of(outcome: &EngineOutcome) -> Counts {
        match outcome {
            EngineOutcome::Counting(o) => Counts {
                msgs: o.good_copies_sent + o.source_copies_sent,
                waves: o.waves as u64,
                wire_bits: 0,
            },
            EngineOutcome::Rbc(o) => Counts {
                msgs: o.messages,
                waves: o.waves,
                wire_bits: o.wire_bits,
            },
            EngineOutcome::Reactive(o) => Counts {
                msgs: o.data_transmissions + o.nack_transmissions,
                waves: o.rounds,
                wire_bits: 0,
            },
            EngineOutcome::Agreement(_) => Counts::default(),
        }
    }

    /// Element-wise sum.
    pub fn add(&mut self, other: Counts) {
        self.msgs += other.msgs;
        self.waves += other.waves;
        self.wire_bits += other.wire_bits;
    }
}

/// The guarantee the paper (or the RBC literature) makes for a point,
/// checked on its outcome: protocol B at m = 2·m0 is reliable against
/// a locally bounded adversary, and an RBC run with at most t
/// Byzantine nodes delivers at every good node. Other engines carry no
/// such guarantee for arbitrary parameters and pass.
pub fn guarantee_holds(file: &ScenarioFile, outcome: &EngineOutcome) -> bool {
    match (file.engine.name(), outcome) {
        ("counting", EngineOutcome::Counting(o)) => o.is_reliable(),
        (_, EngineOutcome::Rbc(o)) => o.is_reliable(),
        _ => true,
    }
}

/// Step-loop accounting of traced points. Every traced point adds its
/// own share, so the time and the `step` calls behind
/// `sim.step_us_per_wave` always cover the same points.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Steps {
    /// `step` calls.
    pub calls: u64,
    /// Seconds inside the step loop.
    pub seconds: f64,
    /// Step-loop seconds of RBC points.
    pub rbc_seconds: f64,
    /// Messages of RBC points.
    pub rbc_msgs: u64,
}

impl Steps {
    /// Element-wise sum.
    pub fn add(&mut self, other: Steps) {
        self.calls += other.calls;
        self.seconds += other.seconds;
        self.rbc_seconds += other.rbc_seconds;
        self.rbc_msgs += other.rbc_msgs;
    }
}

/// The traced replay of one point of `file` through `store`, the steps
/// of `batch::run_point_cached` with a span around each. Adds the point's
/// step loop to `steps`. Returns the point's JSONL row, its outcome and
/// whether the store answered.
pub fn traced_point(
    rec: &mut Recorder,
    file: &ScenarioFile,
    point: &PointSpec,
    store: &Store,
    steps: &mut Steps,
) -> Result<(String, EngineOutcome, bool), ScenarioError> {
    let key = rec.span("cache.key", |_| {
        cache::point_key(file.engine, point, &file.probes)
    });
    let mut computed: Option<PointResult> = None;
    let lookup = rec.enter("store.get");
    let answer = store.get_or_compute(key, || -> Result<Vec<u8>, ScenarioError> {
        let mut engine = rec.span("sim.build", |_| batch::build_engine(file.engine, point))?;
        rec.span("sim.prepare", |_| engine.prepare());
        let id = rec.enter("sim.step");
        let mut calls = 0;
        while engine.step() {
            calls += 1;
        }
        rec.exit(id);
        let seconds = rec.spans()[id].duration().as_secs_f64();
        let result = rec.span("sim.probes", |_| {
            let grid = engine.topology().grid();
            let probes = file
                .probes
                .iter()
                .filter_map(|&(x, y)| {
                    let node = grid.id_at(x, y);
                    engine
                        .probe(node)
                        .map(|probe| ProbeResult { x, y, node, probe })
                })
                .collect();
            PointResult {
                point: point.label.clone(),
                outcome: engine.outcome(),
                probes,
            }
        });
        steps.add(Steps {
            calls,
            seconds,
            ..Steps::default()
        });
        if let EngineOutcome::Rbc(o) = &result.outcome {
            steps.rbc_seconds += seconds;
            steps.rbc_msgs += o.messages;
        }
        let bytes = rec.span("cache.encode", |_| cache::encode_result(&result));
        // Freeing a large topology is real work; keep it out of the
        // store's self time.
        rec.span("sim.drop", |_| drop(engine));
        computed = Some(result);
        Ok(bytes)
    });
    rec.exit(lookup);
    let (bytes, hit) = answer?;
    let result = match computed {
        Some(result) => {
            // The lookup span's self time is the store's share of a
            // miss: index probe plus the log append.
            rec.rename(lookup, "store.put");
            result
        }
        None => {
            let mut result = rec
                .span("cache.decode", |_| cache::decode_result(&bytes))
                .ok_or_else(|| ScenarioError::Invalid {
                    what: "store".to_string(),
                    message: format!("corrupt outcome-store entry for key {key:016x}"),
                })?;
            result.point = point.label.clone();
            result
        }
    };
    let outcome = result.outcome.clone();
    let report = BatchReport {
        name: file.name.clone(),
        engine: file.engine,
        results: vec![result],
        cache_hits: usize::from(hit),
        cache_misses: usize::from(!hit),
    };
    let row = rec.span("batch.jsonl", |_| report.jsonl());
    Ok((row, outcome, hit))
}

/// Runs `f` over `0..n` on `threads` closed-loop load threads, each
/// taking the next index when its previous call returns. Results come
/// back in index order, with each thread's recorder when traced.
pub fn fan_out<T: Send>(
    n: usize,
    threads: usize,
    epoch: Option<Instant>,
    f: impl Fn(usize, Option<&mut Recorder>) -> T + Sync,
) -> (Vec<T>, Vec<Recorder>) {
    let next = AtomicUsize::new(0);
    let mut results = Vec::with_capacity(n);
    let mut recorders = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut rec = epoch.map(Recorder::new);
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        out.push((i, f(i, rec.as_mut())));
                    }
                    (out, rec)
                })
            })
            .collect();
        for handle in handles {
            let (out, rec) = handle.join().expect("load thread panicked");
            results.extend(out);
            recorders.extend(rec);
        }
    });
    results.sort_by_key(|(i, _)| *i);
    (results.into_iter().map(|(_, t)| t).collect(), recorders)
}

/// The determinism self-check. `texts` (a fixed slice of the
/// workload's inputs) runs twice, each time cold then warm through a
/// fresh store on the traced path; both passes must give identical
/// rows, exact counts, step calls and hit ratios, which become the
/// run's exact-count metrics. `other` (the same slice under another
/// seed) must differ from `texts`.
pub fn determinism(
    texts: &[String],
    other: &[String],
    threads: usize,
    tally: &mut Tally,
    layers: &mut Layers,
) {
    tally.check(if texts == other {
        vec!["two seeds generated the same inputs".to_string()]
    } else {
        Vec::new()
    });
    let mut files = Vec::new();
    for text in texts {
        match ScenarioFile::parse(text) {
            Ok(file) => files.push(file),
            Err(e) => tally.record(Some(format!("generated file rejected: {e}"))),
        }
    }
    let work: Vec<(usize, PointSpec)> = files
        .iter()
        .enumerate()
        .flat_map(|(f, file)| file.points().into_iter().map(move |p| (f, p)))
        .collect();
    let epoch = Instant::now();
    let mut passes = Vec::new();
    for _ in 0..2 {
        let store = Store::in_memory();
        let mut rows = Vec::new();
        let (mut counts, mut rbc, mut calls) = (Counts::default(), Counts::default(), 0);
        for class in ["request.cold", "request.warm"] {
            let (answers, recorders) = fan_out(work.len(), threads, Some(epoch), |i, rec| {
                let rec = rec.expect("traced");
                let (f, point) = &work[i];
                let mut steps = Steps::default();
                let answer = rec.span(class, |rec| {
                    traced_point(rec, &files[*f], point, &store, &mut steps)
                });
                (answer.map_err(|e| e.to_string()), steps)
            });
            for rec in recorders {
                layers.record(rec, false);
            }
            for (answer, steps) in answers {
                layers.steps.add(steps);
                match answer {
                    Ok((row, outcome, _)) => {
                        let c = Counts::of(&outcome);
                        if class == "request.cold" {
                            counts.add(c);
                            calls += steps.calls;
                            if matches!(outcome, EngineOutcome::Rbc(_)) {
                                rbc.add(c);
                            }
                        }
                        rows.push(Ok(row));
                    }
                    Err(e) => rows.push(Err(e)),
                }
            }
        }
        let stats = store.stats();
        let ratio = stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64;
        passes.push((rows, counts, rbc, calls, ratio));
    }
    let second = passes.pop().expect("two passes");
    let failures: Vec<String> = second
        .0
        .iter()
        .filter_map(|r| r.as_ref().err().cloned())
        .collect();
    tally.check(failures);
    tally.check(if passes[0] == second {
        Vec::new()
    } else {
        vec!["two runs of the same inputs gave different rows or exact counts".to_string()]
    });
    let (_, counts, rbc, calls, ratio) = second;
    layers.counts = counts;
    layers.rbc_counts = rbc;
    layers.step_calls = calls;
    layers.hit_ratio = ratio;
}

#[cfg(test)]
mod tests {
    use super::*;
    use bftbcast::BatchOptions;

    #[test]
    fn traced_replay_matches_the_batch_runner_cold_and_warm() {
        let file = ScenarioFile::parse(&crate::gen::rbc_cycle(3, 0)[0]).unwrap();
        let (plain, traced) = (Store::in_memory(), Store::in_memory());
        let options = BatchOptions {
            jobs: Some(2),
            store: Some(&plain),
        };
        let mut rec = Recorder::new(Instant::now());
        let mut steps = Steps::default();
        for expect_hit in [false, true] {
            let report = batch::run_file_with(&file, &options).unwrap();
            assert_eq!(report.cache_hits, if expect_hit { 3 } else { 0 });
            let mut rows = String::new();
            for (point, result) in file.points().iter().zip(&report.results) {
                let (row, outcome, hit) =
                    traced_point(&mut rec, &file, point, &traced, &mut steps).unwrap();
                assert_eq!(hit, expect_hit);
                assert_eq!(Counts::of(&outcome), Counts::of(&result.outcome));
                assert!(guarantee_holds(&file, &outcome), "{row}");
                rows.push_str(&row);
            }
            assert_eq!(report.jsonl(), rows);
        }
        assert!(steps.calls > 0 && steps.rbc_msgs > 0);
        let names: Vec<&str> = rec.spans().iter().map(|s| s.name).collect();
        for name in ["store.put", "store.get", "sim.step", "cache.decode"] {
            assert!(names.contains(&name), "{name} missing: {names:?}");
        }
        // The accounting covers exactly the step loops the spans time.
        let timed = crate::trace::seconds_in(rec.spans(), "sim.step");
        assert!((timed - steps.seconds).abs() < 1e-12);
        assert!(steps.rbc_seconds <= steps.seconds);
    }
}
