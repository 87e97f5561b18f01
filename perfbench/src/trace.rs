//! In-memory spans recorded around the benchmark's calls into each
//! layer. Nothing here reaches into the program: a span brackets one
//! public call, and nesting comes from the order of `enter`/`exit`.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::{Duration, Instant};

/// One closed (or still open) interval on one load thread.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer operation, e.g. `sim.step`.
    pub name: &'static str,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Offset from the recorder's epoch.
    pub start: Duration,
    /// Offset from the recorder's epoch (equal to `start` while open).
    pub end: Duration,
}

impl Span {
    /// Wall time between enter and exit.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Spans of one thread, in enter order.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// An empty recorder whose offsets count from `epoch`.
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start: now,
            end: now,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end = self.epoch.elapsed();
    }

    /// Renames span `id`, for spans whose kind is known only once the
    /// call returns (a store lookup that turned out to be a miss).
    pub fn rename(&mut self, id: usize, name: &'static str) {
        self.spans[id].name = name;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.enter(name);
        let out = f(self);
        self.exit(id);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Gives up the recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let parent = &spans[p];
            let start = span.start.max(parent.start);
            let end = span.end.min(parent.end);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort();
            let mut covered = Duration::ZERO;
            let mut reach = Duration::ZERO;
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                }
                reach = reach.max(end);
            }
            span.duration().saturating_sub(covered)
        })
        .collect()
}

/// Total duration of the spans named `name`, in seconds.
pub fn seconds_in(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration().as_secs_f64())
        .sum()
}

/// Per span name: every duration and every self time, in seconds.
#[derive(Debug, Default)]
pub struct Summary {
    /// `name -> durations`.
    pub total: BTreeMap<&'static str, Vec<f64>>,
    /// `name -> self times`.
    pub own: BTreeMap<&'static str, Vec<f64>>,
}

impl Summary {
    /// Adds one recorder's spans.
    pub fn add(&mut self, spans: &[Span]) {
        for (span, own) in spans.iter().zip(self_times(spans)) {
            self.total
                .entry(span.name)
                .or_default()
                .push(span.duration().as_secs_f64());
            self.own
                .entry(span.name)
                .or_default()
                .push(own.as_secs_f64());
        }
    }

    /// Sum of the self times of every span that is a layer span, i.e.
    /// not a `request.*` envelope: the thread time some layer accounts
    /// for.
    pub fn layer_seconds(&self) -> f64 {
        self.own
            .iter()
            .filter(|(name, _)| !name.starts_with("request."))
            .map(|(_, v)| v.iter().sum::<f64>())
            .sum()
    }
}

/// Writes spans as JSON lines (`thread`, `id`, `parent`, `name`,
/// `start_ns`, `end_ns`).
pub fn write_jsonl(out: &mut impl Write, thread: usize, spans: &[Span]) -> io::Result<()> {
    for (id, span) in spans.iter().enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"thread\":{thread},\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            span.name,
            span.start.as_nanos(),
            span.end.as_nanos()
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            start: Duration::from_micros(start),
            end: Duration::from_micros(end),
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("request.cold", None, 0, 100),
            span("cache.key", Some(0), 10, 20),
            span("store.get_or_compute", Some(0), 30, 90),
            span("sim.step", Some(2), 40, 70),
            // A child that overlaps its sibling counts once.
            span("sim.probes", Some(2), 60, 80),
        ];
        let own: Vec<u64> = self_times(&spans)
            .iter()
            .map(|d| d.as_micros() as u64)
            .collect();
        assert_eq!(own, vec![30, 10, 20, 30, 20]);
    }

    #[test]
    fn child_outside_its_parent_is_clipped() {
        let spans = vec![span("a", None, 10, 20), span("b", Some(0), 15, 40)];
        let own = self_times(&spans);
        assert_eq!(own[0], Duration::from_micros(5));
        assert_eq!(own[1], Duration::from_micros(25));
    }

    #[test]
    fn recorder_nests_by_enter_order() {
        let mut rec = Recorder::new(Instant::now());
        let outer = rec.enter("request.cold");
        rec.span("cache.key", |rec| rec.span("cache.encode", |_| ()));
        rec.exit(outer);
        let parents: Vec<Option<usize>> = rec.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(1)]);
        let mut summary = Summary::default();
        summary.add(rec.spans());
        assert_eq!(summary.total["cache.key"].len(), 1);
        let layer = summary.layer_seconds();
        let request = rec.spans()[0].duration().as_secs_f64();
        assert!(layer <= request + 1e-9, "{layer} > {request}");
    }

    #[test]
    #[should_panic(expected = "innermost")]
    fn closing_out_of_order_panics() {
        let mut rec = Recorder::new(Instant::now());
        let a = rec.enter("a");
        let _b = rec.enter("b");
        rec.exit(a);
    }
}
