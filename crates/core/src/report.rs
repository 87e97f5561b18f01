//! The report layer: sweep results → paper-style SVG figures.
//!
//! Every output surface in this workspace speaks the same JSONL row
//! shape ([`crate::batch::BatchReport::jsonl`], the server's `results`
//! stream, captured files on disk). This module renders those rows as
//! the paper's two figure families:
//!
//! * **maps** — a [`GridMap`] heat map of one point's per-node probe
//!   tallies on the torus (Figure 2's corrupted-intake map), with the
//!   source and Byzantine cells styled and the scenario's declared
//!   `[probes]` cells called out by value in the caption;
//! * **charts** — a [`LineChart`] of one outcome field across the
//!   sweep (the `m ∈ (m0, 2m0)` flip region, reliability vs rate),
//!   one series per combination of the non-x axes.
//!
//! Rendering is fully deterministic: identical rows and spec produce
//! identical bytes, so figures are hash-pinned in CI exactly like the
//! Figure 2 numbers ([`figure_hash`]).
//!
//! Two entry points: [`render_scenario`] runs (or cache-replays,
//! through a [`BatchOptions`] store) a scenario file and renders it —
//! map figures re-run the sweep with probes expanded to **every** cell
//! so the heat map covers the torus; [`render_jsonl`] renders rows
//! captured earlier, inferring the torus dimensions from the probe
//! cells unless a [`MapDecor`] provides them.
//!
//! # Example
//!
//! ```
//! use bftbcast::report::{render_scenario, ReportSpec};
//! use bftbcast::{BatchOptions, ScenarioFile};
//!
//! let file = ScenarioFile::parse(concat!(
//!     "name = \"demo\"\n",
//!     "[topology]\nside = 15\nr = 1\n",
//!     "[faults]\nt = 1\nmf = 4\n",
//!     "[placement]\nkind = \"lattice\"\n",
//!     "[protocol]\nkind = \"starved\"\nm = 4\n",
//!     "[sweep]\nm = [2, 4, 8]\n",
//! ))
//! .unwrap();
//! // A sweep auto-selects a chart: coverage vs m, flipping at m0.
//! let out = render_scenario(&file, &ReportSpec::default(), &BatchOptions::default()).unwrap();
//! let figure = &out.figures[0];
//! assert_eq!(figure.name, "demo-chart");
//! assert!(figure.svg.starts_with("<svg"));
//! assert!(figure.svg.contains("coverage"));
//! ```

use bftbcast_viz::map::{CellStyle, GridMap};
use bftbcast_viz::LineChart;

use crate::batch::{run_file_with, BatchOptions};
use crate::json::Json;
use crate::scenario::{invalid, ScenarioError};
use crate::scenario_file::ScenarioFile;

/// Which figure family to render.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FigureKind {
    /// Decide from the data: a sweep renders a chart, a single point a
    /// map.
    #[default]
    Auto,
    /// A per-node heat map of one point ([`GridMap`]).
    Map,
    /// An outcome field across the sweep ([`LineChart`]).
    Chart,
}

impl FigureKind {
    /// The spec vocabulary's name for this kind.
    pub fn name(self) -> &'static str {
        match self {
            FigureKind::Auto => "auto",
            FigureKind::Map => "map",
            FigureKind::Chart => "chart",
        }
    }

    /// The inverse of [`FigureKind::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "auto" => FigureKind::Auto,
            "map" => FigureKind::Map,
            "chart" => FigureKind::Chart,
            _ => return None,
        })
    }
}

/// The probe fields a map can color by.
pub const MAP_FIELDS: &[&str] = &["intake", "tally_true", "tally_wrong", "decided_neighbors"];

/// What to render and how — the typed form of the CLI's `report`
/// flags and the server's `report` request fields.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportSpec {
    /// Figure family (default: decide from the data).
    pub figure: FigureKind,
    /// Map: the probe field to color by (one of [`MAP_FIELDS`],
    /// default `intake`). Chart: the outcome field to plot (default
    /// `coverage`, or `agreement` for the agreement engine).
    pub field: Option<String>,
    /// Chart: which sweep axis is the x axis (default: the first).
    pub x_axis: Option<String>,
    /// Chart: plot the x axis on a log10 scale (budget sweeps spanning
    /// decades). Points with a non-positive x are dropped by the
    /// renderer.
    pub log_x: bool,
    /// Map: which sweep point to render (index in sweep order).
    pub point: usize,
    /// Map: cell size in SVG user units.
    pub cell_px: u32,
}

impl Default for ReportSpec {
    fn default() -> Self {
        ReportSpec {
            figure: FigureKind::Auto,
            field: None,
            x_axis: None,
            log_x: false,
            point: 0,
            cell_px: 10,
        }
    }
}

impl ReportSpec {
    /// Reads the optional `figure` / `field` / `x` / `log_x` / `point`
    /// / `cell` fields of a protocol request object (absent fields keep
    /// their defaults) — the wire form of the server's `report`
    /// command.
    ///
    /// # Errors
    ///
    /// A user-facing description of the first mistyped field.
    pub fn from_json_fields(doc: &Json) -> Result<ReportSpec, String> {
        let mut spec = ReportSpec::default();
        if let Some(figure) = doc.get("figure") {
            let name = figure
                .as_str()
                .ok_or("\"figure\" must be a string (auto|map|chart)")?;
            spec.figure = FigureKind::from_name(name)
                .ok_or_else(|| format!("unknown figure {name:?} (auto|map|chart)"))?;
        }
        if let Some(field) = doc.get("field") {
            spec.field = Some(
                field
                    .as_str()
                    .ok_or("\"field\" must be a string")?
                    .to_string(),
            );
        }
        if let Some(x) = doc.get("x") {
            spec.x_axis = Some(x.as_str().ok_or("\"x\" must be a string")?.to_string());
        }
        if let Some(log_x) = doc.get("log_x") {
            spec.log_x = log_x.as_bool().ok_or("\"log_x\" must be a boolean")?;
        }
        if let Some(point) = doc.get("point") {
            spec.point = point
                .as_u64()
                .ok_or("\"point\" must be a non-negative integer")?
                as usize;
        }
        if let Some(cell) = doc.get("cell") {
            let cell = cell.as_u64().ok_or("\"cell\" must be a positive integer")?;
            if cell == 0 || cell > 64 {
                return Err("\"cell\" must lie in 1..=64".to_string());
            }
            spec.cell_px = cell as u32;
        }
        Ok(spec)
    }
}

/// One rendered figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    /// The figure's file stem, `<scenario-name>-<map|chart>`.
    pub name: String,
    /// The complete SVG document.
    pub svg: String,
}

/// A [`render_scenario`] result: the figures plus the run's cache
/// counters (a warm store answers with `cache_hits` equal to the point
/// count and renders without simulating).
#[derive(Debug, Clone)]
pub struct ReportOutput {
    /// The rendered figures (currently always exactly one).
    pub figures: Vec<Figure>,
    /// Points answered from the outcome store.
    pub cache_hits: usize,
    /// Points that ran an engine.
    pub cache_misses: usize,
}

/// Torus styling information a JSONL row stream cannot carry: the
/// dimensions, the source cell, the Byzantine cells, and the
/// scenario's declared probe cells (rendered as callouts). Built from
/// a scenario file by [`MapDecor::from_file`]; the pure-rows path
/// ([`render_jsonl`] with `None`) infers dimensions from the probe
/// cells and styles nothing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MapDecor {
    /// Torus width.
    pub width: u32,
    /// Torus height.
    pub height: u32,
    /// The base station's cell, styled gold with an `S`.
    pub source: Option<(u32, u32)>,
    /// Byzantine cells, styled black.
    pub bad: Vec<(u32, u32)>,
    /// Declared probe cells: marked `+` and listed by value in the
    /// caption (the Figure 2 goldens workflow).
    pub callouts: Vec<(u32, u32)>,
}

impl MapDecor {
    /// Styling information for one sweep point of a scenario file. The
    /// Byzantine cells come from actually building the point's
    /// placement; a placement that fails to build (it would also have
    /// failed the run) simply leaves them unstyled.
    pub fn from_file(file: &ScenarioFile, point: usize) -> MapDecor {
        let base = file.base();
        let mut decor = MapDecor {
            width: base.width,
            height: base.height,
            source: Some(base.source),
            bad: Vec::new(),
            callouts: file.probes.clone(),
        };
        let points = file.points();
        if let Some(spec) = points.get(point) {
            if let Ok(scenario) = spec.build_scenario() {
                let grid = scenario.grid();
                decor.source = Some({
                    let c = grid.coord_of(scenario.source());
                    (c.x, c.y)
                });
                decor.bad = scenario
                    .bad_nodes()
                    .iter()
                    .map(|&id| {
                        let c = grid.coord_of(id);
                        (c.x, c.y)
                    })
                    .collect();
            }
        }
        decor
    }
}

/// The stable content hash figures are pinned by in CI: FNV-1a 64 over
/// the SVG bytes (the same hash the outcome store keys with).
pub fn figure_hash(svg: &str) -> u64 {
    bftbcast_store::canon::fnv1a(svg.as_bytes())
}

/// One probe row, decoded from the JSONL shape.
struct ProbeRow {
    x: u32,
    y: u32,
    tally_true: u64,
    tally_wrong: u64,
    decided_neighbors: u64,
}

impl ProbeRow {
    fn field(&self, name: &str) -> u64 {
        match name {
            "intake" => self.tally_true + self.tally_wrong,
            "tally_true" => self.tally_true,
            "tally_wrong" => self.tally_wrong,
            "decided_neighbors" => self.decided_neighbors,
            _ => unreachable!("validated against MAP_FIELDS"),
        }
    }
}

/// One result row, decoded from the JSONL shape.
struct Row {
    point: Vec<(String, String)>,
    outcome: Json,
    probes: Vec<ProbeRow>,
}

/// Decodes a JSONL row stream into `(scenario name, rows)`.
fn parse_rows(text: &str) -> Result<(String, Vec<Row>), ScenarioError> {
    let mut name = String::from("rows");
    let mut rows = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let bad = |message: String| invalid("rows", format!("line {}: {message}", i + 1));
        let doc = Json::parse(line).map_err(|e| bad(format!("malformed JSON: {e}")))?;
        if rows.is_empty() {
            if let Some(n) = doc.get("scenario").and_then(Json::as_str) {
                name = n.to_string();
            }
        }
        let point = match doc.get("point") {
            Some(Json::Obj(fields)) => fields
                .iter()
                .map(|(axis, value)| {
                    let rendered = match value {
                        Json::Num(raw) => raw.clone(),
                        Json::Str(s) => s.clone(),
                        other => format!("{other:?}"),
                    };
                    (axis.clone(), rendered)
                })
                .collect(),
            _ => Vec::new(),
        };
        let outcome = doc
            .get("outcome")
            .cloned()
            .ok_or_else(|| bad("row lacks an \"outcome\" object".to_string()))?;
        let mut probes = Vec::new();
        if let Some(items) = doc.get("probes").and_then(Json::as_array) {
            for item in items {
                let cell = |key: &str| -> Result<u64, ScenarioError> {
                    item.get(key)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| bad(format!("probe entry lacks integer {key:?}")))
                };
                probes.push(ProbeRow {
                    x: cell("x")? as u32,
                    y: cell("y")? as u32,
                    tally_true: cell("tally_true")?,
                    tally_wrong: cell("tally_wrong")?,
                    decided_neighbors: cell("decided_neighbors")?,
                });
            }
        }
        rows.push(Row {
            point,
            outcome,
            probes,
        });
    }
    if rows.is_empty() {
        return Err(invalid("rows", "no result rows to render"));
    }
    Ok((name, rows))
}

/// `<scenario-name>-<kind>` with anything outside `[a-z0-9._-]`
/// flattened to `-` (the stem is a file name and a wire identifier).
fn figure_name(scenario: &str, kind: &str) -> String {
    let mut stem = String::with_capacity(scenario.len());
    for c in scenario.chars() {
        match c.to_ascii_lowercase() {
            c if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') => stem.push(c),
            _ => stem.push('-'),
        }
    }
    if stem.is_empty() {
        stem.push_str("scenario");
    }
    format!("{stem}-{kind}")
}

/// A one-line human summary of an outcome object, by `kind`.
fn outcome_caption(outcome: &Json) -> String {
    let field = |key: &str| -> String {
        match outcome.get(key) {
            Some(Json::Num(raw)) => raw.clone(),
            Some(Json::Bool(b)) => b.to_string(),
            _ => "?".to_string(),
        }
    };
    match outcome.get("kind").and_then(Json::as_str) {
        Some("counting") => format!(
            "outcome: accepted_true {}, waves {}, coverage {}",
            field("accepted_true"),
            field("waves"),
            field("coverage"),
        ),
        Some("reactive") => format!(
            "outcome: committed_true {}, rounds {}, coverage {}",
            field("committed_true"),
            field("rounds"),
            field("coverage"),
        ),
        Some("agreement") => format!(
            "outcome: members {}, validity {}, agreement {}",
            field("members"),
            field("validity"),
            field("agreement"),
        ),
        _ => "outcome: ?".to_string(),
    }
}

fn render_map(
    scenario: &str,
    rows: &[Row],
    spec: &ReportSpec,
    decor: Option<&MapDecor>,
) -> Result<Figure, ScenarioError> {
    let row = rows.get(spec.point).ok_or_else(|| {
        invalid(
            "point",
            format!("point {} is out of range ({} rows)", spec.point, rows.len()),
        )
    })?;
    let field = spec.field.as_deref().unwrap_or("intake");
    if !MAP_FIELDS.contains(&field) {
        return Err(invalid(
            "field",
            format!(
                "unknown map field {field:?} (known: {})",
                MAP_FIELDS.join(", ")
            ),
        ));
    }
    if row.probes.is_empty() {
        return Err(invalid(
            "rows",
            "a map needs probe rows; the selected point has none",
        ));
    }
    let (width, height) = match decor {
        Some(d) => (d.width, d.height),
        None => {
            // Pure-rows path: the smallest torus containing every probe.
            let w = row.probes.iter().map(|p| p.x).max().unwrap_or(0) + 1;
            let h = row.probes.iter().map(|p| p.y).max().unwrap_or(0) + 1;
            (w, h)
        }
    };
    for p in &row.probes {
        if p.x >= width || p.y >= height {
            return Err(invalid(
                "rows",
                format!("probe ({}, {}) is off the {width}x{height} torus", p.x, p.y),
            ));
        }
    }
    let id = |x: u32, y: u32| -> usize { y as usize * width as usize + x as usize };

    let max = row.probes.iter().map(|p| p.field(field)).max().unwrap_or(0);
    let mut map = GridMap::with_dims(width, height, spec.cell_px);
    for p in &row.probes {
        let v = p.field(field);
        let t = if max == 0 { 0.0 } else { v as f64 / max as f64 };
        map.set(id(p.x, p.y), CellStyle::heat(t));
    }
    let mut caption = Vec::new();
    if let Some(d) = decor {
        for &(x, y) in &d.bad {
            if x < width && y < height {
                map.set(id(x, y), CellStyle::bad());
            }
        }
        if let Some((x, y)) = d.source {
            if x < width && y < height {
                map.set(id(x, y), CellStyle::source());
            }
        }
        for &(x, y) in &d.callouts {
            if x < width && y < height {
                map.mark(id(x, y), '+');
            }
            if let Some(p) = row.probes.iter().find(|p| (p.x, p.y) == (x, y)) {
                caption.push(format!(
                    "probe ({x}, {y}): intake {}, true {}, wrong {}",
                    p.tally_true + p.tally_wrong,
                    p.tally_true,
                    p.tally_wrong,
                ));
            }
        }
    }
    caption.push(outcome_caption(&row.outcome));
    caption.push(heat_legend(field, max));

    let point_suffix = if row.point.is_empty() {
        String::new()
    } else {
        let labels: Vec<String> = row.point.iter().map(|(a, v)| format!("{a}={v}")).collect();
        format!(" ({})", labels.join(", "))
    };
    let title = format!("{scenario} - {field} heat map{point_suffix}");
    Ok(Figure {
        name: figure_name(scenario, "map"),
        svg: map.render_with_caption(&title, &caption),
    })
}

/// The heat-map legend line with quartile tick values, so a reader can
/// place an intermediate shade without interpolating by eye:
/// `heat: intake 0 (light) | 531 | 1062 | 1593 | 2124 (dark)`. A map
/// whose field is all zero keeps the degenerate two-end form.
fn heat_legend(field: &str, max: u64) -> String {
    if max == 0 {
        return format!("heat: {field} 0 (light) to 0 (dark)");
    }
    let ticks: Vec<String> = (1..4).map(|i| (i * max / 4).to_string()).collect();
    format!(
        "heat: {field} 0 (light) | {} | {max} (dark)",
        ticks.join(" | ")
    )
}

/// The chart fields an outcome object offers: every numeric or boolean
/// key (booleans plot as 0/1).
fn chart_value(outcome: &Json, field: &str) -> Option<f64> {
    match outcome.get(field) {
        Some(Json::Num(raw)) => raw.parse().ok(),
        Some(Json::Bool(b)) => Some(if *b { 1.0 } else { 0.0 }),
        _ => None,
    }
}

fn chart_fields(outcome: &Json) -> Vec<String> {
    match outcome {
        Json::Obj(fields) => fields
            .iter()
            .filter(|(_, v)| matches!(v, Json::Num(_) | Json::Bool(_)))
            .map(|(k, _)| k.clone())
            .collect(),
        _ => Vec::new(),
    }
}

fn render_chart(scenario: &str, rows: &[Row], spec: &ReportSpec) -> Result<Figure, ScenarioError> {
    let first = &rows[0];
    if first.point.is_empty() {
        return Err(invalid(
            "rows",
            "a chart needs sweep axes; these rows have no point labels \
             (render a map instead)",
        ));
    }
    let x_axis = match &spec.x_axis {
        Some(axis) => {
            if !first.point.iter().any(|(a, _)| a == axis) {
                let axes: Vec<&str> = first.point.iter().map(|(a, _)| a.as_str()).collect();
                return Err(invalid(
                    "x",
                    format!("unknown axis {axis:?} (axes: {})", axes.join(", ")),
                ));
            }
            axis.clone()
        }
        None => first.point[0].0.clone(),
    };
    let field = match &spec.field {
        Some(field) => field.clone(),
        None => match first.outcome.get("kind").and_then(Json::as_str) {
            Some("agreement") => "agreement".to_string(),
            _ => "coverage".to_string(),
        },
    };
    if chart_value(&first.outcome, &field).is_none() {
        return Err(invalid(
            "field",
            format!(
                "outcome has no numeric field {field:?} (known: {})",
                chart_fields(&first.outcome).join(", ")
            ),
        ));
    }

    // One series per combination of the non-x axes, in first-appearance
    // order (deterministic: rows arrive in sweep order).
    let mut series: Vec<(String, Vec<(f64, f64)>)> = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let bad = |message: String| invalid("rows", format!("row {}: {message}", i + 1));
        let x_raw = row
            .point
            .iter()
            .find(|(a, _)| *a == x_axis)
            .map(|(_, v)| v.clone())
            .ok_or_else(|| bad(format!("row lacks the {x_axis:?} axis")))?;
        let x: f64 = x_raw
            .parse()
            .map_err(|_| bad(format!("axis value {x_raw:?} is not a number")))?;
        let y = chart_value(&row.outcome, &field)
            .ok_or_else(|| bad(format!("outcome lacks numeric field {field:?}")))?;
        let key = {
            let rest: Vec<String> = row
                .point
                .iter()
                .filter(|(a, _)| *a != x_axis)
                .map(|(a, v)| format!("{a}={v}"))
                .collect();
            if rest.is_empty() {
                field.clone()
            } else {
                rest.join(", ")
            }
        };
        match series.iter_mut().find(|(name, _)| *name == key) {
            Some((_, points)) => points.push((x, y)),
            None => series.push((key, vec![(x, y)])),
        }
    }

    let mut chart = LineChart::new(format!("{scenario} - {field} vs {x_axis}"), &x_axis, &field);
    if spec.log_x {
        chart = chart.with_log_x();
    }
    for (name, points) in &series {
        chart.series(name.clone(), points);
    }
    Ok(Figure {
        name: figure_name(scenario, "chart"),
        svg: chart.render(),
    })
}

/// Renders one figure from a captured JSONL row stream (the output of
/// `run --scenario`, `results`, or [`crate::batch::BatchReport::jsonl`]).
/// `decor` supplies torus styling a row stream cannot carry; without
/// it, map dimensions are inferred from the probe cells and no cells
/// are styled.
///
/// # Errors
///
/// [`ScenarioError::Invalid`] for malformed rows, an unknown field or
/// axis, an out-of-range point, or rows that cannot support the
/// requested figure (a chart without sweep axes, a map without
/// probes).
pub fn render_jsonl(
    rows_text: &str,
    spec: &ReportSpec,
    decor: Option<&MapDecor>,
) -> Result<Figure, ScenarioError> {
    let (scenario, rows) = parse_rows(rows_text)?;
    let kind = match spec.figure {
        FigureKind::Auto => {
            if rows.len() > 1 && !rows[0].point.is_empty() {
                FigureKind::Chart
            } else {
                FigureKind::Map
            }
        }
        kind => kind,
    };
    match kind {
        FigureKind::Map => render_map(&scenario, &rows, spec, decor),
        FigureKind::Chart => render_chart(&scenario, &rows, spec),
        FigureKind::Auto => unreachable!("resolved above"),
    }
}

/// Runs a scenario file (through the batch runner, honoring the
/// [`BatchOptions`] store and worker cap) and renders one figure.
///
/// Map figures run **only** the selected sweep point
/// ([`ReportSpec::point`]), with `[probes]` expanded to every cell of
/// the torus so the heat map covers the whole grid; the dense probe
/// list is its own cache identity (probes are part of the content
/// key), so the first map render computes even over a store warmed by
/// plain runs — and every subsequent one replays with
/// `cache_hits == points`. Chart figures run the file exactly as
/// written and share cache entries with `run --scenario`.
///
/// # Errors
///
/// Any [`ScenarioError`] from the run, plus the [`render_jsonl`]
/// validation errors.
pub fn render_scenario(
    file: &ScenarioFile,
    spec: &ReportSpec,
    options: &BatchOptions<'_>,
) -> Result<ReportOutput, ScenarioError> {
    let kind = match spec.figure {
        FigureKind::Auto => {
            if file.points().len() > 1 {
                FigureKind::Chart
            } else {
                FigureKind::Map
            }
        }
        kind => kind,
    };
    let (run_file, render_spec, decor) = match kind {
        FigureKind::Map => {
            let mut single = file.single_point(spec.point).ok_or_else(|| {
                invalid(
                    "point",
                    format!(
                        "point {} is out of range ({} points)",
                        spec.point,
                        file.points().len()
                    ),
                )
            })?;
            let (width, height) = (single.base().width, single.base().height);
            single.probes = (0..height)
                .flat_map(|y| (0..width).map(move |x| (x, y)))
                .collect();
            let decor = MapDecor::from_file(file, spec.point);
            // The run holds exactly the selected point, so the
            // renderer reads row 0.
            let render_spec = ReportSpec {
                figure: kind,
                point: 0,
                ..spec.clone()
            };
            (single, render_spec, Some(decor))
        }
        _ => (
            file.clone(),
            ReportSpec {
                figure: kind,
                ..spec.clone()
            },
            None,
        ),
    };
    let report = run_file_with(&run_file, options)?;
    let figure = render_jsonl(&report.jsonl(), &render_spec, decor.as_ref())?;
    Ok(ReportOutput {
        figures: vec![figure],
        cache_hits: report.cache_hits,
        cache_misses: report.cache_misses,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINI_SWEEP: &str = concat!(
        "name = \"mini\"\n",
        "[topology]\nside = 15\nr = 1\n",
        "[faults]\nt = 1\nmf = 4\n",
        "[placement]\nkind = \"lattice\"\n",
        "[protocol]\nkind = \"starved\"\nm = 4\n",
        "[sweep]\nm = [2, 8]\n",
    );

    const MINI_POINT: &str = concat!(
        "name = \"mini\"\n",
        "[topology]\nside = 15\nr = 1\n",
        "[faults]\nt = 1\nmf = 4\n",
        "[placement]\nkind = \"lattice\"\n",
        "[protocol]\nkind = \"starved\"\nm = 8\n",
        "[probes]\nnodes = [[3, 3]]\n",
    );

    fn render(text: &str, spec: &ReportSpec) -> ReportOutput {
        let file = ScenarioFile::parse(text).unwrap();
        render_scenario(&file, spec, &BatchOptions::default()).unwrap()
    }

    #[test]
    fn auto_renders_a_chart_for_sweeps_and_a_map_for_points() {
        let chart = render(MINI_SWEEP, &ReportSpec::default());
        assert_eq!(chart.figures[0].name, "mini-chart");
        assert!(chart.figures[0].svg.contains("<polyline"));
        assert!(chart.figures[0].svg.contains("coverage vs m"));

        let map = render(MINI_POINT, &ReportSpec::default());
        assert_eq!(map.figures[0].name, "mini-map");
        // Dense probes: every one of the 225 cells is a rect.
        assert_eq!(map.figures[0].svg.matches("<rect").count(), 225);
        // Decor styling: source gold, lattice bad nodes black, the
        // declared probe called out.
        assert!(map.figures[0].svg.contains("#ffd700"));
        assert!(map.figures[0].svg.contains("#1a1a1a"));
        assert!(map.figures[0].svg.contains("probe (3, 3):"));
    }

    /// `log_x` reaches the chart renderer: the axis label gains the
    /// "(log)" suffix and the figure differs from the linear render.
    #[test]
    fn log_x_charts_render_a_log_axis() {
        let spec = ReportSpec {
            log_x: true,
            ..ReportSpec::default()
        };
        let logged = render(MINI_SWEEP, &spec);
        assert!(logged.figures[0].svg.contains("m (log)"), "log axis label");
        let linear = render(MINI_SWEEP, &ReportSpec::default());
        assert_ne!(logged.figures[0].svg, linear.figures[0].svg);
    }

    #[test]
    fn rendering_is_deterministic() {
        let spec = ReportSpec::default();
        assert_eq!(
            render(MINI_POINT, &spec).figures,
            render(MINI_POINT, &spec).figures
        );
        assert_eq!(
            render(MINI_SWEEP, &spec).figures,
            render(MINI_SWEEP, &spec).figures
        );
    }

    #[test]
    fn chart_field_and_axis_selection_validates() {
        let file = ScenarioFile::parse(MINI_SWEEP).unwrap();
        let ok = render_scenario(
            &file,
            &ReportSpec {
                field: Some("waves".to_string()),
                ..ReportSpec::default()
            },
            &BatchOptions::default(),
        )
        .unwrap();
        assert!(ok.figures[0].svg.contains("waves vs m"));

        for (field, x) in [(Some("no_such_field"), None), (None, Some("zz"))] {
            let spec = ReportSpec {
                field: field.map(str::to_string),
                x_axis: x.map(str::to_string),
                ..ReportSpec::default()
            };
            let err = render_scenario(&file, &spec, &BatchOptions::default()).unwrap_err();
            assert!(matches!(err, ScenarioError::Invalid { .. }), "{err}");
        }
    }

    #[test]
    fn map_field_point_and_probe_errors_are_named() {
        let file = ScenarioFile::parse(MINI_POINT).unwrap();
        let bad_field = ReportSpec {
            figure: FigureKind::Map,
            field: Some("warp".to_string()),
            ..ReportSpec::default()
        };
        let err = render_scenario(&file, &bad_field, &BatchOptions::default()).unwrap_err();
        assert!(err.to_string().contains("warp"), "{err}");

        let bad_point = ReportSpec {
            figure: FigureKind::Map,
            point: 9,
            ..ReportSpec::default()
        };
        let err = render_scenario(&file, &bad_point, &BatchOptions::default()).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");

        // A chart over a single point has no sweep axes.
        let chart = ReportSpec {
            figure: FigureKind::Chart,
            ..ReportSpec::default()
        };
        let err = render_scenario(&file, &chart, &BatchOptions::default()).unwrap_err();
        assert!(err.to_string().contains("sweep axes"), "{err}");
    }

    #[test]
    fn two_axis_sweeps_become_one_series_per_secondary_value() {
        let file = ScenarioFile::parse(concat!(
            "name = \"two-axis\"\n",
            "[topology]\nside = 15\nr = 1\n",
            "[faults]\nt = 1\nmf = 4\n",
            "[protocol]\nkind = \"starved\"\nm = 4\n",
            "[sweep]\nm = [2, 8]\nseed = \"0..3\"\n",
        ))
        .unwrap();
        // x = seed, one series per m value.
        let out = render_scenario(
            &file,
            &ReportSpec {
                x_axis: Some("seed".to_string()),
                ..ReportSpec::default()
            },
            &BatchOptions::default(),
        )
        .unwrap();
        let svg = &out.figures[0].svg;
        assert_eq!(svg.matches("<polyline").count(), 2);
        assert!(svg.contains("m=2") && svg.contains("m=8"), "{svg}");
    }

    #[test]
    fn jsonl_round_trip_matches_the_scenario_path_for_charts() {
        let file = ScenarioFile::parse(MINI_SWEEP).unwrap();
        let spec = ReportSpec::default();
        let direct = render_scenario(&file, &spec, &BatchOptions::default()).unwrap();
        let rows = crate::batch::run_file(&file).unwrap().jsonl();
        let replayed = render_jsonl(&rows, &spec, None).unwrap();
        assert_eq!(
            direct.figures[0], replayed,
            "captured rows render the same bytes"
        );
    }

    #[test]
    fn jsonl_map_without_decor_infers_dimensions() {
        let rows = concat!(
            "{\"scenario\":\"inferred\",\"engine\":\"counting\",\"point\":{},",
            "\"outcome\":{\"kind\":\"counting\",\"accepted_true\":3,\"waves\":2,",
            "\"coverage\":1.0},\"probes\":[",
            "{\"x\":0,\"y\":0,\"node\":0,\"tally_true\":4,\"tally_wrong\":0,",
            "\"intake\":4,\"decided_neighbors\":1,\"accepted\":\"true\"},",
            "{\"x\":2,\"y\":1,\"node\":7,\"tally_true\":1,\"tally_wrong\":3,",
            "\"intake\":4,\"decided_neighbors\":0,\"accepted\":null}]}\n",
        );
        let figure = render_jsonl(rows, &ReportSpec::default(), None).unwrap();
        assert_eq!(figure.name, "inferred-map");
        // Inferred 3x2 torus: 6 cells.
        assert_eq!(figure.svg.matches("<rect").count(), 6);
        assert!(figure.svg.contains("accepted_true 3"));
    }

    #[test]
    fn malformed_rows_are_rejected_with_line_numbers() {
        for bad in [
            "",
            "not json\n",
            "{\"scenario\":\"x\"}\n", // no outcome
            concat!(
                "{\"scenario\":\"x\",\"outcome\":{\"kind\":\"counting\"},",
                "\"probes\":[{\"x\":0}]}\n"
            ),
        ] {
            let err = render_jsonl(bad, &ReportSpec::default(), None).unwrap_err();
            assert!(
                matches!(err, ScenarioError::Invalid { .. }),
                "{bad:?}: {err}"
            );
        }
    }

    #[test]
    fn report_spec_wire_fields_parse_and_validate() {
        let doc = Json::parse(
            "{\"figure\":\"chart\",\"field\":\"waves\",\"x\":\"m\",\"log_x\":true,\
             \"point\":2,\"cell\":6}",
        )
        .unwrap();
        let spec = ReportSpec::from_json_fields(&doc).unwrap();
        assert_eq!(spec.figure, FigureKind::Chart);
        assert_eq!(spec.field.as_deref(), Some("waves"));
        assert_eq!(spec.x_axis.as_deref(), Some("m"));
        assert!(spec.log_x);
        assert_eq!((spec.point, spec.cell_px), (2, 6));
        assert_eq!(
            ReportSpec::from_json_fields(&Json::parse("{}").unwrap()).unwrap(),
            ReportSpec::default()
        );
        for bad in [
            "{\"figure\":\"pie\"}",
            "{\"figure\":7}",
            "{\"point\":\"x\"}",
            "{\"cell\":0}",
            "{\"cell\":1000}",
            "{\"log_x\":\"yes\"}",
        ] {
            let doc = Json::parse(bad).unwrap();
            assert!(ReportSpec::from_json_fields(&doc).is_err(), "{bad}");
        }
    }

    #[test]
    fn figure_names_are_sanitized() {
        assert_eq!(figure_name("f2", "map"), "f2-map");
        assert_eq!(figure_name("My Sweep!", "chart"), "my-sweep--chart");
        assert_eq!(figure_name("", "map"), "scenario-map");
    }

    #[test]
    fn figure_hash_is_stable_and_content_sensitive() {
        assert_eq!(figure_hash(""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(figure_hash("<svg a"), figure_hash("<svg b"));
    }

    #[test]
    fn heat_legend_carries_quartile_ticks() {
        assert_eq!(
            heat_legend("intake", 2124),
            "heat: intake 0 (light) | 531 | 1062 | 1593 | 2124 (dark)"
        );
        // Rounding quartiles of an awkward max stay ordered.
        assert_eq!(
            heat_legend("intake", 10),
            "heat: intake 0 (light) | 2 | 5 | 7 | 10 (dark)"
        );
        assert_eq!(heat_legend("x", 0), "heat: x 0 (light) to 0 (dark)");
    }
}
