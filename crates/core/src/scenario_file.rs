//! Typed scenario files: the declarative layer over [`crate::scn`].
//!
//! A `*.scn` file describes one workload — topology, fault assumption,
//! bad-node placement, engine, protocol, adversary — plus optional
//! **sweep axes** that expand the file into a grid of runs and
//! **probes** that report per-node tallies (the Figure 2 trace
//! workflow). [`ScenarioFile::parse`] validates the whole document
//! eagerly — unknown sections/keys, inapplicable combinations, and bad
//! sweep ranges are all rejected with a [`ScenarioError`] before
//! anything runs — and [`ScenarioFile::points`] expands the sweep into
//! fully-resolved [`PointSpec`]s for the batch runner
//! ([`crate::batch`]).
//!
//! # Grammar
//!
//! Every section and key is a row of the field table ([`crate::fields`]),
//! which fixes its type, default and engines; a new field or sweep axis
//! is one row there. `docs/ARCHITECTURE.md` has the commented
//! walk-through. In outline:
//!
//! | section | holds |
//! |---------|-------|
//! | top level | `name`, `engine` (`counting` default \| `crash` \| `slot` \| `agreement` \| `rbc`), `seed` |
//! | `[topology]` (required) | `width` + `height` (or `side`), `r` |
//! | `[faults]`, `[source]` | `t`, `mf`; `x`, `y` |
//! | `[placement]`, `[protocol]`, `[crash]` | a `kind` plus the keys that kind reads |
//! | `[adversary]`, `[reactive]`, `[agreement]`, `[rbc]` | one engine's settings each |
//! | `[probes]` | `nodes = [[x, y], ...]`, any engine |
//! | `[sweep]` | one key per sweepable field: an array of values, or an `"a..b"` / `"a..=b"` range |
//!
//! A section the engine does not read is an error, not a no-op. Sweep
//! axes override the base document per point; the cartesian product is
//! taken in file order (later axes vary fastest) and may hold at most
//! [`MAX_POINTS`] points.

use bftbcast_rbc::{ByzantineBehavior, RbcProtocol, ScheduleKind};
use bftbcast_sim::crash::CrashBehavior;
use bftbcast_sim::engine::AgreementMode;
use bftbcast_sim::slot::ReactiveAdversary;

use crate::fields::{self, Ty, Val};
use crate::scenario::{invalid, Scenario, ScenarioError};
use crate::scn::{self, ScnValue};

/// Which engine a scenario file drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The worst-case counting engine (Theorems 1–3, Figure 2).
    Counting,
    /// The hybrid crash + Byzantine engine.
    Crash,
    /// The slot-level `Breactive` engine (Section 5).
    Slot,
    /// Source-neighborhood agreement (faulty base station).
    Agreement,
    /// Message-level reliable broadcast (flood/Bracha/CTRBC).
    Rbc,
}

impl EngineKind {
    /// The grammar's name for this engine.
    pub fn name(self) -> &'static str {
        fields::ENGINES[self as usize]
    }
}

/// Byzantine placement, declaratively.
#[derive(Debug, Clone, PartialEq)]
pub enum PlacementSpec {
    /// No bad nodes.
    None,
    /// Figure 2's lattice: exactly `t` bad nodes per neighborhood.
    Lattice {
        /// Residue-class offset (41 reproduces Figure 2's positions).
        offset: u32,
    },
    /// Theorem 1's stripes: `(y0, t, victims_above)` per stripe.
    Stripes(Vec<(u32, u32, bool)>),
    /// Random placement honoring the local bound (uses the run seed).
    Random {
        /// How many bad nodes to place.
        count: usize,
    },
    /// Probabilistic iid corruption (may violate the local bound — the
    /// event the analysis quantifies; uses the run seed).
    Bernoulli {
        /// Per-node corruption rate.
        p: f64,
    },
    /// An explicit list of `(x, y)` cells.
    Explicit(Vec<(u32, u32)>),
}

/// Protocol under test (counting-family engines).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolSpec {
    /// Protocol B (Theorem 2, `m = 2·m0`).
    B,
    /// The Koo PODC'06 baseline (`m = 2·t·mf + 1`).
    Koo,
    /// Bheter (Theorem 3) with the paper-scale cross at the origin.
    Heter,
    /// Budget-starved variant: `m` copies per node, all relayed.
    Starved {
        /// Per-node copy budget.
        m: u64,
    },
    /// Majority acceptance at this quorum (the EXP-A3 ablation; oracle
    /// adversary only).
    Majority {
        /// Total copies needed to decide.
        quorum: u64,
    },
    /// The crash-only protocol (budget 1, threshold 1; crash engine
    /// only).
    CrashOnly,
}

/// Adversary model (counting engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdversarySpec {
    /// The paper's per-receiver budget accounting.
    Oracle,
    /// Physical global budgets, frontier-starving greedy.
    Greedy,
    /// Physical global budgets, seeded random actions.
    Chaos,
    /// No attacks.
    Passive,
}

/// Crash-node selection (crash engine).
#[derive(Debug, Clone, PartialEq)]
pub enum CrashNodesSpec {
    /// All nodes in rows `y0 .. y0 + height` (wrapping).
    Stripe {
        /// First row.
        y0: u32,
        /// Stripe height.
        height: u32,
    },
    /// An explicit list of `(x, y)` cells.
    Explicit(Vec<(u32, u32)>),
}

/// Crash-fault load (crash engine).
#[derive(Debug, Clone, PartialEq)]
pub struct CrashSpec {
    /// Which nodes crash.
    pub nodes: CrashNodesSpec,
    /// When they stop relaying.
    pub behavior: CrashBehavior,
}

/// Slot-engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReactiveSpec {
    /// Payload width in bits.
    pub k: usize,
    /// Loose budget bound known to good nodes.
    pub mmax: u64,
    /// Adversary behavior.
    pub adversary: ReactiveAdversary,
    /// Optional hard cap on good-node messages.
    pub budget: Option<u64>,
    /// Hard cap on message rounds.
    pub max_rounds: u64,
}

impl Default for ReactiveSpec {
    fn default() -> Self {
        ReactiveSpec {
            k: 8,
            mmax: 1 << 16,
            adversary: ReactiveAdversary::Jammer,
            budget: None,
            max_rounds: 2_000_000,
        }
    }
}

/// Message-level RBC engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RbcSpec {
    /// Protocol family to run (flood baseline, Bracha, or CTRBC).
    pub protocol: RbcProtocol,
    /// Broadcast payload size in bits.
    pub payload: u32,
    /// Hard cap on delivery waves.
    pub max_waves: u64,
    /// Delivery schedule the network plays (seeded, fifo,
    /// delay_quorum, targeted_reorder, gst).
    pub schedule: ScheduleKind,
    /// What Byzantine nodes actively do (mute, equivocate,
    /// selective_send, stale_replay).
    pub behavior: ByzantineBehavior,
}

impl Default for RbcSpec {
    fn default() -> Self {
        RbcSpec {
            protocol: RbcProtocol::Bracha,
            payload: 64,
            max_waves: 100_000,
            schedule: ScheduleKind::Seeded,
            behavior: ByzantineBehavior::Mute,
        }
    }
}

/// Source behavior in the agreement engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceSpec {
    /// A correct source.
    Correct,
    /// A Byzantine source splitting evenly between two values.
    Split,
    /// A Byzantine source that stays silent.
    Silent,
}

/// Agreement-engine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AgreementSpec {
    /// Cheap three-phase or proven vector mode.
    pub mode: AgreementMode,
    /// Source behavior.
    pub source: SourceSpec,
    /// Colluders' propose-phase capacity fraction.
    pub p1: f64,
    /// Colluders' echo-phase capacity fraction (of the remainder).
    pub pe: f64,
}

impl Default for AgreementSpec {
    fn default() -> Self {
        // SplitAttack::strongest()'s schedule.
        AgreementSpec {
            mode: AgreementMode::Cheap,
            source: SourceSpec::Correct,
            p1: 0.4,
            pe: 0.2,
        }
    }
}

/// One fully-resolved run: the base document with one sweep-point's
/// overrides applied.
#[derive(Debug, Clone, PartialEq)]
pub struct PointSpec {
    /// Torus width.
    pub width: u32,
    /// Torus height.
    pub height: u32,
    /// Radio range.
    pub r: u32,
    /// Local bound `t`.
    pub t: u32,
    /// Per-bad-node budget `mf`.
    pub mf: u64,
    /// Base-station cell.
    pub source: (u32, u32),
    /// Run seed (chaos adversary, random/Bernoulli placement, slot
    /// RNG).
    pub seed: u64,
    /// Byzantine placement.
    pub placement: PlacementSpec,
    /// Protocol under test.
    pub protocol: ProtocolSpec,
    /// Counting-engine adversary.
    pub adversary: AdversarySpec,
    /// Crash-fault load (crash engine).
    pub crash: Option<CrashSpec>,
    /// Slot-engine configuration.
    pub reactive: ReactiveSpec,
    /// Agreement-engine configuration.
    pub agreement: AgreementSpec,
    /// Message-level RBC engine configuration.
    pub rbc: RbcSpec,
    /// `(axis, rendered value)` for this sweep point, in axis order.
    pub label: Vec<(String, String)>,
}

impl Default for PointSpec {
    /// Every field at its grammar default, on a 0×0 torus.
    fn default() -> Self {
        PointSpec {
            width: 0,
            height: 0,
            r: 0,
            t: 1,
            mf: 1,
            source: (0, 0),
            seed: 0,
            placement: PlacementSpec::None,
            protocol: ProtocolSpec::B,
            adversary: AdversarySpec::Oracle,
            crash: None,
            reactive: ReactiveSpec::default(),
            agreement: AgreementSpec::default(),
            rbc: RbcSpec::default(),
            label: Vec::new(),
        }
    }
}

impl PointSpec {
    /// Builds the [`Scenario`] (torus + faults + Byzantine placement)
    /// for this point.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Net`] / [`ScenarioError::LocalBoundViolated`]
    /// exactly as [`crate::ScenarioBuilder::build`].
    pub fn build_scenario(&self) -> Result<Scenario, ScenarioError> {
        let mut b = Scenario::builder(self.width, self.height, self.r)
            .faults(self.t, self.mf)
            .source(self.source.0, self.source.1);
        b = match &self.placement {
            PlacementSpec::None => b,
            PlacementSpec::Lattice { offset } => b.lattice_placement_with_offset(*offset),
            PlacementSpec::Stripes(stripes) => b.stripe_placement(stripes),
            PlacementSpec::Random { count } => b.random_placement(*count, self.seed),
            PlacementSpec::Bernoulli { p } => b.bernoulli_placement(*p, self.seed),
            PlacementSpec::Explicit(cells) => {
                let grid = bftbcast_net::Grid::new(self.width, self.height, self.r)?;
                let ids = cells.iter().map(|&(x, y)| grid.id_at(x, y)).collect();
                b.explicit_placement(ids)
            }
        };
        b.build()
    }
}

/// The most points one scenario file may expand to. The sweep size is
/// checked from the axis lengths before anything is expanded, so a
/// request cannot make `parse` allocate more than this.
pub const MAX_POINTS: usize = 65_536;

/// One sweep axis: a sweepable row of the field table and its values.
#[derive(Debug, Clone, PartialEq)]
struct Axis {
    field: usize,
    values: Vec<Val>,
}

/// A parsed, validated scenario file.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioFile {
    /// Scenario name (reported in every output row).
    pub name: String,
    /// Which engine the file drives.
    pub engine: EngineKind,
    /// Probe cells `(x, y)` reported per point.
    pub probes: Vec<(u32, u32)>,
    base: PointSpec,
    sweep: Vec<Axis>,
}

/// The values of one `[sweep]` entry over sweep axis `field`: an array,
/// or a range string `"a..b"` (half-open) / `"a..=b"` (inclusive); at
/// most `room` of them, counted before any is made.
fn axis_values(field: usize, value: &ScnValue, room: usize) -> Result<Vec<Val>, ScenarioError> {
    let what = &format!("sweep.{}", fields::FIELDS[field].key);
    let (lo, len) = match value {
        ScnValue::Array(items) => (None, items.len() as i128),
        ScnValue::Str(range) => {
            let Some((lo, hi)) = range.split_once("..") else {
                let message = format!("range {range:?} must look like \"a..b\" or \"a..=b\"");
                return Err(invalid(what, message));
            };
            let (hi, inclusive) = hi.strip_prefix('=').map_or((hi, 0), |hi| (hi, 1));
            let parse = |s: &str| -> Result<i64, ScenarioError> {
                s.trim()
                    .parse()
                    .map_err(|_| invalid(what, format!("range bound {s:?} is not an integer")))
            };
            let (lo, hi) = (parse(lo)?, parse(hi)?);
            (Some(lo), i128::from(hi) - i128::from(lo) + inclusive)
        }
        other => {
            let found = other.kind();
            let message = format!("expected an array of numbers or a range string, found {found}");
            return Err(invalid(what, message));
        }
    };
    if len <= 0 {
        return Err(invalid(what, "axis has no values (empty array or range)"));
    }
    if len > room as i128 {
        let message = format!("the sweep would exceed {MAX_POINTS} points ({len} values here)");
        return Err(invalid(what, message));
    }
    let convert = |v: ScnValue| fields::axis_value(field, &v);
    match (lo, value) {
        (Some(lo), _) => (0..len as i64)
            .map(|i| convert(ScnValue::Int(lo + i)))
            .collect(),
        (None, ScnValue::Array(items)) => items.iter().cloned().map(convert).collect(),
        _ => unreachable!("ranges have a lower bound"),
    }
}

/// Cross-field validation of a fully-resolved point: everything that
/// would otherwise surface as an engine assert at run time — on a
/// `sweep()` worker thread, aborting the batch — fails here with a
/// [`ScenarioError`] instead. Called on the base document and on every
/// sweep-axis value at parse time.
pub(crate) fn validate_point(spec: &PointSpec, engine: EngineKind) -> Result<(), ScenarioError> {
    let (x, y, w, h) = (spec.source.0, spec.source.1, spec.width, spec.height);
    if x >= w || y >= h {
        let message = format!("cell ({x}, {y}) is off the {w}x{h} torus");
        return Err(invalid("source", message));
    }
    if engine == EngineKind::Slot && !(1..=63).contains(&spec.reactive.k) {
        return Err(invalid(
            "reactive.k",
            "payload width must lie in 1..=63 bits",
        ));
    }
    if engine == EngineKind::Rbc {
        if !(1..=1_048_576).contains(&spec.rbc.payload) {
            return Err(invalid(
                "rbc.payload",
                "payload must lie in 1..=1048576 bits",
            ));
        }
        let floor = 2 * (u64::from(spec.t) + 1);
        if spec.rbc.protocol == RbcProtocol::Ctrbc && u64::from(spec.rbc.payload) < floor {
            return Err(invalid(
                "rbc.payload",
                format!(
                    "ctrbc splits the payload into t+1 fragments and needs at least \
                     2(t+1) = {floor} payload bits at t = {}",
                    spec.t
                ),
            ));
        }
        if spec.rbc.max_waves == 0 {
            return Err(invalid("rbc.max_waves", "at least one wave is required"));
        }
    }
    if engine == EngineKind::Agreement && spec.agreement.mode == AgreementMode::Proven {
        use bftbcast_protocols::agreement::proven_max_t;
        if u64::from(spec.t) > proven_max_t(spec.r) {
            return Err(invalid(
                "agreement.mode",
                format!(
                    "proven mode requires t <= {} at r = {}",
                    proven_max_t(spec.r),
                    spec.r
                ),
            ));
        }
    }
    Ok(())
}

impl ScenarioFile {
    /// Parses and validates a scenario document.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Parse`] for malformed text,
    /// [`ScenarioError::UnknownKey`] for sections/keys outside the
    /// grammar, [`ScenarioError::Invalid`] for bad field values, bad
    /// sweep ranges, sweeps past [`MAX_POINTS`], or engine/section
    /// mismatches.
    pub fn parse(text: &str) -> Result<Self, ScenarioError> {
        let mut doc = scn::parse(text)?;
        let spec = fields::read_scn(&mut doc)?;
        crate::spec::validate(&spec)?;
        let mut file = ScenarioFile {
            name: spec.name,
            engine: spec.engine,
            probes: spec.probes,
            base: spec.point,
            sweep: Vec::new(),
        };
        let mut size = 1;
        for (key, value, _) in doc.section("sweep").map_or(&[][..], |s| &s.entries) {
            let field = fields::axis(key, file.engine, &file.base)?;
            let values = axis_values(field, value, MAX_POINTS / size)?;
            size *= values.len();
            file.check_axis(field, &values)?;
            file.sweep.push(Axis { field, values });
        }
        Ok(file)
    }

    /// Validates every value of an axis over `field` against the base
    /// document, so a bad axis fails at parse time, not mid-batch.
    fn check_axis(&self, field: usize, values: &[Val]) -> Result<(), ScenarioError> {
        values.iter().try_for_each(|v| {
            let mut point = self.base.clone();
            fields::apply(field, &mut point, v.clone());
            validate_point(&point, self.engine)
        })
    }

    /// The base configuration (sweep overrides not applied).
    pub fn base(&self) -> &PointSpec {
        &self.base
    }

    /// Wraps one validated [`EngineSpec`](crate::spec::EngineSpec) as a
    /// single-point scenario file — the adapter that lets every
    /// `ScenarioFile` consumer (the batch runner, the server job queue)
    /// run a spec submitted as JSON through exactly the same code path
    /// (and therefore exactly the same store keys) as `.scn` text.
    pub fn from_spec(spec: &crate::spec::EngineSpec) -> ScenarioFile {
        ScenarioFile {
            name: spec.name().to_string(),
            engine: spec.engine(),
            probes: spec.probes().to_vec(),
            base: spec.point().clone(),
            sweep: Vec::new(),
        }
    }

    /// A copy of this file narrowed to one expanded sweep point: the
    /// point becomes the base document (its sweep label retained, so
    /// result rows still carry the axis values) and the sweep is
    /// dropped. `None` when `index` is out of range. The report layer
    /// renders single-point map figures through this instead of
    /// re-running the whole sweep.
    pub fn single_point(&self, index: usize) -> Option<ScenarioFile> {
        let point = self.points().into_iter().nth(index)?;
        Some(ScenarioFile {
            name: self.name.clone(),
            engine: self.engine,
            probes: self.probes.clone(),
            base: point,
            sweep: Vec::new(),
        })
    }

    /// Expands the file into one validated
    /// [`EngineSpec`](crate::spec::EngineSpec) per sweep point (the
    /// sweep labels are presentation and are dropped — a spec's
    /// identity is its cache key).
    ///
    /// # Errors
    ///
    /// None in practice for parse-produced files (everything was
    /// validated at parse time); hand-mutated files surface the usual
    /// [`ScenarioError`]s.
    pub fn specs(&self) -> Result<Vec<crate::spec::EngineSpec>, ScenarioError> {
        self.points()
            .into_iter()
            .map(|mut point| {
                point.label.clear();
                crate::spec::EngineSpec::from_parts(
                    self.name.clone(),
                    self.engine,
                    point,
                    self.probes.clone(),
                )
            })
            .collect()
    }

    /// Overrides one field by sweep-axis name (the `run --set
    /// key=value` path), converting `value` exactly as a `[sweep]`
    /// value — a bare name for a name axis, a `.scn` number otherwise —
    /// then re-validates the base and every sweep point against the
    /// change. An override **pins** the field: a `[sweep]` axis over
    /// the same key is dropped (otherwise the sweep would silently
    /// reapply its values over the override at every point).
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Invalid`] for an unknown axis, a value of the
    /// wrong shape, or an override that makes the base or any sweep
    /// point invalid.
    pub fn override_base(&mut self, key: &str, value: &str) -> Result<(), ScenarioError> {
        let field = fields::axis(key, self.engine, &self.base)?;
        let value = match fields::FIELDS[field].ty {
            Ty::Name(_) => Ok(ScnValue::Str(value.to_string())),
            _ => scn::parse_value(value).map_err(|e| invalid(&format!("sweep.{key}"), e.message)),
        }?;
        let value = fields::axis_value(field, &value)?;
        self.check_axis(field, std::slice::from_ref(&value))?;
        fields::apply(field, &mut self.base, value);
        self.sweep.retain(|axis| axis.field != field);
        self.sweep
            .iter()
            .try_for_each(|axis| self.check_axis(axis.field, &axis.values))
    }

    /// Expands the sweep axes into fully-resolved points (cartesian
    /// product in file order, later axes varying fastest). A file with
    /// no `[sweep]` section yields one point.
    pub fn points(&self) -> Vec<PointSpec> {
        let total: usize = self.sweep.iter().map(|a| a.values.len()).product();
        (0..total)
            .map(|n| {
                let mut point = self.base.clone();
                let mut stride = total;
                for axis in &self.sweep {
                    stride /= axis.values.len();
                    let v = &axis.values[n / stride % axis.values.len()];
                    fields::apply(axis.field, &mut point, v.clone());
                    let key = fields::FIELDS[axis.field].key;
                    point.label.push((key.to_string(), v.render()));
                }
                point
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const F2: &str = concat!(
        "name = \"f2\"\n",
        "engine = \"counting\"\n",
        "[topology]\n",
        "width = 45\n",
        "height = 45\n",
        "r = 4\n",
        "[faults]\n",
        "t = 1\n",
        "mf = 1000\n",
        "[placement]\n",
        "kind = \"lattice\"\n",
        "offset = 41\n",
        "[protocol]\n",
        "kind = \"starved\"\n",
        "m = 59\n",
        "[adversary]\n",
        "kind = \"oracle\"\n",
        "[probes]\n",
        "nodes = [[0, 5], [5, 1]]\n",
    );

    #[test]
    fn parses_the_figure2_file() {
        let f = ScenarioFile::parse(F2).unwrap();
        assert_eq!(f.name, "f2");
        assert_eq!(f.engine, EngineKind::Counting);
        assert_eq!(f.probes, vec![(0, 5), (5, 1)]);
        let points = f.points();
        assert_eq!(points.len(), 1);
        let p = &points[0];
        assert_eq!((p.width, p.height, p.r), (45, 45, 4));
        assert_eq!((p.t, p.mf), (1, 1000));
        assert_eq!(p.protocol, ProtocolSpec::Starved { m: 59 });
        assert_eq!(p.placement, PlacementSpec::Lattice { offset: 41 });
        let s = p.build_scenario().unwrap();
        assert_eq!(s.params().m0(), 58);
    }

    #[test]
    fn sweep_expands_cartesian_last_axis_fastest() {
        let f = ScenarioFile::parse(concat!(
            "[topology]\nside = 15\nr = 1\n",
            "[protocol]\nkind = \"starved\"\nm = 1\n",
            "[sweep]\nm = [5, 6]\nseed = \"0..3\"\n",
        ))
        .unwrap();
        let points = f.points();
        assert_eq!(points.len(), 6);
        assert_eq!(
            points[0].label,
            vec![
                ("m".to_string(), "5".to_string()),
                ("seed".to_string(), "0".to_string())
            ]
        );
        assert_eq!(points[1].label[1].1, "1");
        assert_eq!(points[3].label[0].1, "6");
        assert_eq!(points[5].protocol, ProtocolSpec::Starved { m: 6 });
        assert_eq!(points[5].seed, 2);
    }

    #[test]
    fn unknown_sections_keys_and_axes_are_rejected() {
        let base = "[topology]\nside = 15\nr = 1\n";
        let err = ScenarioFile::parse(&format!("{base}[teleport]\nx = 1\n")).unwrap_err();
        assert!(matches!(err, ScenarioError::UnknownKey { .. }), "{err}");
        let err = ScenarioFile::parse("[topology]\nside = 15\nr = 1\nwarp = 9\n").unwrap_err();
        assert!(
            matches!(err, ScenarioError::UnknownKey { ref section, ref key }
                if section == "topology" && key == "warp"),
            "{err}"
        );
        let err = ScenarioFile::parse(&format!("{base}[sweep]\nwarp = [1]\n")).unwrap_err();
        assert!(matches!(err, ScenarioError::Invalid { .. }), "{err}");
    }

    #[test]
    fn bad_sweep_ranges_are_rejected() {
        let base = "[topology]\nside = 15\nr = 1\n[sweep]\n";
        for sweep in [
            "seed = \"5..2\"\n",
            "seed = \"1..1\"\n",
            "seed = \"a..b\"\n",
            "seed = []\n",
            "seed = 3\n",
            "seed = [1.5]\n", // seed is an integer axis
            "m = [5]\n",      // m without a starved protocol
            // Past the point cap, checked before anything is expanded.
            "seed = \"0..4000000000\"\n",
            "seed = \"0..=9223372036854775807\"\n",
            "seed = \"0..300\"\nmf = \"0..300\"\n",
        ] {
            let err = ScenarioFile::parse(&format!("{base}{sweep}")).unwrap_err();
            assert!(
                matches!(err, ScenarioError::Invalid { .. }),
                "{sweep:?} gave {err}"
            );
        }
    }

    #[test]
    fn inclusive_ranges_and_float_axes() {
        let f = ScenarioFile::parse(concat!(
            "engine = \"agreement\"\n",
            "[topology]\nside = 15\nr = 2\n",
            "[agreement]\nsource = \"split\"\n",
            "[sweep]\np1 = [0.0, 0.5, 1.0]\npe = \"0..=1\"\n",
        ))
        .unwrap();
        let points = f.points();
        assert_eq!(points.len(), 6);
        assert_eq!(points[4].agreement.p1, 1.0);
        assert_eq!(points[1].agreement.pe, 1.0);
    }

    #[test]
    fn engine_section_mismatches_are_rejected() {
        let base = "[topology]\nside = 15\nr = 1\n";
        for (engine, section) in [
            ("counting", "[crash]\ny0 = 5\n"),
            ("counting", "[reactive]\nk = 8\n"),
            ("slot", "[adversary]\nkind = \"oracle\"\n"),
            ("slot", "[protocol]\nkind = \"b\"\n"),
            ("crash", "[agreement]\nmode = \"cheap\"\n"),
            ("counting", "[rbc]\npayload = 64\n"),
            ("rbc", "[protocol]\nkind = \"b\"\n"),
            ("rbc", "[adversary]\nkind = \"oracle\"\n"),
        ] {
            let text = format!("engine = \"{engine}\"\n{base}{section}");
            let err = ScenarioFile::parse(&text).unwrap_err();
            assert!(
                matches!(err, ScenarioError::Invalid { .. }),
                "{text}: {err}"
            );
        }
    }

    #[test]
    fn off_torus_cells_and_bad_rates_are_rejected_at_parse_time() {
        for text in [
            // Source off the torus.
            "[topology]\nside = 15\nr = 1\n[source]\nx = 99\ny = 0\n",
            // Explicit placement cell off the torus.
            "[topology]\nside = 15\nr = 1\n[placement]\nkind = \"explicit\"\nnodes = [[0, 20]]\n",
            // Explicit crash cell off the torus.
            concat!(
                "engine = \"crash\"\n[topology]\nside = 15\nr = 1\n",
                "[crash]\nkind = \"explicit\"\nnodes = [[20, 0]]\n",
            ),
            // Probe off the torus.
            "[topology]\nside = 15\nr = 1\n[probes]\nnodes = [[99, 0]]\n",
            // Bernoulli rate outside [0, 1], fixed and swept.
            "[topology]\nside = 15\nr = 1\n[placement]\nkind = \"bernoulli\"\np = 1.5\n",
            concat!(
                "[topology]\nside = 15\nr = 1\n",
                "[placement]\nkind = \"bernoulli\"\np = 0.1\n[sweep]\np = [0.1, 1.5]\n",
            ),
            // Slot payload width outside the engine's 1..=63 bound.
            "engine = \"slot\"\n[topology]\nside = 15\nr = 1\n[reactive]\nk = 100\n",
            concat!(
                "engine = \"slot\"\n[topology]\nside = 15\nr = 1\n",
                "[reactive]\nk = 8\n[sweep]\nk = [8, 100]\n",
            ),
            // Sweep axes the engine never reads.
            "[topology]\nside = 15\nr = 1\n[sweep]\np1 = [0.0, 0.5]\n",
            "[topology]\nside = 15\nr = 1\n[sweep]\nmmax = [1, 2]\n",
            "[topology]\nside = 15\nr = 1\n[sweep]\nprotocol = [\"bracha\"]\n",
            "[topology]\nside = 15\nr = 1\n[sweep]\npayload = [64, 128]\n",
            // Proven-mode t bound, fixed and reached via a t sweep.
            concat!(
                "engine = \"agreement\"\n[topology]\nside = 9\nr = 1\n[faults]\nt = 2\n",
                "[agreement]\nmode = \"proven\"\n",
            ),
            concat!(
                "engine = \"agreement\"\n[topology]\nside = 9\nr = 1\n[faults]\nt = 1\n",
                "[agreement]\nmode = \"proven\"\n[sweep]\nt = [1, 2]\n",
            ),
        ] {
            let err = ScenarioFile::parse(text).unwrap_err();
            assert!(
                matches!(err, ScenarioError::Invalid { .. }),
                "{text:?} gave {err}"
            );
        }
    }

    #[test]
    fn crash_engine_requires_crash_section() {
        let err =
            ScenarioFile::parse("engine = \"crash\"\n[topology]\nside = 15\nr = 1\n").unwrap_err();
        assert!(matches!(err, ScenarioError::Invalid { .. }), "{err}");
    }

    #[test]
    fn local_bound_violations_surface_from_point_builds() {
        let f = ScenarioFile::parse(concat!(
            "[topology]\nside = 15\nr = 1\n",
            "[placement]\nkind = \"explicit\"\nnodes = [[1, 1], [2, 1], [3, 1]]\n",
        ))
        .unwrap();
        let err = f.points()[0].build_scenario().unwrap_err();
        assert!(
            matches!(err, ScenarioError::LocalBoundViolated { .. }),
            "{err}"
        );
    }

    #[test]
    fn override_base_pins_fields_and_drops_matching_sweep_axes() {
        let parse = || {
            ScenarioFile::parse(concat!(
                "[topology]\nside = 15\nr = 1\n",
                "[protocol]\nkind = \"starved\"\nm = 1\n",
                "[sweep]\nm = [5, 6]\nseed = \"0..3\"\n",
            ))
            .unwrap()
        };
        // Overriding a swept key pins it: the m axis is dropped, the
        // seed axis survives.
        let mut f = parse();
        f.override_base("m", "9").unwrap();
        let points = f.points();
        assert_eq!(points.len(), 3, "only the seed axis remains");
        for p in &points {
            assert_eq!(p.protocol, ProtocolSpec::Starved { m: 9 });
            assert_eq!(p.label.len(), 1, "no m label: {:?}", p.label);
        }
        // Overriding a non-swept key leaves the sweep intact.
        let mut f = parse();
        f.override_base("mf", "7").unwrap();
        assert_eq!(f.points().len(), 6);
        assert!(f.points().iter().all(|p| p.mf == 7));
        // Unknown keys and wrong shapes are named errors.
        let mut f = parse();
        assert!(f.override_base("warp", "1").is_err());
        assert!(f.override_base("m", "-1").is_err());
    }

    #[test]
    fn defaults_fill_in() {
        let f = ScenarioFile::parse("[topology]\nside = 15\nr = 1\n").unwrap();
        let p = &f.points()[0];
        assert_eq!(f.name, "scenario");
        assert_eq!(p.protocol, ProtocolSpec::B);
        assert_eq!(p.adversary, AdversarySpec::Oracle);
        assert_eq!((p.t, p.mf, p.seed), (1, 1, 0));
        assert_eq!(p.placement, PlacementSpec::None);
        assert_eq!(p.rbc, RbcSpec::default());
        assert_eq!(p.rbc.protocol, RbcProtocol::Bracha);
    }

    #[test]
    fn rbc_engine_parses_with_protocol_and_payload_sweeps() {
        let f = ScenarioFile::parse(concat!(
            "engine = \"rbc\"\nseed = 7\n",
            "[topology]\nside = 15\nr = 1\n",
            "[faults]\nt = 2\n",
            "[rbc]\nprotocol = \"ctrbc\"\npayload = 4096\nmax_waves = 500\n",
            "[sweep]\nprotocol = [\"counting\", \"bracha\", \"ctrbc\"]\npayload = [64, 4096]\n",
        ))
        .unwrap();
        assert_eq!(f.engine, EngineKind::Rbc);
        let points = f.points();
        assert_eq!(points.len(), 6);
        assert_eq!(points[0].rbc.protocol, RbcProtocol::Counting);
        assert_eq!(points[0].rbc.payload, 64);
        assert_eq!(points[0].rbc.max_waves, 500);
        assert_eq!(points[5].rbc.protocol, RbcProtocol::Ctrbc);
        assert_eq!(points[5].rbc.payload, 4096);
        assert_eq!(
            points[0].label,
            vec![
                ("protocol".to_string(), "counting".to_string()),
                ("payload".to_string(), "64".to_string()),
            ]
        );
    }

    #[test]
    fn rbc_payload_bounds_are_validated_per_point() {
        let base = "engine = \"rbc\"\n[topology]\nside = 15\nr = 1\n";
        for text in [
            // Zero-width payload.
            format!("{base}[rbc]\npayload = 0\n"),
            // Above the cap.
            format!("{base}[rbc]\npayload = 2000000\n"),
            // CTRBC needs >= 2(t+1) payload bits: 4 < 6 at t = 2.
            format!("{base}[faults]\nt = 2\n[rbc]\nprotocol = \"ctrbc\"\npayload = 4\n"),
            // Same bound reached through a t sweep.
            format!(
                "{base}[faults]\nt = 1\n[rbc]\nprotocol = \"ctrbc\"\npayload = 4\n\
                 [sweep]\nt = [1, 2]\n"
            ),
            // ... or a protocol sweep over a small fixed payload.
            format!(
                "{base}[faults]\nt = 2\n[rbc]\npayload = 4\n\
                 [sweep]\nprotocol = [\"bracha\", \"ctrbc\"]\n"
            ),
            // No waves at all.
            format!("{base}[rbc]\nmax_waves = 0\n"),
            // Unknown protocol name, fixed and swept.
            format!("{base}[rbc]\nprotocol = \"gossip\"\n"),
            format!("{base}[sweep]\nprotocol = [\"gossip\"]\n"),
            // Numbers in the protocol axis, names in a numeric axis.
            format!("{base}[sweep]\nprotocol = [1, 2]\n"),
            format!("{base}[sweep]\npayload = [\"bracha\"]\n"),
        ] {
            let err = ScenarioFile::parse(&text).unwrap_err();
            assert!(
                matches!(err, ScenarioError::Invalid { .. }),
                "{text:?} gave {err}"
            );
        }
    }
}
