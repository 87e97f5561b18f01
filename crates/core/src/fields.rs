//! The field table: every configuration field of an
//! [`EngineSpec`], described once.
//!
//! A row gives the field's `.scn` section and key, its JSON path (also
//! its cache-key record path), its type, the engines that read it, and
//! whether a `[sweep]` axis or `run --set` may override it. One reader
//! types `.scn` documents and JSON objects (JSON values are lowered to
//! the `.scn` value model first, so both share one converter); one
//! writer nests the fields by JSON path into the canonical JSON or the
//! cache-key record, and `.scn` lists them grouped by section; a sweep
//! axis is a sweepable row, overridden through the same converter. The formats differ only by per-row encodings (`Ty`,
//! `Field::scn_implied`) and by JSON nesting where `.scn` is flat.
//!
//! The typed [`PointSpec`] stays the engines' only input; nothing here
//! runs inside an engine. Adding a field is one row plus the engine
//! code that reads it.

use std::fmt::Write as _;

use bftbcast_rbc::{ByzantineBehavior, RbcProtocol, ScheduleKind};
use bftbcast_sim::crash::CrashBehavior;
use bftbcast_sim::engine::AgreementMode;
use bftbcast_sim::slot::ReactiveAdversary;
use bftbcast_store::Record;

use crate::cache::CACHE_SCHEMA_VERSION;
use crate::json::{self, Json, Object};
use crate::scenario::{invalid, ScenarioError};
use crate::scenario_file::{
    AdversarySpec, CrashNodesSpec, CrashSpec, EngineKind, PlacementSpec, PointSpec, ProtocolSpec,
    SourceSpec,
};
use crate::scn::{ScnDoc, ScnValue};
use crate::spec::EngineSpec;

/// A field's value type, which fixes its encoding in every format.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Ty {
    /// Free text; presentation only, so never part of the cache key.
    Text,
    U32,
    U64,
    /// A fraction in [0, 1].
    Frac,
    /// One of these names.
    Name(&'static [&'static str]),
    /// A variant discriminator: one of these names, the first being the
    /// `.scn` default. The rows after it read only under some variants.
    Kind(&'static [&'static str]),
    /// `[[x, y], ...]` torus cells.
    Cells,
    /// `[[y0, t, victims_above], ...]` stripes.
    Stripes,
    /// An optional 64-bit integer: `null` in JSON, left out of `.scn`,
    /// and `u64::MAX` plus `<key>_set = false` in the key record.
    OptU64,
}

/// A typed field value: [`Ty::U32`] and [`Ty::U64`] are both `U`,
/// names are interned to the table's spelling.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Val {
    U(u64),
    F(f64),
    S(String),
    N(&'static str),
    Cells(Vec<(u32, u32)>),
    Stripes(Vec<(u32, u32, bool)>),
    Opt(Option<u64>),
}

impl Val {
    fn u(&self) -> u64 {
        let Val::U(n) = self else {
            unreachable!("{self:?}")
        };
        *n
    }

    fn f(&self) -> f64 {
        let Val::F(x) = self else {
            unreachable!("{self:?}")
        };
        *x
    }

    /// The spelling of a sweep-axis value in a point's label.
    pub(crate) fn render(&self) -> String {
        match self {
            Val::F(x) => format!("{x}"),
            Val::N(name) => name.to_string(),
            other => other.u().to_string(),
        }
    }
}

/// A read-only view of one spec, as the table's getters see it.
pub(crate) struct View<'a> {
    pub name: &'a str,
    pub engine: EngineKind,
    pub point: &'a PointSpec,
    pub probes: &'a [(u32, u32)],
}

impl<'a> View<'a> {
    /// A bare point: no name, no probes.
    pub(crate) fn bare(engine: EngineKind, point: &'a PointSpec) -> Self {
        View {
            name: "",
            engine,
            point,
            probes: &[],
        }
    }
}

/// One configuration field — see the [module docs](self).
pub(crate) struct Field {
    /// `.scn` section (`""` = top level).
    pub section: &'static str,
    /// `.scn` key; for a sweepable field also the axis name.
    pub key: &'static str,
    /// Dot-separated JSON path, also the cache-key record path.
    pub json: &'static str,
    pub ty: Ty,
    /// Engines that read the field, one bit per [`EngineKind`].
    pub engines: u8,
    /// Whether a `[sweep]` axis or `run --set` may override the field.
    pub sweep: bool,
    /// Whether the field must be given whenever it applies.
    pub req: bool,
    /// `(name, key)`: `.scn` spells this name by giving `key` instead.
    pub scn_implied: Option<(&'static str, &'static str)>,
    /// The value; `None` when the field does not apply (another
    /// variant, or no crash load). The defaults are the getters applied
    /// to [`PointSpec::default`].
    get: fn(&View<'_>) -> Option<Val>,
    /// Stores a value already converted to the field's type.
    set: fn(&mut EngineSpec, Val),
}

const fn bit(engine: EngineKind) -> u8 {
    1 << engine as u8
}

const ALL: u8 = 0b11111;
const COUNTING: u8 = bit(EngineKind::Counting);
const CRASH: u8 = bit(EngineKind::Crash);
const SLOT: u8 = bit(EngineKind::Slot);
const AGREEMENT: u8 = bit(EngineKind::Agreement);
const RBC: u8 = bit(EngineKind::Rbc);

impl Field {
    /// Whether `engine` reads this field.
    pub(crate) fn applies(&self, engine: EngineKind) -> bool {
        self.engines & bit(engine) != 0
    }
}

/// A [`Field`] row; trailing `flag: value`s override the defaults (not
/// sweepable, optional, no `.scn` spelling quirk).
macro_rules! field {
    ($section:literal $key:literal => $json:literal, $ty:expr, $engines:expr,
     $get:expr, $set:expr $(, $flag:ident: $val:expr)*) => {
        Field {
            $($flag: $val,)*
            ..Field {
                section: $section,
                key: $key,
                json: $json,
                ty: $ty,
                engines: $engines,
                sweep: false,
                req: false,
                scn_implied: None,
                get: $get,
                set: $set,
            }
        }
    };
}

/// Every enum the table names: the spellings, then the variants in the
/// same order (data-carrying variants at the defaults their kind sets).
#[rustfmt::skip]
mod names {
    use super::*;
    use bftbcast_sim::crash::CrashBehavior::*;

    pub(crate) const ENGINES: &[&str] = &["counting", "crash", "slot", "agreement", "rbc"];
    pub static ENGINE: [EngineKind; 5] = [EngineKind::Counting, EngineKind::Crash, EngineKind::Slot,
        EngineKind::Agreement, EngineKind::Rbc];
    pub const PLACEMENTS: &[&str] = &["none", "lattice", "stripes", "random", "bernoulli", "explicit"];
    pub static PLACEMENT: [PlacementSpec; 6] = [PlacementSpec::None, PlacementSpec::Lattice { offset: 1 },
        PlacementSpec::Stripes(Vec::new()), PlacementSpec::Random { count: 0 },
        PlacementSpec::Bernoulli { p: 0.0 }, PlacementSpec::Explicit(Vec::new())];
    pub const PROTOCOLS: &[&str] = &["b", "koo", "heter", "starved", "majority", "crash_only"];
    pub static PROTOCOL: [ProtocolSpec; 6] = [ProtocolSpec::B, ProtocolSpec::Koo, ProtocolSpec::Heter,
        ProtocolSpec::Starved { m: 0 }, ProtocolSpec::Majority { quorum: 0 }, ProtocolSpec::CrashOnly];
    pub const ADVERSARIES: &[&str] = &["oracle", "greedy", "chaos", "passive"];
    pub static ADVERSARY: [AdversarySpec; 4] = [AdversarySpec::Oracle, AdversarySpec::Greedy,
        AdversarySpec::Chaos, AdversarySpec::Passive];
    pub const CRASH_NODES: &[&str] = &["stripe", "explicit"];
    pub static CRASH_NODE: [CrashNodesSpec; 2] = [CrashNodesSpec::Stripe { y0: 0, height: 1 },
        CrashNodesSpec::Explicit(Vec::new())];
    pub const CRASH_BEHAVIORS: &[&str] = &["immediate", "after_quota", "after_copies"];
    pub static CRASH_BEHAVIOR: [CrashBehavior; 3] = [Immediate, AfterQuota, AfterCopies(0)];
    pub const REACTIVE_ADVERSARIES: &[&str] =
        &["passive", "jammer", "canceller", "nack_forger", "witness_forger", "mixed"];
    pub static REACTIVE_ADVERSARY: [ReactiveAdversary; 6] = [ReactiveAdversary::Passive,
        ReactiveAdversary::Jammer, ReactiveAdversary::Canceller, ReactiveAdversary::NackForger,
        ReactiveAdversary::WitnessForger, ReactiveAdversary::Mixed];
    pub const MODES: &[&str] = &["cheap", "proven"];
    pub static MODE: [AgreementMode; 2] = [AgreementMode::Cheap, AgreementMode::Proven];
    pub const SOURCES: &[&str] = &["correct", "split", "silent"];
    pub static SOURCE: [SourceSpec; 3] = [SourceSpec::Correct, SourceSpec::Split, SourceSpec::Silent];
    pub const RBC_PROTOCOLS: &[&str] = &["counting", "bracha", "ctrbc"];
    pub static RBC_PROTOCOL: [RbcProtocol; 3] = [RbcProtocol::Counting, RbcProtocol::Bracha,
        RbcProtocol::Ctrbc];
    pub const SCHEDULES: &[&str] = &["seeded", "fifo", "delay_quorum", "targeted_reorder", "gst"];
    pub const BEHAVIORS: &[&str] = &["mute", "equivocate", "selective_send", "stale_replay"];
}
pub(crate) use names::ENGINES;
use names::*;

/// The name of `v`'s variant, `names[i]` spelling `all[i]`.
fn name_of<T>(all: &[T], names: &'static [&'static str], v: &T) -> Option<Val> {
    let d = std::mem::discriminant(v);
    let i = all.iter().position(|a| std::mem::discriminant(a) == d);
    Some(Val::N(names[i.expect("every variant is listed")]))
}

/// The variant a name spells: the inverse of [`name_of`].
fn of_name<T: Clone>(all: &[T], names: &'static [&'static str], x: &Val) -> T {
    let i = names.iter().position(|n| Val::N(n) == *x);
    all[i.expect("a name from the table")].clone()
}

fn u(n: impl Into<u64>) -> Option<Val> {
    Some(Val::U(n.into()))
}

/// The crash load, created at its defaults on first use: reading a
/// crash section is what gives a spec one.
fn crash(s: &mut EngineSpec) -> &mut CrashSpec {
    s.point.crash.get_or_insert(CrashSpec {
        nodes: CrashNodesSpec::Stripe { y0: 0, height: 1 },
        behavior: CrashBehavior::Immediate,
    })
}

/// Every configuration field, in canonical order: the order of the JSON
/// fields and, grouped by section, of the `.scn` lines.
#[rustfmt::skip]
pub(crate) static FIELDS: [Field; 41] = [
    field!("" "name" => "name", Ty::Text, ALL,
        |v| Some(Val::S(v.name.to_string())), |s, x| if let Val::S(n) = x { s.name = n }),
    field!("" "engine" => "engine", Ty::Name(ENGINES), ALL,
        |v| name_of(&ENGINE, ENGINES, &v.engine), |s, x| s.engine = of_name(&ENGINE, ENGINES, &x)),
    field!("topology" "width" => "width", Ty::U32, ALL,
        |v| u(v.point.width), |s, x| s.point.width = x.u() as u32, req: true),
    field!("topology" "height" => "height", Ty::U32, ALL,
        |v| u(v.point.height), |s, x| s.point.height = x.u() as u32, req: true),
    field!("topology" "r" => "r", Ty::U32, ALL,
        |v| u(v.point.r), |s, x| s.point.r = x.u() as u32, req: true),
    field!("faults" "t" => "t", Ty::U32, ALL,
        |v| u(v.point.t), |s, x| s.point.t = x.u() as u32, sweep: true),
    field!("faults" "mf" => "mf", Ty::U64, ALL,
        |v| u(v.point.mf), |s, x| s.point.mf = x.u(), sweep: true),
    field!("source" "x" => "source_x", Ty::U32, ALL,
        |v| u(v.point.source.0), |s, x| s.point.source.0 = x.u() as u32),
    field!("source" "y" => "source_y", Ty::U32, ALL,
        |v| u(v.point.source.1), |s, x| s.point.source.1 = x.u() as u32),
    field!("" "seed" => "seed", Ty::U64, ALL,
        |v| u(v.point.seed), |s, x| s.point.seed = x.u(), sweep: true),
    field!("placement" "kind" => "placement.kind", Ty::Kind(PLACEMENTS), ALL,
        |v| name_of(&PLACEMENT, PLACEMENTS, &v.point.placement),
        |s, x| s.point.placement = of_name(&PLACEMENT, PLACEMENTS, &x)),
    field!("placement" "offset" => "placement.offset", Ty::U32, ALL,
        |v| match v.point.placement { PlacementSpec::Lattice { offset } => u(offset), _ => None },
        |s, x| s.point.placement = PlacementSpec::Lattice { offset: x.u() as u32 }),
    field!("placement" "stripes" => "placement.stripes", Ty::Stripes, ALL,
        |v| match &v.point.placement { PlacementSpec::Stripes(st) => Some(Val::Stripes(st.clone())), _ => None },
        |s, x| if let Val::Stripes(st) = x { s.point.placement = PlacementSpec::Stripes(st) },
        req: true),
    field!("placement" "count" => "placement.count", Ty::U64, ALL,
        |v| match v.point.placement { PlacementSpec::Random { count } => u(count as u64), _ => None },
        |s, x| s.point.placement = PlacementSpec::Random { count: x.u() as usize },
        sweep: true, req: true),
    field!("placement" "p" => "placement.p", Ty::Frac, ALL,
        |v| match v.point.placement { PlacementSpec::Bernoulli { p } => Some(Val::F(p)), _ => None },
        |s, x| s.point.placement = PlacementSpec::Bernoulli { p: x.f() }, sweep: true, req: true),
    field!("placement" "nodes" => "placement.nodes", Ty::Cells, ALL,
        |v| match &v.point.placement { PlacementSpec::Explicit(c) => Some(Val::Cells(c.clone())), _ => None },
        |s, x| if let Val::Cells(c) = x { s.point.placement = PlacementSpec::Explicit(c) },
        req: true),
    field!("protocol" "kind" => "protocol.kind", Ty::Kind(PROTOCOLS), COUNTING | CRASH,
        |v| name_of(&PROTOCOL, PROTOCOLS, &v.point.protocol),
        |s, x| s.point.protocol = of_name(&PROTOCOL, PROTOCOLS, &x)),
    field!("protocol" "m" => "protocol.m", Ty::U64, COUNTING | CRASH,
        |v| match v.point.protocol { ProtocolSpec::Starved { m } => u(m), _ => None },
        |s, x| s.point.protocol = ProtocolSpec::Starved { m: x.u() }, sweep: true, req: true),
    field!("protocol" "quorum" => "protocol.quorum", Ty::U64, COUNTING | CRASH,
        |v| match v.point.protocol { ProtocolSpec::Majority { quorum } => u(quorum), _ => None },
        |s, x| s.point.protocol = ProtocolSpec::Majority { quorum: x.u() }, sweep: true, req: true),
    field!("adversary" "kind" => "adversary", Ty::Name(ADVERSARIES), COUNTING,
        |v| name_of(&ADVERSARY, ADVERSARIES, &v.point.adversary),
        |s, x| s.point.adversary = of_name(&ADVERSARY, ADVERSARIES, &x)),
    field!("crash" "kind" => "crash.nodes.kind", Ty::Kind(CRASH_NODES), CRASH,
        |v| name_of(&CRASH_NODE, CRASH_NODES, &v.point.crash.as_ref()?.nodes),
        |s, x| crash(s).nodes = of_name(&CRASH_NODE, CRASH_NODES, &x), req: true),
    field!("crash" "y0" => "crash.nodes.y0", Ty::U32, CRASH,
        |v| match v.point.crash.as_ref()?.nodes { CrashNodesSpec::Stripe { y0, .. } => u(y0), _ => None },
        |s, x| if let CrashNodesSpec::Stripe { y0, .. } = &mut crash(s).nodes { *y0 = x.u() as u32 },
        req: true),
    field!("crash" "height" => "crash.nodes.height", Ty::U32, CRASH,
        |v| match v.point.crash.as_ref()?.nodes { CrashNodesSpec::Stripe { height, .. } => u(height), _ => None },
        |s, x| if let CrashNodesSpec::Stripe { height, .. } = &mut crash(s).nodes { *height = x.u() as u32 }),
    field!("crash" "nodes" => "crash.nodes.nodes", Ty::Cells, CRASH,
        |v| match &v.point.crash.as_ref()?.nodes { CrashNodesSpec::Explicit(c) => Some(Val::Cells(c.clone())), _ => None },
        |s, x| if let Val::Cells(c) = x { crash(s).nodes = CrashNodesSpec::Explicit(c) }, req: true),
    field!("crash" "behavior" => "crash.behavior.kind", Ty::Kind(CRASH_BEHAVIORS), CRASH,
        |v| name_of(&CRASH_BEHAVIOR, CRASH_BEHAVIORS, &v.point.crash.as_ref()?.behavior),
        |s, x| crash(s).behavior = of_name(&CRASH_BEHAVIOR, CRASH_BEHAVIORS, &x),
        scn_implied: Some(("after_copies", "after"))),
    field!("crash" "after" => "crash.behavior.after", Ty::U64, CRASH,
        |v| match v.point.crash.as_ref()?.behavior { CrashBehavior::AfterCopies(n) => u(n), _ => None },
        |s, x| crash(s).behavior = CrashBehavior::AfterCopies(x.u()), req: true),
    field!("reactive" "k" => "reactive.k", Ty::U64, SLOT,
        |v| u(v.point.reactive.k as u64), |s, x| s.point.reactive.k = x.u() as usize, sweep: true),
    field!("reactive" "mmax" => "reactive.mmax", Ty::U64, SLOT,
        |v| u(v.point.reactive.mmax), |s, x| s.point.reactive.mmax = x.u(), sweep: true),
    field!("reactive" "adversary" => "reactive.adversary", Ty::Name(REACTIVE_ADVERSARIES), SLOT,
        |v| name_of(&REACTIVE_ADVERSARY, REACTIVE_ADVERSARIES, &v.point.reactive.adversary),
        |s, x| s.point.reactive.adversary = of_name(&REACTIVE_ADVERSARY, REACTIVE_ADVERSARIES, &x)),
    field!("reactive" "budget" => "reactive.budget", Ty::OptU64, SLOT,
        |v| Some(Val::Opt(v.point.reactive.budget)),
        |s, x| if let Val::Opt(b) = x { s.point.reactive.budget = b }),
    field!("reactive" "max_rounds" => "reactive.max_rounds", Ty::U64, SLOT,
        |v| u(v.point.reactive.max_rounds), |s, x| s.point.reactive.max_rounds = x.u()),
    field!("agreement" "mode" => "agreement.mode", Ty::Name(MODES), AGREEMENT,
        |v| name_of(&MODE, MODES, &v.point.agreement.mode),
        |s, x| s.point.agreement.mode = of_name(&MODE, MODES, &x)),
    field!("agreement" "source" => "agreement.source", Ty::Name(SOURCES), AGREEMENT,
        |v| name_of(&SOURCE, SOURCES, &v.point.agreement.source),
        |s, x| s.point.agreement.source = of_name(&SOURCE, SOURCES, &x)),
    field!("agreement" "p1" => "agreement.p1", Ty::Frac, AGREEMENT,
        |v| Some(Val::F(v.point.agreement.p1)), |s, x| s.point.agreement.p1 = x.f(), sweep: true),
    field!("agreement" "pe" => "agreement.pe", Ty::Frac, AGREEMENT,
        |v| Some(Val::F(v.point.agreement.pe)), |s, x| s.point.agreement.pe = x.f(), sweep: true),
    field!("rbc" "protocol" => "rbc.protocol", Ty::Name(RBC_PROTOCOLS), RBC,
        |v| name_of(&RBC_PROTOCOL, RBC_PROTOCOLS, &v.point.rbc.protocol),
        |s, x| s.point.rbc.protocol = of_name(&RBC_PROTOCOL, RBC_PROTOCOLS, &x), sweep: true),
    field!("rbc" "payload" => "rbc.payload", Ty::U32, RBC,
        |v| u(v.point.rbc.payload), |s, x| s.point.rbc.payload = x.u() as u32, sweep: true),
    field!("rbc" "max_waves" => "rbc.max_waves", Ty::U64, RBC,
        |v| u(v.point.rbc.max_waves), |s, x| s.point.rbc.max_waves = x.u()),
    field!("rbc" "schedule" => "rbc.schedule", Ty::Name(SCHEDULES), RBC,
        |v| name_of(&ScheduleKind::ALL, SCHEDULES, &v.point.rbc.schedule),
        |s, x| s.point.rbc.schedule = of_name(&ScheduleKind::ALL, SCHEDULES, &x), sweep: true),
    field!("rbc" "behavior" => "rbc.behavior", Ty::Name(BEHAVIORS), RBC,
        |v| name_of(&ByzantineBehavior::ALL, BEHAVIORS, &v.point.rbc.behavior),
        |s, x| s.point.rbc.behavior = of_name(&ByzantineBehavior::ALL, BEHAVIORS, &x), sweep: true),
    field!("probes" "nodes" => "probes", Ty::Cells, ALL,
        |v| Some(Val::Cells(v.probes.to_vec())), |s, x| if let Val::Cells(c) = x { s.probes = c }),
];

/// What a conversion error is about; each format names the three
/// differently (see [`Doc::what`]).
#[derive(Clone, Copy)]
enum Bad {
    Type,
    Name,
    List,
}

/// `[[a, b], ...]` or, with `flag`, `[[a, b, bool], ...]`, of
/// non-negative 32-bit integers; `None` for any other shape.
fn tuples(v: &ScnValue, flag: bool) -> Option<Vec<(u32, u32, bool)>> {
    let ScnValue::Array(items) = v else {
        return None;
    };
    let tuple = |item: &ScnValue| {
        let ScnValue::Array(t) = item else {
            return None;
        };
        let (a, b, c) = match (t.as_slice(), flag) {
            ([ScnValue::Int(a), ScnValue::Int(b)], false) => (*a, *b, false),
            ([ScnValue::Int(a), ScnValue::Int(b), ScnValue::Bool(c)], true) => (*a, *b, *c),
            _ => return None,
        };
        Some((u32::try_from(a).ok()?, u32::try_from(b).ok()?, c))
    };
    items.iter().map(tuple).collect()
}

/// Converts one value to `f`'s type.
fn convert(f: &Field, v: &ScnValue) -> Result<Val, (Bad, String)> {
    let expected = |what: &str| Err((Bad::Type, format!("expected {what}, found {}", v.kind())));
    let n = match v {
        ScnValue::Int(i) => u64::try_from(*i).ok(),
        ScnValue::BigInt(n) => Some(*n),
        _ => None,
    };
    Ok(match (f.ty, v) {
        (Ty::Text, ScnValue::Str(s)) => Val::S(s.clone()),
        (Ty::Name(names) | Ty::Kind(names), ScnValue::Str(s)) => {
            match names.iter().find(|n| **n == s.as_str()) {
                Some(name) => Val::N(name),
                None => {
                    let known = names.join("|");
                    return Err((Bad::Name, format!("unknown {} {s:?} ({known})", f.key)));
                }
            }
        }
        (Ty::Text | Ty::Name(_) | Ty::Kind(_), _) => return expected("a string"),
        (Ty::U32, _) => match n.filter(|n| u32::try_from(*n).is_ok()) {
            Some(n) => Val::U(n),
            None => return expected("a non-negative 32-bit integer"),
        },
        (Ty::U64 | Ty::OptU64, _) => match n {
            Some(n) if f.ty == Ty::OptU64 => Val::Opt(Some(n)),
            Some(n) => Val::U(n),
            None => return expected("a non-negative integer"),
        },
        (Ty::Frac, ScnValue::Float(x)) => Val::F(*x),
        (Ty::Frac, ScnValue::Int(i)) => Val::F(*i as f64),
        (Ty::Frac, ScnValue::BigInt(n)) => Val::F(*n as f64),
        (Ty::Frac, _) => return expected("a number"),
        (Ty::Cells | Ty::Stripes, _) => {
            let flag = f.ty == Ty::Stripes;
            let Some(list) = tuples(v, flag) else {
                let shape = ["[[x, y], ...]", "[[y0, t, bool], ...]"][usize::from(flag)];
                return Err((Bad::List, format!("expected {shape} of 32-bit naturals")));
            };
            match flag {
                true => Val::Stripes(list),
                false => Val::Cells(list.iter().map(|t| (t.0, t.1)).collect()),
            }
        }
    })
}

/// Lowers a JSON value to the `.scn` value model (`None` for `null`
/// and objects, which no field holds). The unsigned integer literals
/// stay integers; every other number is a float.
fn lower(v: &Json) -> Option<ScnValue> {
    Some(match v {
        Json::Str(s) => ScnValue::Str(s.clone()),
        Json::Bool(b) => ScnValue::Bool(*b),
        Json::Arr(items) => ScnValue::Array(items.iter().map(lower).collect::<Option<_>>()?),
        Json::Num(raw) => match raw.parse::<u64>() {
            Ok(n) => i64::try_from(n).map_or(ScnValue::BigInt(n), ScnValue::Int),
            Err(_) => ScnValue::Float(raw.parse().ok()?),
        },
        Json::Null | Json::Obj(_) => return None,
    })
}

/// The document a spec is read from.
#[derive(Clone, Copy)]
enum Doc<'a> {
    Scn(&'a ScnDoc),
    Json(&'a Json),
}

/// A field in a document: section (JSON: object) absent or field not
/// read there, key missing, or the converted value.
enum Slot {
    Absent,
    Missing,
    Given(Val),
}

fn parent(path: &str) -> Option<&str> {
    path.rsplit_once('.').map(|(parent, _)| parent)
}

/// The object at a dot-separated path (`""` = the document itself).
fn json_at<'a>(doc: &'a Json, path: &str) -> Option<&'a Json> {
    let mut keys = path.split('.').filter(|key| !key.is_empty());
    keys.try_fold(doc, |v, key| v.get(key))
}

/// `section.key`, or `key` at top level: how `.scn` names a field.
fn scn_path(f: &Field) -> String {
    match f.section {
        "" => f.key.to_string(),
        section => format!("{section}.{}", f.key),
    }
}

impl Doc<'_> {
    /// An error about `f`, named the way this format names it.
    fn error(self, f: &Field, bad: Bad, message: impl Into<String>) -> ScenarioError {
        let what = match (self, bad) {
            (Doc::Scn(_), Bad::Type) if f.section.is_empty() => format!("top level.{}", f.key),
            (Doc::Scn(_), _) => scn_path(f),
            (Doc::Json(_), Bad::Type) => format!("spec.{}", f.json),
            (Doc::Json(_), Bad::Name) => format!("spec.{}", f.json.trim_end_matches(".kind")),
            (Doc::Json(_), Bad::List) => format!("spec.{}", parent(f.json).unwrap_or(f.json)),
        };
        invalid(&what, message)
    }

    /// Looks `f` up; a value is converted only when `applies` (rows
    /// under another variant are not read, so they are not checked).
    fn slot(
        self,
        f: &Field,
        engine: EngineKind,
        applies: &dyn Fn() -> bool,
    ) -> Result<Slot, ScenarioError> {
        let convert = |v: &ScnValue| convert(f, v).map_err(|(bad, m)| self.error(f, bad, m));
        match self {
            Doc::Scn(doc) => {
                let Some(section) = doc.section(f.section) else {
                    return Ok(Slot::Absent);
                };
                if !f.applies(engine) {
                    let (section, engine) = (f.section, engine.name());
                    let message =
                        format!("section [{section}] does not apply to engine = {engine:?}");
                    return Err(invalid(section, message));
                }
                let value = section.get(f.key);
                if let Some((name, key)) = f.scn_implied {
                    match (value, section.get(key)) {
                        (Some(_), Some(_)) => {
                            let message = format!("give either {} or {key}, not both", f.key);
                            return Err(self.error(f, Bad::Name, message));
                        }
                        (None, Some(_)) => return Ok(Slot::Given(Val::N(name))),
                        (Some(ScnValue::Str(s)), None) if s == name => {
                            let message = format!("{name} is spelled `{key} = N`");
                            return Err(self.error(f, Bad::Name, message));
                        }
                        _ => {}
                    }
                }
                match value {
                    None => Ok(Slot::Missing),
                    Some(v) if applies() => convert(v).map(Slot::Given),
                    Some(_) => Ok(Slot::Absent),
                }
            }
            Doc::Json(doc) => {
                let path = parent(f.json).unwrap_or("");
                let Some(object) = json_at(doc, path) else {
                    // A required discriminator's object is itself
                    // required once the object around it is given.
                    return match path.rsplit_once('.') {
                        Some((up, name)) if f.req && json_at(doc, up).is_some() && applies() => {
                            Err(invalid(&format!("spec.{up}"), format!("{up} needs {name}")))
                        }
                        _ => Ok(Slot::Absent),
                    };
                };
                match object.get(f.json.rsplit('.').next().expect("non-empty path")) {
                    None => Ok(Slot::Missing),
                    Some(_) if !applies() => Ok(Slot::Absent),
                    Some(Json::Null) if f.ty == Ty::OptU64 => Ok(Slot::Given(Val::Opt(None))),
                    Some(v) => match lower(v) {
                        Some(v) => convert(&v).map(Slot::Given),
                        None => Err(self.error(f, Bad::Type, "unexpected null or object")),
                    },
                }
            }
        }
    }

    /// The one reader: types every field of the document into `spec`.
    fn read(self, spec: &mut EngineSpec) -> Result<(), ScenarioError> {
        let scn = matches!(self, Doc::Scn(_));
        for f in &FIELDS {
            let kind = match f.ty {
                Ty::Kind(names) => Some(names[0]),
                _ => None,
            };
            // Rows under another variant do not apply; a discriminator
            // always does.
            let applies = || kind.is_some() || (f.get)(&spec.view()).is_some();
            let list = matches!(f.ty, Ty::Cells | Ty::Stripes);
            let val = match (self.slot(f, spec.engine, &applies)?, kind) {
                (Slot::Given(val), _) => val,
                (Slot::Missing, Some(default)) if scn => Val::N(default),
                // `.scn` has no empty form of an optional list: the
                // section is left out instead.
                (Slot::Missing, _) if (f.req || kind.is_some() || scn && list) && applies() => {
                    let bad = if list { Bad::List } else { Bad::Type };
                    return Err(self.error(f, bad, format!("missing {}", f.key)));
                }
                _ => continue,
            };
            (f.set)(spec, val);
        }
        Ok(())
    }
}

/// Reads the spec of a `.scn` document (every section but `[sweep]`),
/// rejecting unknown sections and keys and sections the engine does not
/// read. Not yet validated: see `spec::validate`.
pub(crate) fn read_scn(doc: &mut ScnDoc) -> Result<EngineSpec, ScenarioError> {
    for section in doc.sections.iter().filter(|s| s.name != "sweep") {
        let name = &section.name;
        let rows = || FIELDS.iter().filter(|f| f.section == name);
        let known = |key: &&String| {
            (name == "topology" && *key == "side")
                || rows().any(|f| f.key == *key || f.scn_implied.is_some_and(|(_, k)| k == *key))
        };
        let mut keys = section.entries.iter().map(|(key, _, _)| key);
        let unknown = match rows().next() {
            Some(_) => keys.find(|key| !known(key)).cloned(),
            None => Some(String::new()),
        };
        if let Some(key) = unknown {
            let section = name.clone();
            return Err(ScenarioError::UnknownKey { section, key });
        }
    }
    // `side = N` is shorthand for `width = N` plus `height = N`.
    let topology = doc
        .sections
        .iter_mut()
        .find(|s| s.name == "topology")
        .ok_or_else(|| invalid("topology", "missing required section [topology]"))?;
    let side = topology.entries.iter().position(|e| e.0 == "side");
    match (side, topology.get("width"), topology.get("height")) {
        (Some(i), None, None) => {
            let (_, side, line) = topology.entries.remove(i);
            let width = FIELDS
                .iter()
                .find(|f| f.json == "width")
                .expect("a width row");
            convert(width, &side).map_err(|(_, m)| invalid("topology.side", m))?;
            topology.entries.push(("width".into(), side.clone(), line));
            topology.entries.push(("height".into(), side, line));
        }
        (None, Some(_), Some(_)) => {}
        _ => return Err(invalid("topology", "give either side, or width and height")),
    }
    let mut spec = EngineSpec::blank("scenario");
    Doc::Scn(doc).read(&mut spec)?;
    Ok(spec)
}

/// Rejects JSON keys that no field path names, and non-objects where a
/// path continues: the counterpart of `.scn`'s unknown keys.
fn check_json_keys(v: &Json, prefix: &str) -> Result<(), ScenarioError> {
    let here = format!("spec{prefix}");
    let Json::Obj(entries) = v else {
        return Err(invalid(&here, "expected a JSON object"));
    };
    for (key, child) in entries {
        let path = format!("{prefix}.{key}");
        let mut rests = FIELDS
            .iter()
            .filter_map(|f| f.json.strip_prefix(&path[1..]));
        if rests.clone().any(|rest| rest.starts_with('.')) {
            check_json_keys(child, &path)?;
        } else if path != ".version" && !rests.any(str::is_empty) {
            let (section, key) = (here, key.clone());
            return Err(ScenarioError::UnknownKey { section, key });
        }
    }
    Ok(())
}

/// Reads a spec from its JSON object form. Not yet validated: see
/// `spec::validate`.
pub(crate) fn read_json(doc: &Json) -> Result<EngineSpec, ScenarioError> {
    check_json_keys(doc, "")?;
    let version = u64::from(CACHE_SCHEMA_VERSION);
    let given = doc.get("version");
    if given.is_some_and(|v| v.as_u64() != Some(version)) {
        let message = format!("unsupported spec version (this build speaks {version})");
        return Err(invalid("spec.version", message));
    }
    let mut spec = EngineSpec::blank("spec");
    Doc::Json(doc).read(&mut spec)?;
    Ok(spec)
}

/// An object a writer fills: the JSON `Object` or the key `Record`.
trait Sink: Sized {
    fn leaf(self, key: &str, val: Val) -> Self;
    fn object(self, key: &str, child: Self) -> Self;
}

/// The one writer: adds to `out` every field `keep` admits that applies
/// to the spec, nested by JSON path. `rows` are the table rows under the
/// path prefix `skip` bytes long (one object's rows are contiguous), and
/// `out` is `None` until something is written into a `new` object.
fn write<S: Sink>(
    v: &View<'_>,
    rows: &[Field],
    skip: usize,
    (keep, new): (&impl Fn(&Field) -> bool, fn() -> S),
    mut out: Option<S>,
) -> Option<S> {
    let mut i = 0;
    while i < rows.len() {
        let path = &rows[i].json[skip..];
        let Some((head, _)) = path.split_once('.') else {
            let f = &rows[i];
            if let Some(val) = keep(f).then(|| (f.get)(v)).flatten() {
                out = Some(out.unwrap_or_else(new).leaf(path, val));
            }
            i += 1;
            continue;
        };
        let under = |f: &Field| f.json[skip..].strip_prefix(head)?.strip_prefix('.');
        let n = rows[i..].iter().take_while(|f| under(f).is_some()).count();
        if let Some(child) = write(v, &rows[i..i + n], skip + head.len() + 1, (keep, new), None) {
            out = Some(out.unwrap_or_else(new).object(head, child));
        }
        i += n;
    }
    out
}

/// A value's text in JSON (`sep = ","`) or `.scn` (`sep = ", "`); the
/// formats agree on everything else a valid spec can hold.
fn text(val: &Val, sep: &str) -> String {
    let list = |items: Vec<String>| format!("[{}]", items.join(sep));
    match val {
        Val::U(n) | Val::Opt(Some(n)) => n.to_string(),
        Val::Opt(None) => "null".to_string(),
        Val::F(x) => json::number(*x),
        Val::S(s) => json::string(s),
        Val::N(s) => json::string(s),
        Val::Cells(cells) => list(
            cells
                .iter()
                .map(|(x, y)| format!("[{x}{sep}{y}]"))
                .collect(),
        ),
        Val::Stripes(stripes) => list(
            stripes
                .iter()
                .map(|(y0, t, above)| format!("[{y0}{sep}{t}{sep}{above}]"))
                .collect(),
        ),
    }
}

impl Sink for Object {
    fn leaf(self, key: &str, val: Val) -> Self {
        self.raw(key, text(&val, ","))
    }

    fn object(self, key: &str, child: Self) -> Self {
        self.raw(key, child.render())
    }
}

/// The canonical one-line JSON form: the schema version, then the
/// fields the engine reads.
pub(crate) fn to_json(v: &View<'_>) -> String {
    let version = Object::new().u64("version", u64::from(CACHE_SCHEMA_VERSION));
    let keep = |f: &Field| f.applies(v.engine);
    let json = write(v, &FIELDS, 0, (&keep, Object::new), Some(version));
    json.expect("the version is written").render()
}

/// The canonical sweep-free `.scn` form: the fields the engine reads,
/// grouped by section.
pub(crate) fn to_scn(v: &View<'_>) -> String {
    let mut sections: Vec<(&str, String)> = Vec::new();
    for f in FIELDS.iter().filter(|f| f.applies(v.engine)) {
        let Some(val) = (f.get)(v) else { continue };
        match &val {
            Val::N(name) if f.scn_implied.is_some_and(|(implied, _)| implied == *name) => continue,
            Val::Cells(cells) if cells.is_empty() && !f.req => continue,
            Val::Opt(None) => continue,
            _ => {}
        }
        let i = sections.iter().position(|(name, _)| *name == f.section);
        let i = i.unwrap_or_else(|| {
            sections.push((f.section, String::new()));
            sections.len() - 1
        });
        let _ = writeln!(sections[i].1, "{} = {}", f.key, text(&val, ", "));
    }
    let mut out = String::new();
    for (name, lines) in sections {
        if !name.is_empty() {
            let _ = writeln!(out, "\n[{name}]");
        }
        out.push_str(&lines);
    }
    out
}

/// An empty key record.
fn record() -> Record {
    Record::new(CACHE_SCHEMA_VERSION)
}

impl Sink for Record {
    fn leaf(self, key: &str, val: Val) -> Self {
        match val {
            Val::U(n) => self.u64(key, n),
            Val::F(x) => self.f64(key, x),
            Val::S(s) => self.str(key, &s),
            Val::N(s) => self.str(key, s),
            Val::Opt(o) => self
                .u64(key, o.unwrap_or(u64::MAX))
                .bool(&format!("{key}_set"), o.is_some()),
            Val::Cells(cells) => {
                let cell = |&(x, y): &(u32, u32)| record().u64("x", x.into()).u64("y", y.into());
                self.list(key, &cells.iter().map(cell).collect::<Vec<_>>())
            }
            Val::Stripes(stripes) => {
                let stripe = |&(y0, t, above): &(u32, u32, bool)| {
                    record()
                        .u64("y0", y0.into())
                        .u64("t", t.into())
                        .bool("above", above)
                };
                self.list(key, &stripes.iter().map(stripe).collect::<Vec<_>>())
            }
        }
    }

    fn object(self, key: &str, child: Self) -> Self {
        self.record(key, child)
    }
}

/// The cache-key record: every identity field whatever the engine (the
/// ones it does not read sit at their defaults).
pub(crate) fn key_record(v: &View<'_>) -> Record {
    let key = write(
        v,
        &FIELDS,
        0,
        (&|f: &Field| f.ty != Ty::Text, record),
        Some(record()),
    );
    key.expect("a record to write into")
}

/// Every sweep-axis name (the keys `[sweep]` and `run --set` take), in
/// table order.
pub fn axis_names() -> Vec<&'static str> {
    FIELDS.iter().filter(|f| f.sweep).map(|f| f.key).collect()
}

/// The index of the sweepable field `key`, which `engine` must read
/// under `point`'s variants (a `count` axis needs a random placement,
/// `m` a starved protocol); errors name `sweep.<key>`.
pub(crate) fn axis(
    key: &str,
    engine: EngineKind,
    point: &PointSpec,
) -> Result<usize, ScenarioError> {
    let what = format!("sweep.{key}");
    let Some(i) = FIELDS.iter().position(|f| f.sweep && f.key == key) else {
        let known = axis_names().join(", ");
        return Err(invalid(&what, format!("unknown axis (known: {known})")));
    };
    let f = &FIELDS[i];
    if !f.applies(engine) {
        let message = format!("axis does not apply to engine = \"{}\"", engine.name());
        return Err(invalid(&what, message));
    }
    if (f.get)(&View::bare(engine, point)).is_none() {
        let kind = f.section;
        return Err(invalid(
            &what,
            format!("needs a [{kind}] kind that reads {key}"),
        ));
    }
    Ok(i)
}

/// Converts one `[sweep]` (or `run --set`) value for axis `i`; errors
/// name `sweep.<key>`.
pub(crate) fn axis_value(i: usize, v: &ScnValue) -> Result<Val, ScenarioError> {
    let f = &FIELDS[i];
    let what = format!("sweep.{}", f.key);
    if let ScnValue::BigInt(n) = v {
        let message = format!("axis value {n} is above the sweepable range (i64)");
        return Err(invalid(&what, message));
    }
    let val = convert(f, v).map_err(|(_, m)| invalid(&what, m))?;
    if f.ty == Ty::Frac && !(0.0..=1.0).contains(&val.f()) {
        return Err(invalid(&what, "fractions must lie in [0, 1]"));
    }
    Ok(val)
}

/// Sets sweep axis `i` of `point` to an already-converted value.
pub(crate) fn apply(i: usize, point: &mut PointSpec, val: Val) {
    let mut spec = EngineSpec::blank("");
    std::mem::swap(&mut spec.point, point);
    (FIELDS[i].set)(&mut spec, val);
    std::mem::swap(&mut spec.point, point);
}

/// The first field-level fault of a spec (also the batch runner's
/// pre-run backstop against hand-built files): a field the engine does not
/// read off its default (named by section: such configuration must sit
/// at its defaults, which keeps the codecs lossless), a cell off the
/// torus, or a fraction outside [0, 1].
pub(crate) fn field_fault(v: &View<'_>) -> Result<(), ScenarioError> {
    let default = PointSpec::default();
    let point = &default;
    let blank = View { point, ..*v };
    let (w, h) = (v.point.width, v.point.height);
    for f in &FIELDS {
        if f.applies(v.engine) && matches!(f.ty, Ty::U32 | Ty::U64 | Ty::Name(_) | Ty::Kind(_)) {
            continue;
        }
        let val = (f.get)(v);
        if !f.applies(v.engine) && val != (f.get)(&blank) {
            let message = format!("does not apply to engine = \"{}\"", v.engine.name());
            return Err(invalid(f.section, message));
        }
        let what = || scn_path(f);
        match val {
            Some(Val::S(s)) if s.chars().any(|c| c < ' ' && c != '\n' && c != '\t') => {
                return Err(invalid(&what(), "control characters are not representable"));
            }
            Some(Val::Cells(cells)) => {
                if let Some((x, y)) = cells.into_iter().find(|&(x, y)| x >= w || y >= h) {
                    let cell = ["cell", "probe"][usize::from(f.section == "probes")];
                    let message = format!("{cell} ({x}, {y}) is off the {w}x{h} torus");
                    return Err(invalid(&what(), message));
                }
            }
            Some(Val::F(x)) if !(0.0..=1.0).contains(&x) => {
                return Err(invalid(&what(), "fractions must lie in [0, 1]"));
            }
            _ => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_name_round_trips_through_its_field() {
        for (i, f) in FIELDS.iter().enumerate() {
            let (Ty::Name(names) | Ty::Kind(names)) = f.ty else {
                continue;
            };
            for name in names {
                let mut spec = EngineSpec::blank("");
                (f.set)(&mut spec, Val::N(name));
                assert_eq!((f.get)(&spec.view()), Some(Val::N(name)), "row {i}");
            }
        }
        // The rbc enums spell themselves; the table must agree.
        for (i, p) in RBC_PROTOCOL.iter().enumerate() {
            assert_eq!(p.name(), RBC_PROTOCOLS[i]);
        }
        for (i, k) in ScheduleKind::ALL.iter().enumerate() {
            assert_eq!(k.name(), SCHEDULES[i]);
        }
        for (i, b) in ByzantineBehavior::ALL.iter().enumerate() {
            assert_eq!(b.name(), BEHAVIORS[i]);
        }
        for (i, e) in ENGINE.iter().enumerate() {
            assert_eq!(e.name(), ENGINES[i]);
        }
    }

    #[test]
    fn axis_names_are_unique_and_engine_checked() {
        let names = axis_names();
        assert_eq!(names.len(), 15);
        for (i, name) in names.iter().enumerate() {
            assert!(!names[..i].contains(name), "{name} twice");
        }
        let point = PointSpec::default();
        assert!(axis("warp", EngineKind::Counting, &point).is_err());
        assert!(axis("k", EngineKind::Counting, &point).is_err());
        assert!(axis("k", EngineKind::Slot, &point).is_ok());
        assert!(
            axis("m", EngineKind::Counting, &point).is_err(),
            "m needs starved"
        );
    }
}
