//! Seed → workload inputs. Every input is `.scn` text, so the program
//! under test receives exactly what a user would write.
//!
//! The axes that set a point's cost (engine, torus side, radius,
//! adversary strategy, budget, RBC schedule and behaviour) are the same
//! in every cycle and every run; the seed picks everything else
//! (Byzantine placement, engine seeds, probe cells, protocol modes).
//! Two seeds therefore load the program equally while running
//! different points, and a run's mix does not depend on how many
//! cycles it completes.

/// SplitMix64: tiny, seedable, and stable across platforms.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `seed` and a path of labels (cycle,
    /// file, request index, ...).
    pub fn stream(seed: u64, path: &[u64]) -> Rng {
        let mut rng = Rng(seed ^ 0x6a09_e667_f3bc_c908);
        for &part in path {
            rng.0 ^= part.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            rng.next_u64();
        }
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// One element of `items`.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.next_u64() as usize % items.len()]
    }

    /// A run seed small enough to read as a plain `.scn` integer.
    fn seed(&mut self) -> u64 {
        self.next_u64() >> 33
    }
}

/// Stream labels, so no two generators share a stream.
const GRID: u64 = 1;
const RBC: u64 = 2;
const SERVE: u64 = 3;

/// grid-sweep's menu: (engine, adversary, side). Strategy-driven
/// adversaries build the topology's membership bitset; `passive` and
/// the crash engine only walk the CSR adjacency.
const GRID_MENU: &[(&str, &str, u64)] = &[
    ("counting", "chaos", 192),
    ("counting", "greedy", 160),
    ("counting", "oracle", 224),
    ("counting", "passive", 384),
    ("crash", "", 320),
    ("crash", "", 256),
    ("counting", "chaos", 240),
];

/// Points per grid-sweep file (a `seed` axis).
pub const GRID_SEEDS: usize = 3;

/// One cycle of grid-sweep: one sweep file per menu entry, each
/// running protocol B (m = 2·m0) over [`GRID_SEEDS`] engine seeds.
pub fn grid_cycle(seed: u64, cycle: u64) -> Vec<String> {
    GRID_MENU
        .iter()
        .enumerate()
        .map(|(i, &(engine, adversary, side))| {
            let mut rng = Rng::stream(seed, &[GRID, cycle, i as u64]);
            let count = side * side / rng.range(180, 220);
            let seeds: Vec<String> = (0..GRID_SEEDS).map(|_| rng.seed().to_string()).collect();
            let mut text = format!(
                "name = \"grid-{cycle}-{i}\"\nengine = \"{engine}\"\n\
                 [topology]\nside = {side}\nr = 2\n\
                 [faults]\nt = 1\nmf = 10\n\
                 [placement]\nkind = \"random\"\ncount = {count}\n\
                 [protocol]\nkind = \"b\"\n"
            );
            if engine == "crash" {
                let y0 = rng.range(side / 4, 3 * side / 4);
                text += &format!(
                    "[crash]\nkind = \"stripe\"\ny0 = {y0}\nheight = 1\nbehavior = \"immediate\"\n"
                );
            } else {
                text += &format!("[adversary]\nkind = \"{adversary}\"\n");
            }
            text + &format!("[sweep]\nseed = [{}]\n", seeds.join(", "))
        })
        .collect()
}

/// rbc-quorum's menu: (side, r). Bracha and CTRBC messages grow as n²,
/// so these sizes keep one point between ~5 ms (flood) and ~0.8 s.
/// An odd number of files puts the median of a cycle's file times (and
/// of its point times) inside one file's samples rather than at the gap
/// between two, where a nearest-rank median would read the largest
/// sample of one file.
const RBC_MENU: &[(u64, u64)] = &[
    (15, 1),
    (17, 1),
    (19, 1),
    (21, 1),
    (23, 1),
    (25, 1),
    (13, 2),
    (14, 2),
    (15, 2),
    (16, 2),
    (17, 2),
];

/// The RBC protocols every rbc-quorum file sweeps.
pub const RBC_PROTOCOLS: &[&str] = &["counting", "bracha", "ctrbc"];

const SCHEDULES: &[&str] = &["seeded", "fifo", "delay_quorum", "targeted_reorder", "gst"];

/// Two distinct cells of a `side`² torus, neither the source (0, 0).
fn two_cells(rng: &mut Rng, side: u64) -> [(u64, u64); 2] {
    loop {
        let a = (rng.range(0, side - 1), rng.range(0, side - 1));
        let b = (rng.range(0, side - 1), rng.range(0, side - 1));
        if a != b && a != (0, 0) && b != (0, 0) {
            return [a, b];
        }
    }
}

/// One cycle of rbc-quorum: one file per menu entry with t = 2
/// Byzantine nodes, sweeping one engine seed × the three protocols.
/// Each file has its own delivery schedule and Byzantine behaviour
/// (mute or equivocate), so a cycle covers every schedule under both.
pub fn rbc_cycle(seed: u64, cycle: u64) -> Vec<String> {
    RBC_MENU
        .iter()
        .enumerate()
        .map(|(i, &(side, r))| {
            let mut rng = Rng::stream(seed, &[RBC, cycle, i as u64]);
            let schedule = SCHEDULES[i % SCHEDULES.len()];
            let behavior = ["mute", "equivocate"][i % 2];
            let [a, b] = two_cells(&mut rng, side);
            let run_seed = rng.seed();
            let protocols: Vec<String> = RBC_PROTOCOLS.iter().map(|p| format!("\"{p}\"")).collect();
            format!(
                "name = \"rbc-{cycle}-{i}\"\nengine = \"rbc\"\n\
                 [topology]\nside = {side}\nr = {r}\n\
                 [faults]\nt = 2\nmf = 0\n\
                 [placement]\nkind = \"explicit\"\nnodes = [[{}, {}], [{}, {}]]\n\
                 [rbc]\npayload = 1024\nmax_waves = 10000\nschedule = \"{schedule}\"\nbehavior = \"{behavior}\"\n\
                 [sweep]\nseed = [{run_seed}]\nprotocol = [{}]\n",
                a.0,
                a.1,
                b.0,
                b.1,
                protocols.join(", ")
            )
        })
        .collect()
}

/// The serve-mix engines, in the order requests rotate through them.
pub const SERVE_ENGINES: &[&str] = &["counting", "crash", "slot", "agreement", "rbc"];

/// serve-mix's torus sides; with the engine they rotate over a
/// period of 15 requests. 31² comes twice so the two costliest shapes
/// (the slot engine at 31²) fill the top 2/15 of cold requests, and
/// the 90th percentile falls inside them rather than between two
/// shapes of similar cost.
const SERVE_SIDES: &[u64] = &[15, 31, 31];

/// serve-mix request `index`: a single-point scenario. The engine
/// rotates with the index and the side (and the counting and slot
/// adversaries) with each round of five, so every 15 requests cover
/// each engine on each side once.
pub fn serve_point(seed: u64, index: u64) -> String {
    let side = SERVE_SIDES[((index / 5) % SERVE_SIDES.len() as u64) as usize];
    serve_text(Rng::stream(seed, &[SERVE, index]), index, side)
}

/// Scenarios in the warm pool that serve-mix's report requests draw
/// from: one per engine.
pub const POOL: u64 = 5;

/// Pool scenario `k`: like [`serve_point`], on a 15² torus, so warm
/// map renders do not crowd the other requests off the two cores (a
/// render's time grows faster than the torus's cell count).
pub fn pool_point(seed: u64, k: u64) -> String {
    let index = (1 << 40) + k;
    serve_text(Rng::stream(seed, &[SERVE, index]), index, 15)
}

fn serve_text(mut rng: Rng, index: u64, side: u64) -> String {
    let engine = SERVE_ENGINES[(index % SERVE_ENGINES.len() as u64) as usize];
    let turn = ((index / 5) % 3) as usize;
    let run_seed = rng.seed();
    let probe = (rng.range(0, side - 1), rng.range(0, side - 1));
    let mut text = format!(
        "name = \"serve-{index}\"\nengine = \"{engine}\"\nseed = {run_seed}\n[topology]\nside = {side}\n"
    );
    match engine {
        "counting" => {
            let count = side * side / rng.range(40, 50);
            let adversary = ["greedy", "oracle", "chaos"][turn];
            text += &format!(
                "r = 2\n[faults]\nt = 1\nmf = 10\n[placement]\nkind = \"random\"\ncount = {count}\n\
                 [protocol]\nkind = \"b\"\n[adversary]\nkind = \"{adversary}\"\n"
            );
        }
        "crash" => {
            let count = side * side / rng.range(50, 60);
            text += &format!(
                "r = 2\n[faults]\nt = 1\nmf = 10\n[placement]\nkind = \"random\"\ncount = {count}\n\
                 [protocol]\nkind = \"b\"\n[crash]\nkind = \"stripe\"\ny0 = {}\nheight = 1\n",
                rng.range(2, side - 3)
            );
        }
        "slot" => {
            let count = side * side / rng.range(40, 50);
            let adversary = ["jammer", "canceller", "nack_forger"][turn];
            text += &format!(
                "r = 1\n[faults]\nt = 1\nmf = 4\n[placement]\nkind = \"random\"\ncount = {count}\n\
                 [reactive]\nk = 8\nadversary = \"{adversary}\"\n"
            );
        }
        "agreement" => {
            let (sx, sy) = (rng.range(0, side - 1), rng.range(0, side - 1));
            let mode = rng.pick(&["cheap", "proven"]);
            let source = rng.pick(&["correct", "split", "silent"]);
            text += &format!(
                "r = 2\n[faults]\nt = 1\nmf = 10\n[source]\nx = {sx}\ny = {sy}\n\
                 [placement]\nkind = \"explicit\"\nnodes = [[{}, {}]]\n\
                 [agreement]\nmode = \"{mode}\"\nsource = \"{source}\"\np1 = 0.{}\npe = 0.{}\n",
                (sx + 1) % side,
                (sy + 1) % side,
                rng.range(0, 9),
                rng.range(0, 9)
            );
        }
        _ => {
            let [a, b] = two_cells(&mut rng, side);
            // Equivocation doubles a flood's messages, so behaviour
            // follows the side; the schedule rotates every 15 requests.
            let schedule = SCHEDULES[((index / 15) % SCHEDULES.len() as u64) as usize];
            let behavior = ["equivocate", "mute", "mute"][turn];
            text += &format!(
                "r = 1\n[faults]\nt = 2\nmf = 0\n[placement]\nkind = \"explicit\"\nnodes = [[{}, {}], [{}, {}]]\n\
                 [rbc]\nprotocol = \"counting\"\npayload = 1024\nmax_waves = 10000\n\
                 schedule = \"{schedule}\"\nbehavior = \"{behavior}\"\n",
                a.0,
                a.1,
                b.0,
                b.1
            );
        }
    }
    text + &format!("[probes]\nnodes = [[{}, {}]]\n", probe.0, probe.1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bftbcast::ScenarioFile;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(grid_cycle(7, 3), grid_cycle(7, 3));
        assert_eq!(rbc_cycle(7, 3), rbc_cycle(7, 3));
        assert_eq!(serve_point(7, 11), serve_point(7, 11));
        assert_ne!(grid_cycle(7, 3), grid_cycle(8, 3));
        assert_ne!(rbc_cycle(7, 3), rbc_cycle(8, 3));
        assert_ne!(serve_point(7, 11), serve_point(8, 11));
        // Cycles and request indices are independent streams too.
        assert_ne!(grid_cycle(7, 3), grid_cycle(7, 4));
        assert_ne!(serve_point(7, 11), serve_point(7, 12));
        assert_eq!(pool_point(7, 2), pool_point(7, 2));
        assert_ne!(pool_point(7, 2), pool_point(8, 2));
    }

    #[test]
    fn every_generated_input_parses_with_the_menu_shape() {
        for seed in 0..4 {
            for text in grid_cycle(seed, 0) {
                let file = ScenarioFile::parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
                assert_eq!(file.points().len(), GRID_SEEDS, "{text}");
            }
            for text in rbc_cycle(seed, 0) {
                let file = ScenarioFile::parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
                assert_eq!(file.points().len(), RBC_PROTOCOLS.len(), "{text}");
            }
            for k in 0..POOL {
                let text = pool_point(seed, k);
                let file = ScenarioFile::parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
                assert_eq!(file.base().width, 15, "{text}");
            }
            for index in 0..20 {
                let text = serve_point(seed, index);
                let file = ScenarioFile::parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
                assert_eq!(file.points().len(), 1);
                let engine = SERVE_ENGINES[index as usize % SERVE_ENGINES.len()];
                assert_eq!(file.engine.name(), engine);
            }
        }
    }

    #[test]
    fn ranges_stay_inside_their_bounds() {
        let mut rng = Rng::stream(1, &[]);
        for _ in 0..1000 {
            let v = rng.range(15, 31);
            assert!((15..=31).contains(&v));
        }
        let mut rng = Rng::stream(2, &[9]);
        let [a, b] = two_cells(&mut rng, 3);
        assert_ne!(a, b);
        assert!(a != (0, 0) && b != (0, 0));
    }
}
