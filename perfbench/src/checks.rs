//! Untimed golden points: the paper's Figure 2 construction and the
//! three-protocol RBC comparison, with their pinned numbers. Every
//! workload runs them before measuring; a mismatch fails the run.

use bftbcast::json::Json;

/// Figure 2: r = 4, t = 1, mf = 1000, m = m0 + 1 under the
/// per-receiver oracle (the committed `f2` scenario).
pub const F2: &str = concat!(
    "name = \"f2\"\nengine = \"counting\"\n",
    "[topology]\nwidth = 45\nheight = 45\nr = 4\n",
    "[faults]\nt = 1\nmf = 1000\n",
    "[placement]\nkind = \"lattice\"\noffset = 41\n",
    "[protocol]\nkind = \"starved\"\nm = 59\n",
    "[adversary]\nkind = \"oracle\"\n",
    "[probes]\nnodes = [[0, 5], [5, 1]]\n",
);

/// Flood, Bracha and CTRBC on one 15² torus with t = 2 (the committed
/// `rbc-compare` scenario).
pub const RBC_COMPARE: &str = concat!(
    "name = \"rbc-compare\"\nengine = \"rbc\"\nseed = 7\n",
    "[topology]\nside = 15\nr = 1\n",
    "[faults]\nt = 2\nmf = 0\n",
    "[placement]\nkind = \"explicit\"\nnodes = [[3, 3], [10, 11]]\n",
    "[rbc]\npayload = 4096\nmax_waves = 10000\n",
    "[probes]\nnodes = [[7, 2], [3, 3]]\n",
    "[sweep]\nprotocol = [\"counting\", \"bracha\", \"ctrbc\"]\n",
);

/// Pinned `(messages, wire_bits, waves)` per RBC protocol.
const RBC_GOLDENS: [(&str, u64, u64, u64); 3] = [
    ("counting", 1_784, 7_335_808, 9),
    ("bracha", 797_448, 3_279_106_176, 20),
    ("ctrbc", 801_016, 681_489_784, 20),
];

/// A golden checker: the mismatches of a scenario's JSONL rows.
pub type Check = fn(&str) -> Vec<String>;

/// The golden scenarios, as `(text, checker)` pairs.
pub fn goldens() -> [(&'static str, Check); 2] {
    [(F2, check_f2), (RBC_COMPARE, check_rbc_compare)]
}

/// Mismatches of the f2 rows against 2065 / 1947 / 947 / 84.
pub fn check_f2(rows: &str) -> Vec<String> {
    [
        "\"intake\":2065",
        "\"intake\":1947",
        "\"tally_wrong\":947",
        "\"accepted_true\":84",
    ]
    .iter()
    .filter(|needle| !rows.contains(*needle))
    .map(|needle| format!("f2 golden {needle} missing"))
    .collect()
}

/// Mismatches of the rbc-compare rows against the pinned triples.
pub fn check_rbc_compare(rows: &str) -> Vec<String> {
    let lines: Vec<&str> = rows.lines().collect();
    if lines.len() != RBC_GOLDENS.len() {
        return vec![format!("rbc-compare: {} rows, expected 3", lines.len())];
    }
    let mut failures = Vec::new();
    for (line, (protocol, messages, wire_bits, waves)) in lines.iter().zip(RBC_GOLDENS) {
        let doc = match Json::parse(line) {
            Ok(doc) => doc,
            Err(e) => {
                failures.push(format!("rbc-compare {protocol}: bad row: {e}"));
                continue;
            }
        };
        let field = |name: &str| doc.get("outcome")?.get(name)?.as_u64();
        let got = (field("messages"), field("wire_bits"), field("waves"));
        if got != (Some(messages), Some(wire_bits), Some(waves)) {
            failures.push(format!(
                "rbc-compare {protocol}: got {got:?}, expected ({messages}, {wire_bits}, {waves})"
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use bftbcast::{run_file, ScenarioFile};

    #[test]
    fn goldens_pass_on_real_rows_and_fail_on_altered_rows() {
        let alterations = [
            ("\"accepted_true\":84", "\"accepted_true\":85"),
            ("\"messages\":797448", "\"messages\":797449"),
        ];
        for ((text, check), (from, to)) in goldens().into_iter().zip(alterations) {
            let rows = run_file(&ScenarioFile::parse(text).unwrap())
                .unwrap()
                .jsonl();
            assert_eq!(check(&rows), Vec::<String>::new());
            assert!(rows.contains(from), "{rows}");
            assert_eq!(check(&rows.replace(from, to)).len(), 1);
        }
        assert_eq!(check_f2("").len(), 4);
        assert_eq!(check_rbc_compare("").len(), 1);
    }
}
