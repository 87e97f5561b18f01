//! End-to-end tests for the service layer: a real `Server` on an
//! ephemeral port, the real `scenarios/f2.scn` file, the real client —
//! the acceptance gate for `bftbcast serve`.
//!
//! The contract under test (mirrored by `scripts/smoke_serve.sh` in
//! CI, which drives the same flow through the built binary):
//!
//! 1. submitting f2.scn reproduces the Figure 2 goldens
//!    (2065 / 1947 / 947, stall 84) bit-identically;
//! 2. an immediate resubmit completes with **zero engine runs** — the
//!    job reports `cache_hits == points, cache_misses == 0` and the
//!    store grows by nothing.

use std::sync::Arc;

use bftbcast::json::Json;
use bftbcast_server::{client, Server};
use bftbcast_store::Store;

fn read_scn(rel: &str) -> String {
    let path = format!("{}/../{rel}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

fn start(store: Arc<Store>) -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind("127.0.0.1:0", store, None).expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.serve());
    (addr, handle)
}

fn field_u64(line: &str, key: &str) -> u64 {
    Json::parse(line)
        .unwrap_or_else(|e| panic!("bad JSON line {line:?}: {e}"))
        .get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("no u64 {key:?} in {line}"))
}

/// The acceptance criterion, verbatim: f2 goldens over the wire, then
/// a resubmit that is pure cache.
#[test]
fn f2_over_the_wire_then_warm_resubmit_is_all_hits() {
    let store = Arc::new(Store::in_memory());
    let (addr, handle) = start(Arc::clone(&store));
    let f2 = read_scn("scenarios/f2.scn");

    // Cold submit: the engines actually run.
    let job = client::submit(&addr, &f2).expect("submit f2");
    let (rows, trailer) = client::results(&addr, &job).expect("results");
    assert_eq!(rows.len(), 1, "f2 is a single point");
    for needle in [
        "\"scenario\":\"f2\"",
        "\"intake\":2065",
        "\"intake\":1947",
        "\"tally_wrong\":947",
        "\"accepted_true\":84",
        "\"complete\":false",
    ] {
        assert!(
            rows[0].contains(needle),
            "{needle} missing from {}",
            rows[0]
        );
    }
    assert_eq!(field_u64(&trailer, "cache_misses"), 1);
    assert_eq!(field_u64(&trailer, "cache_hits"), 0);
    let entries_after_cold = store.len();
    assert_eq!(entries_after_cold, 1);

    // Warm resubmit: zero engine runs — hits == points, misses == 0.
    let job2 = client::submit(&addr, &f2).expect("resubmit f2");
    assert_ne!(job2, job, "a fresh job id");
    let (rows2, trailer2) = client::results(&addr, &job2).expect("warm results");
    assert_eq!(rows2, rows, "warm rows are bit-identical to cold rows");
    assert_eq!(field_u64(&trailer2, "cache_hits"), 1, "hits == points");
    assert_eq!(field_u64(&trailer2, "cache_misses"), 0, "misses == 0");
    assert_eq!(store.len(), entries_after_cold, "the store grew by nothing");

    // STATS agrees with the per-job accounting.
    let stats = client::stats(&addr).expect("stats");
    assert_eq!(field_u64(&stats, "store_entries"), 1);
    assert_eq!(field_u64(&stats, "store_hits"), 1);
    assert_eq!(field_u64(&stats, "store_misses"), 1);
    assert_eq!(field_u64(&stats, "jobs_done"), 2);

    client::shutdown(&addr).expect("shutdown");
    handle.join().unwrap().unwrap();
}

/// The rbc engine flows through serve/store like every other engine:
/// a cold submit of the three-protocol comparison runs 3 points, and a
/// warm resubmit replays all of them from the store — hits == points,
/// misses == 0, bit-identical rows.
#[test]
fn rbc_compare_warm_resubmit_is_all_hits() {
    let store = Arc::new(Store::in_memory());
    let (addr, handle) = start(Arc::clone(&store));
    let scn = read_scn("scenarios/rbc-compare.scn");

    let job = client::submit(&addr, &scn).expect("submit rbc-compare");
    let (rows, trailer) = client::results(&addr, &job).expect("results");
    assert_eq!(rows.len(), 3, "counting | bracha | ctrbc");
    for (row, protocol) in rows.iter().zip(["counting", "bracha", "ctrbc"]) {
        assert!(row.contains("\"kind\":\"rbc\""), "{row}");
        assert!(
            row.contains(&format!("\"protocol\":\"{protocol}\"")),
            "{row}"
        );
        assert!(row.contains("\"reliable\":true"), "{row}");
    }
    assert_eq!(field_u64(&trailer, "cache_misses"), 3);
    assert_eq!(field_u64(&trailer, "cache_hits"), 0);
    assert_eq!(store.len(), 3);

    let job2 = client::submit(&addr, &scn).expect("resubmit rbc-compare");
    let (rows2, trailer2) = client::results(&addr, &job2).expect("warm results");
    assert_eq!(rows2, rows, "warm rows are bit-identical to cold rows");
    assert_eq!(field_u64(&trailer2, "cache_hits"), 3, "hits == points");
    assert_eq!(field_u64(&trailer2, "cache_misses"), 0, "misses == 0");
    assert_eq!(store.len(), 3, "the store grew by nothing");

    client::shutdown(&addr).expect("shutdown");
    handle.join().unwrap().unwrap();
}

/// The acceptance criterion for the spec layer: submitting f2 as
/// `.scn` text and as an inline spec JSON body yields bit-identical
/// JSONL goldens and identical store keys — a warm cache from one
/// form serves the other with hits == points, misses == 0.
#[test]
fn scn_and_inline_spec_submissions_share_store_entries() {
    let store = Arc::new(Store::in_memory());
    let (addr, handle) = start(Arc::clone(&store));
    let f2 = read_scn("scenarios/f2.scn");

    // Cold: the .scn form computes the goldens.
    let job = client::submit(&addr, &f2).expect("submit .scn");
    let (rows, trailer) = client::results(&addr, &job).expect("results");
    assert_eq!(field_u64(&trailer, "cache_misses"), 1);
    for needle in ["\"intake\":2065", "\"intake\":1947", "\"tally_wrong\":947"] {
        assert!(
            rows[0].contains(needle),
            "{needle} missing from {}",
            rows[0]
        );
    }
    assert!(rows[0].contains("\"accepted_true\":84"), "{}", rows[0]);
    assert_eq!(store.len(), 1);

    // The same configuration as canonical spec JSON (the conversion the
    // `bftbcast spec` verb performs).
    let file = bftbcast::ScenarioFile::parse(&f2).unwrap();
    let specs = file.specs().unwrap();
    assert_eq!(specs.len(), 1, "f2 is one point");
    let spec_json = specs[0].to_json();

    // Warm: the inline-spec form is served entirely from the .scn
    // form's cache — identical keys, zero engine runs, identical rows.
    let job2 = client::submit_spec(&addr, &spec_json).expect("submit spec");
    let (rows2, trailer2) = client::results(&addr, &job2).expect("spec results");
    assert_eq!(rows2, rows, "bit-identical JSONL across submission forms");
    assert_eq!(field_u64(&trailer2, "cache_hits"), 1, "hits == points");
    assert_eq!(field_u64(&trailer2, "cache_misses"), 0, "misses == 0");
    assert_eq!(store.len(), 1, "no new store entries: identical keys");

    // And the reverse direction: a fresh server warmed by the spec form
    // serves the .scn form from cache.
    client::shutdown(&addr).expect("shutdown");
    handle.join().unwrap().unwrap();
    let store = Arc::new(Store::in_memory());
    let (addr, handle) = start(Arc::clone(&store));
    let job = client::submit_spec(&addr, &spec_json).expect("spec first");
    let (rows3, _) = client::results(&addr, &job).expect("spec cold results");
    assert_eq!(rows3, rows);
    let job = client::submit(&addr, &f2).expect(".scn second");
    let (_, trailer4) = client::results(&addr, &job).expect(".scn warm results");
    assert_eq!(field_u64(&trailer4, "cache_hits"), 1);
    assert_eq!(field_u64(&trailer4, "cache_misses"), 0);
    client::shutdown(&addr).expect("shutdown");
    handle.join().unwrap().unwrap();
}

/// Malformed or invalid inline specs are rejected at submit time with
/// a named error, exactly like scenario text.
#[test]
fn bad_inline_specs_are_rejected_at_submit() {
    let (addr, handle) = start(Arc::new(Store::in_memory()));
    for (label, line) in [
        ("not an object", "{\"cmd\":\"submit\",\"spec\":[1,2]}"),
        (
            "unknown field",
            "{\"cmd\":\"submit\",\"spec\":{\"width\":15,\"height\":15,\"r\":1,\"warp\":9}}",
        ),
        (
            "missing r",
            "{\"cmd\":\"submit\",\"spec\":{\"width\":15,\"height\":15}}",
        ),
        (
            "both forms",
            "{\"cmd\":\"submit\",\"scenario\":\"x\",\"spec\":{}}",
        ),
    ] {
        let lines = client::request(&addr, line).unwrap();
        assert!(lines[0].contains("\"ok\":false"), "{label}: {lines:?}");
    }
    // A valid minimal spec still goes through afterwards.
    let job = client::submit_spec(
        &addr,
        "{\"width\":15,\"height\":15,\"r\":1,\"mf\":4,\"placement\":{\"kind\":\"lattice\"}}",
    )
    .unwrap();
    let (rows, _) = client::results(&addr, &job).unwrap();
    assert_eq!(rows.len(), 1);
    assert!(rows[0].contains("\"complete\":true"), "{}", rows[0]);
    client::shutdown(&addr).unwrap();
    handle.join().unwrap().unwrap();
}

/// A sweep too large to expand — or whose range bound overflows — is a
/// typed rejection at submit, computed from the axis lengths before
/// anything is allocated, and the server keeps answering.
#[test]
fn oversized_sweeps_are_rejected_and_the_server_survives() {
    let (addr, handle) = start(Arc::new(Store::in_memory()));
    for range in ["0..4000000000", "0..=9223372036854775807"] {
        let text = format!("[topology]\nside = 15\nr = 1\n[sweep]\nseed = \"{range}\"\n");
        let err = client::submit(&addr, &text).unwrap_err();
        assert!(err.to_string().contains("sweep.seed"), "{range}: {err}");
        client::ping(&addr).expect("the server still answers");
    }
    client::shutdown(&addr).unwrap();
    handle.join().unwrap().unwrap();
}

/// The server's rows are byte-for-byte what the offline batch runner
/// prints — a client cannot tell whether a row was computed or cached,
/// or whether it came from `serve` or `run --scenario`.
#[test]
fn served_rows_match_offline_run_exactly() {
    let f2 = read_scn("scenarios/f2.scn");
    let file = bftbcast::ScenarioFile::parse(&f2).unwrap();
    let offline = bftbcast::run_file(&file).unwrap().jsonl();

    let (addr, handle) = start(Arc::new(Store::in_memory()));
    let job = client::submit(&addr, &f2).unwrap();
    let (rows, _) = client::results(&addr, &job).unwrap();
    assert_eq!(rows.join("\n") + "\n", offline);
    client::shutdown(&addr).unwrap();
    handle.join().unwrap().unwrap();
}

/// A file-backed store outlives the server: a second server process
/// (simulated by a second `Server` on the same directory) starts warm.
#[test]
fn store_directory_survives_server_restarts() {
    let dir = std::env::temp_dir().join(format!(
        "bftbcast-service-test-store-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mini = concat!(
        "name = \"mini\"\n",
        "[topology]\nside = 15\nr = 1\n",
        "[faults]\nt = 1\nmf = 4\n",
        "[placement]\nkind = \"lattice\"\n",
        "[protocol]\nkind = \"starved\"\nm = 4\n",
        "[sweep]\nm = [2, 4, 8]\n",
    );

    let (addr, handle) = start(Arc::new(Store::open(&dir).unwrap()));
    let job = client::submit(&addr, mini).unwrap();
    let (_, trailer) = client::results(&addr, &job).unwrap();
    assert_eq!(field_u64(&trailer, "cache_misses"), 3);
    client::shutdown(&addr).unwrap();
    handle.join().unwrap().unwrap();

    // "Restart": a fresh Server over the same directory.
    let (addr, handle) = start(Arc::new(Store::open(&dir).unwrap()));
    let job = client::submit(&addr, mini).unwrap();
    let (_, trailer) = client::results(&addr, &job).unwrap();
    assert_eq!(field_u64(&trailer, "cache_hits"), 3, "warm across restart");
    assert_eq!(field_u64(&trailer, "cache_misses"), 0);
    client::shutdown(&addr).unwrap();
    handle.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Concurrent submitters of the same scenario: the single-flight store
/// means every point is computed at most once across both jobs.
#[test]
fn concurrent_identical_submissions_share_computes() {
    let store = Arc::new(Store::in_memory());
    let (addr, handle) = start(Arc::clone(&store));
    let mini = concat!(
        "[topology]\nside = 15\nr = 1\n",
        "[faults]\nt = 1\nmf = 4\n",
        "[protocol]\nkind = \"starved\"\nm = 4\n",
        "[sweep]\nm = [2, 4, 8, 16]\n",
    );
    let submitters: Vec<_> = (0..4)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let job = client::submit(&addr, mini).unwrap();
                client::results(&addr, &job).unwrap()
            })
        })
        .collect();
    let results: Vec<_> = submitters.into_iter().map(|h| h.join().unwrap()).collect();
    for (rows, _) in &results[1..] {
        assert_eq!(rows, &results[0].0, "every job sees identical rows");
    }
    assert_eq!(store.len(), 4, "4 distinct points, computed once each");
    let total_misses: u64 = results
        .iter()
        .map(|(_, t)| field_u64(t, "cache_misses"))
        .sum();
    assert_eq!(total_misses, 4, "no point was ever computed twice");
    client::shutdown(&addr).unwrap();
    handle.join().unwrap().unwrap();
}
