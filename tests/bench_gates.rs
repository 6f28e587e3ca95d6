//! The `BENCH_sim.json` gate table (`stepstone_bench::gates`), which `make
//! bench-smoke` applies through `bench_sim --check`: the committed file
//! passes against itself, a copy with one field moved past its bound fails
//! under every rule kind and names that field's path, a copy just inside
//! the bound passes, and a file that is not JSON is an error, not a panic.

use std::path::Path;
use stepstone_bench::gates::{check, check_files, Failure};
use stepstone_bench::Json;

const COMMITTED: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_sim.json");

fn committed() -> Json {
    let text = std::fs::read_to_string(COMMITTED).expect("read the committed BENCH_sim.json");
    Json::parse(&text).expect("the committed BENCH_sim.json is JSON")
}

/// The committed file with each `(path, JSON text)` set.
fn perturbed(edits: &[(&str, &str)]) -> Json {
    let mut doc = committed();
    for &(path, text) in edits {
        let mut v = &mut doc;
        for seg in path.split('.') {
            let mut parts = seg.split('[');
            let key = parts.next().unwrap();
            v = match v {
                Json::Obj(fields) => &mut fields.iter_mut().find(|(k, _)| k == key).unwrap().1,
                _ => panic!("{path}: no object at {key}"),
            };
            for idx in parts {
                let Json::Arr(items) = v else { panic!("{path}: no array at {idx}") };
                v = &mut items[idx.trim_end_matches(']').parse::<usize>().unwrap()];
            }
        }
        *v = Json::parse(text).unwrap();
    }
    doc
}

/// `(path, JSON text)` edits of the committed file.
type Edits = &'static [(&'static str, &'static str)];

fn lines(failures: &[Failure]) -> String {
    failures.iter().map(|f| format!("\n  {f}")).collect()
}

#[test]
fn committed_file_passes_and_round_trips() {
    let c = committed();
    let failures = check(&c, &c);
    assert!(failures.is_empty(), "committed BENCH_sim.json fails its own gates:{}", lines(&failures));
    // The printer writes back what the parser read, number text included.
    assert_eq!(Json::parse(&c.to_string()).unwrap(), c);
}

#[test]
fn every_rule_kind_names_the_perturbed_field() {
    // (edits, the path a failure must name, text its bound must contain)
    let cases: &[(Edits, &str, &str)] = &[
        // Exact: a whole serving sweep row, and a leaf deep in a subtree.
        (&[("serving.sweep[2].mean_queue_depth", "46.174")], "serving.sweep[2].mean_queue_depth", "== committed"),
        (&[("paging.arms[0].run_counters.hist[4]", "1048065")], "paging.arms[0].run_counters.hist[4]", "== committed"),
        (&[("backends.presets", "[]")], "backends.presets", "arrays of equal length"),
        (&[("speedup_streaming_vs_seed", "7.74")], "speedup_streaming_vs_seed", "0.7 x committed"),
        (&[("agen_counters.boundary_successors", "17")], "agen_counters.boundary_successors", "1.1 x committed + 16"),
        (&[("subpaper.agen_ns_per_span", "66.51")], "subpaper.agen_ns_per_span", "1.75 x committed share"),
        (&[("runs[1].ns_per_block", "61.66")], "runs[1].ns_per_block", "max(30, 1.35 x committed)"),
        (&[("backends.analytic.speedup_vs_exact", "19.9")], "backends.analytic.speedup_vs_exact", ">= 20"),
        (
            &[("config.threads", "2"), ("speedup_parallel_vs_serial", "0.89")],
            "speedup_parallel_vs_serial",
            "two or more threads",
        ),
        // Fresh-only invariants, one per kind.
        (&[("serving.serial_equals_parallel", "false")], "serving.serial_equals_parallel", "is true"),
        (&[("agen_counters.window_jumps", "0")], "agen_counters.window_jumps", "> 0"),
        (&[("run_counters.run_blocks", "135168")], "run_counters.run_blocks", "> run_counters.runs"),
        (
            &[("fabric.topologies[1].reduce_cycles", "640788")],
            "fabric.topologies[1].reduce_cycles",
            ">= fabric.host_dma.reduce_cycles",
        ),
        (&[("paging.identity.sim_cycles", "10432663")], "paging.identity.sim_cycles", "== backends.exact.sim_cycles"),
        (
            &[("paging.arms[2].sampled.page_splits", "1")],
            "paging.arms[2].sampled.page_splits",
            "<= the element before",
        ),
        (
            &[("paging.arms[1].sampled.locality_vs_native", "0.1000")],
            "paging.arms[1].sampled.locality_vs_native",
            ">= the element before",
        ),
        (
            &[
                ("fabric.topologies[0].links[2].messages", "0"),
                ("fabric.topologies[0].links[3].messages", "0"),
                ("fabric.topologies[0].links[4].messages", "0"),
            ],
            "fabric.topologies[0].links",
            "an element with messages",
        ),
    ];
    let c = committed();
    for &(edits, path, bound) in cases {
        let failures = check(&perturbed(edits), &c);
        assert!(
            failures.iter().any(|f| f.path == path && f.bound.contains(bound)),
            "{edits:?}: no failure at {path} with bound '{bound}':{}",
            lines(&failures)
        );
    }
}

#[test]
fn values_just_inside_each_bound_pass() {
    let inside: &[Edits] = &[
        &[("speedup_streaming_vs_seed", "7.76")],
        &[("agen_counters.boundary_successors", "16")],
        &[("subpaper.agen_ns_per_span", "66.49")],
        &[("runs[1].ns_per_block", "61.65")],
        &[("backends.analytic.speedup_vs_exact", "20.0")],
        &[("config.threads", "2"), ("speedup_parallel_vs_serial", "0.900")],
        // One thread: the sharded engine is not held to the floor.
        &[("speedup_parallel_vs_serial", "0.5")],
        &[("runs[0].wall_ns", "1"), ("serving.warm_vs_cold.cold_wall_ns", "1")],
    ];
    let c = committed();
    for &edits in inside {
        let failures = check(&perturbed(edits), &c);
        assert!(failures.is_empty(), "{edits:?}:{}", lines(&failures));
    }
}

#[test]
fn malformed_files_are_errors_not_panics() {
    let text = std::fs::read_to_string(COMMITTED).unwrap();
    let deep = "[".repeat(100_000);
    for bad in [&text[..text.len() / 2], "", "not json", "{\"a\": 1,}", "[1 2]", "01", "\"\\q\"", &deep] {
        assert!(Json::parse(bad).is_err(), "parsed {:?}", &bad[..bad.len().min(40)]);
    }
    let dir = std::env::temp_dir().join(format!("bench_gates_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let truncated = dir.join("truncated.json");
    std::fs::write(&truncated, &text[..text.len() / 2]).unwrap();
    let committed_path = Path::new(COMMITTED);
    let results = [
        check_files(&truncated, committed_path),
        check_files(committed_path, &truncated),
        check_files(&dir.join("missing.json"), committed_path),
    ];
    std::fs::remove_dir_all(&dir).unwrap();
    for r in results {
        assert!(r.is_err(), "{r:?}");
    }
    // Well-formed JSON of the wrong shape fails the gates instead.
    for doc in ["{}", "[1]", "{\"runs\": 3, \"paging\": {\"arms\": {}}}"] {
        assert!(!check(&Json::parse(doc).unwrap(), &committed()).is_empty(), "{doc}");
    }
}
