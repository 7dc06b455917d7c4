//! Metric and workload names: one alphabet, and the same set in the
//! code, in what a run emits, and in `BENCHMARK.json`.

use std::collections::BTreeSet;

use srj_benchmark::json::Json;
use srj_benchmark::metrics::{is_valid_name, END_TO_END, PER_LAYER};
use srj_benchmark::workload::{find, workloads, Scale};
use srj_benchmark::{layers, round};

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} missing in {entry}"))
}

#[test]
fn every_declared_name_is_valid_and_unique() {
    let mut seen = BTreeSet::new();
    for name in END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(PER_LAYER.iter().map(|m| m.name))
    {
        assert!(is_valid_name(name), "{name}");
        assert!(seen.insert(name), "{name} declared twice");
    }
    for w in workloads(Scale::Full) {
        assert!(is_valid_name(w.name), "{}", w.name);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
    }
    assert!(!is_valid_name(""));
    assert!(!is_valid_name("has space"));
    assert!(!is_valid_name("-leading"));
    assert!(!is_valid_name("µs"));
}

#[test]
fn benchmark_json_lists_exactly_the_declared_metrics() {
    let manifest = manifest();
    let entries = |key: &str| manifest.get(key).and_then(Json::as_arr).unwrap().to_vec();

    // End to end: the metrics that exist on every workload, with the
    // same unit, direction and bound.
    let declared: Vec<_> = END_TO_END.iter().filter(|m| m.gated).collect();
    let listed = entries("end_to_end");
    assert_eq!(listed.len(), declared.len());
    for (entry, def) in listed.iter().zip(&declared) {
        assert_eq!(field(entry, "name"), def.name);
        assert_eq!(field(entry, "unit"), def.unit, "{}", def.name);
        assert_eq!(field(entry, "better"), def.better.label(), "{}", def.name);
        assert_eq!(
            entry.get("bound").and_then(Json::as_f64),
            Some(def.bound),
            "{}",
            def.name
        );
        assert!(def.bound <= 0.25, "{}", def.name);
    }

    // Per layer: the workload-specific end-to-end metrics first, then
    // every layer metric.
    let declared: Vec<(&str, &str, &str)> = END_TO_END
        .iter()
        .filter(|m| !m.gated)
        .map(|m| (m.name, m.unit, m.better.label()))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit, m.better.label())))
        .collect();
    let listed = entries("per_layer");
    assert!(listed.len() <= 128);
    assert_eq!(
        listed.iter().map(|e| field(e, "name")).collect::<Vec<_>>(),
        declared.iter().map(|d| d.0).collect::<Vec<_>>()
    );
    for (entry, (name, unit, better)) in listed.iter().zip(&declared) {
        assert_eq!(field(entry, "unit"), *unit, "{name}");
        assert_eq!(field(entry, "better"), *better, "{name}");
    }

    let listed = entries("workloads");
    let declared = workloads(Scale::Full);
    assert_eq!(listed.len(), declared.len());
    for (entry, w) in listed.iter().zip(&declared) {
        assert_eq!(field(entry, "name"), w.name);
        assert_eq!(field(entry, "why"), w.why);
    }
}

/// What a round and a traced layer run actually emit, against the
/// declared tables — both ways.
#[test]
fn a_run_emits_the_declared_names_and_no_others() {
    let w = find("mixed_updates", Scale::Smoke).unwrap();
    let (round, server) = round::run_round(&w, 11, true).unwrap();
    drop(server);
    assert_eq!(round.failed, 0);
    let declared_e2e: BTreeSet<&str> = END_TO_END.iter().map(|m| m.name).collect();
    let emitted_e2e: BTreeSet<&str> = round.metrics.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(emitted_e2e, declared_e2e);

    let layers = layers::run_layers(&w, 11).unwrap();
    let mut emitted: BTreeSet<String> = layers.metrics.iter().map(|(k, _)| k.clone()).collect();
    emitted.extend(round.counts.iter().map(|(k, _)| k.clone()));
    // Derived by the parent from a round and a layer run together.
    for derived in [
        "server.residual_us",
        "server.wire_ns_per_sample",
        "server.request_p99_us",
    ] {
        emitted.insert(derived.to_string());
    }
    let declared: BTreeSet<String> = PER_LAYER.iter().map(|m| m.name.to_string()).collect();
    assert_eq!(emitted, declared);
    for (name, value) in layers.metrics.iter().chain(&round.counts) {
        assert!(value.is_finite(), "{name} = {value}");
    }
}
