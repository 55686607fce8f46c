//! Observability integration: the `cwa-obs` registry wired through the
//! full sim → vantage → analysis pipeline must (a) produce a valid
//! JSON snapshot covering every pipeline stage, and (b) never perturb
//! the study output — reports stay bit-identical with metrics enabled
//! or disabled.

use std::sync::Arc;

use cwa_repro::core::{Study, StudyConfig};
use cwa_repro::obs::{Registry, Tracer};

fn small_config() -> StudyConfig {
    StudyConfig::test_small()
}

#[test]
fn metrics_snapshot_covers_pipeline_and_reports_match() {
    let reg_serial = Arc::new(Registry::new());
    let serial = Study::new(small_config())
        .with_metrics(Arc::clone(&reg_serial))
        .run()
        .expect("small study produces matching flows");
    let plain = Study::new(small_config())
        .run()
        .expect("small study produces matching flows");

    // Identical reports with metrics on or off once the volatile
    // wall-clock phase timings are stripped.
    assert_eq!(
        serial.strip_volatile(),
        plain.strip_volatile(),
        "metrics on == off"
    );

    // The manifest carries provenance either way.
    assert_eq!(plain.manifest.seed, plain.config.sim.seed);
    assert_eq!(plain.manifest.config_hash, serial.manifest.config_hash);
    assert!(!plain.manifest.phase_timings.is_empty());

    // The snapshot is valid JSON (parseable by the workspace parser) …
    let json = reg_serial.to_json_pretty();
    let parsed: serde_json::Value = serde_json::from_str(&json).expect("snapshot is valid JSON");
    drop(parsed);

    // … and covers every stage of the pipeline: traffic generation,
    // sampling, cache evictions, collection, anonymization, sequence
    // accounting, and each analysis stage's duration.
    for key in [
        "\"schema\"",
        "\"simnet.traffic.flow_events\"",
        "\"simnet.traffic.flow_events.day00\"",
        "\"simnet.router.00.sampled_packets\"",
        "\"simnet.router.00.unsampled_packets\"",
        "\"simnet.cache.evictions\"",
        "\"simnet.cache.packets_seen\"",
        "\"netflow.collector.records\"",
        "\"netflow.collector.anonymized_addresses\"",
        "\"netflow.collector.sequence_lost\"",
        "\"netflow.collector.decode_errors\"",
        "\"phase.simulate\"",
        "\"analysis.filter\"",
        "\"analysis.timeseries\"",
        "\"analysis.geoloc\"",
        "\"analysis.persistence\"",
        "\"analysis.outbreak\"",
        "\"analysis.filter.records_matched\"",
    ] {
        assert!(json.contains(key), "metrics snapshot missing {key}");
    }

    // Headline counters are live and consistent with the report.
    assert!(reg_serial.counter("simnet.traffic.flow_events").get() > 0);
    assert_eq!(
        reg_serial.counter("netflow.collector.records").get(),
        serial.total_records,
        "collector counter equals the report's record count"
    );
    assert_eq!(
        reg_serial.counter("analysis.filter.records_matched").get(),
        serial.matching_flows,
    );
}

/// The flight recorder is observation-only: with a tracer attached the
/// report stays bit-identical (after `strip_volatile`) to the untraced
/// run — across the batch, streaming, and sharded drivers alike.
#[test]
fn tracer_never_perturbs_reports() {
    let traced_batch = Study::new(small_config())
        .with_trace(Arc::new(Tracer::new()))
        .run()
        .expect("small study produces matching flows");
    let plain_batch = Study::new(small_config())
        .run()
        .expect("small study produces matching flows");
    assert_eq!(
        traced_batch.strip_volatile(),
        plain_batch.strip_volatile(),
        "batch: tracer on == off"
    );

    let traced_streaming = Study::new(small_config())
        .with_trace(Arc::new(Tracer::new()))
        .run_streaming()
        .expect("small study produces matching flows");
    let plain_streaming = Study::new(small_config())
        .run_streaming()
        .expect("small study produces matching flows");
    assert_eq!(
        traced_streaming.strip_volatile(),
        plain_streaming.strip_volatile(),
        "streaming: tracer on == off"
    );

    let traced_sharded = Study::new(small_config())
        .with_trace(Arc::new(Tracer::new()))
        .run_sharded(2)
        .expect("small study produces matching flows");
    let plain_sharded = Study::new(small_config())
        .run_sharded(2)
        .expect("small study produces matching flows");
    assert_eq!(
        traced_sharded.strip_volatile(),
        plain_sharded.strip_volatile(),
        "sharded(2): tracer on == off"
    );
}

/// A sharded run's trace carries one Chrome "process" per shard with
/// the full stage vocabulary: produce and stall accounting on the
/// worker track, coalesced filter/analyze spans on the analysis track,
/// plus the study-level phase spans.
#[test]
fn sharded_trace_covers_every_stage() {
    let tracer = Arc::new(Tracer::new());
    Study::new(small_config())
        .with_trace(Arc::clone(&tracer))
        .run_sharded(2)
        .expect("small study produces matching flows");

    let json = tracer.to_chrome_json();
    let parsed: serde_json::Value = serde_json::from_str(&json).expect("trace is valid JSON");
    assert!(
        parsed.get("traceEvents").is_some(),
        "chrome trace has a traceEvents array"
    );
    for needle in [
        // Process/thread layout: shard i is pid i+1 with feed, worker
        // and analysis tracks; the generator and study run on pid 0.
        "\"shard00\"",
        "\"shard01\"",
        "\"generator\"",
        "\"feed\"",
        "\"worker\"",
        "\"analysis\"",
        "\"study\"",
        // Worker-side stage spans and stall accounting.
        "\"produce\"",
        "\"export\"",
        "\"drain\"",
        "\"recv_idle\"",
        "\"collect.ingest\"",
        // Coalesced per-record analysis spans.
        "\"filter\"",
        "\"analyze\"",
        "\"timeseries\"",
        "\"geoloc\"",
        "\"persistence\"",
        "\"outbreak\"",
        // Study-level phases.
        "\"phase.simulate_analyze\"",
        "\"phase.merge\"",
    ] {
        assert!(json.contains(needle), "trace missing {needle}");
    }
    // Both shard processes actually emitted span events (not just
    // metadata): pid 1 and pid 2 appear as complete events.
    for pid in [1, 2] {
        let marker = format!("\"ph\":\"X\",\"pid\":{pid},");
        assert!(json.contains(&marker), "no spans for shard pid {pid}");
    }
}
