//! Streaming-pipeline equivalence: the fused single-pass
//! simulate+analyze path (`Study::run_streaming`, i.e. `run_sharded(1)`)
//! must produce a report byte-identical to the batch path (`Study::run`)
//! once the volatile wall-clock phase timings are stripped — with
//! metrics on or off — while never materializing the full flow-record
//! vector. The sharded path (`Study::run_sharded`) must in turn match
//! the streaming report for any shard count, with per-shard memory still
//! bounded to one export-hour chunk.

use std::sync::Arc;

use cwa_repro::core::study::persistence_len_for_scale;
use cwa_repro::core::{Study, StudyConfig, StudyError};
use cwa_repro::netflow::CountingSink;
use cwa_repro::obs::Registry;
use cwa_repro::simnet::{ShardKeyMode, Simulation};

fn small_config() -> StudyConfig {
    StudyConfig::test_small()
}

/// Strips the volatile timings and serializes — byte-level equality is
/// the strongest statement we can make about the two paths.
fn canonical_json(report: &cwa_repro::core::StudyReport) -> String {
    serde_json::to_string(&report.strip_volatile()).expect("report serializes")
}

#[test]
fn streaming_report_is_bit_identical_to_batch() {
    let batch = Study::new(small_config())
        .run()
        .expect("small study produces matching flows");
    let streaming = Study::new(small_config())
        .run_streaming()
        .expect("small study produces matching flows");
    assert_eq!(
        canonical_json(&batch),
        canonical_json(&streaming),
        "streaming == batch (serial, metrics off)"
    );
    // The scientific payload is populated, not just trivially equal.
    assert_eq!(streaming.claims.len(), 14);
    assert!(streaming.matching_flows > 0);
    assert!(streaming.total_records > streaming.matching_flows);
}

#[test]
fn streaming_matches_batch_with_metrics_and_parallel_driver() {
    // Metrics on, serial driver.
    let reg_batch = Arc::new(Registry::new());
    let batch = Study::new(small_config())
        .with_metrics(Arc::clone(&reg_batch))
        .run()
        .expect("small study produces matching flows");
    let reg_stream = Arc::new(Registry::new());
    let streaming = Study::new(small_config())
        .with_metrics(Arc::clone(&reg_stream))
        .run_streaming()
        .expect("small study produces matching flows");
    assert_eq!(
        canonical_json(&batch),
        canonical_json(&streaming),
        "streaming == batch (serial, metrics on)"
    );

    // The streaming registry carries the per-consumer stream counters …
    let json = reg_stream.to_json_pretty();
    for key in [
        "\"analysis.stream.records_in\"",
        "\"analysis.stream.records_matched\"",
        "\"analysis.stream.timeseries.records\"",
        "\"analysis.stream.geoloc.records\"",
        "\"analysis.stream.persistence.records\"",
        "\"analysis.stream.outbreak.records\"",
        "\"phase.simulate_analyze\"",
    ] {
        assert!(json.contains(key), "streaming snapshot missing {key}");
    }
    // … that are live and consistent with the report and with the
    // batch pipeline's counter vocabulary.
    assert_eq!(
        reg_stream.counter("analysis.stream.records_in").get(),
        streaming.total_records
    );
    assert_eq!(
        reg_stream.counter("analysis.stream.records_matched").get(),
        streaming.matching_flows
    );
    assert_eq!(
        reg_stream.counter("analysis.stream.geoloc.records").get(),
        streaming.matching_flows,
        "every consumer sees every matching record exactly once"
    );
    assert_eq!(
        reg_stream.counter("analysis.filter.records_matched").get(),
        reg_batch.counter("analysis.filter.records_matched").get(),
        "legacy counter parity between the two paths"
    );
}

/// The one streaming driver at one shard reproduces the batch oracle
/// byte for byte on a second seed as well, not only the default one.
#[test]
fn single_shard_matches_batch_on_a_second_seed() {
    let mut config = small_config();
    config.sim.seed = 777;
    let batch = Study::new(config)
        .run()
        .expect("small study produces matching flows");
    let streamed = Study::new(config)
        .run_sharded(1)
        .expect("small study produces matching flows");
    assert!(streamed.matching_flows > 0);
    assert_eq!(canonical_json(&batch), canonical_json(&streamed));
}

#[test]
fn chunked_emission_bounds_resident_records() {
    let config = StudyConfig::test_small();
    let prepared = Simulation::new(config.sim).prepare();
    let mut sink = CountingSink::default();
    let (_truth, stats) = prepared.run_traffic(&mut sink);
    assert!(sink.finished, "producer closes the stream");
    assert!(sink.records > 0);
    assert!(
        stats.peak_resident_records < sink.records,
        "peak resident ({}) must stay below the total emitted ({}) — \
         only one export hour is buffered at a time",
        stats.peak_resident_records,
        sink.records
    );
}

#[test]
fn sharded_report_matches_streaming_for_all_shard_counts() {
    let baseline = Study::new(small_config())
        .run_streaming()
        .expect("small study produces matching flows");
    let baseline_json = canonical_json(&baseline);

    for shards in [1usize, 2, 4] {
        for metrics in [false, true] {
            let registry = metrics.then(|| Arc::new(Registry::new()));
            let mut study = Study::new(small_config());
            if let Some(registry) = &registry {
                study = study.with_metrics(Arc::clone(registry));
            }
            let sharded = study
                .run_sharded(shards)
                .expect("small study produces matching flows");
            assert_eq!(
                baseline_json,
                canonical_json(&sharded),
                "run_sharded({shards}) == run_streaming (metrics {})",
                if metrics { "on" } else { "off" },
            );

            // The sharded run's registry carries per-shard throughput
            // counters, residency gauges, channel-depth gauges (a single
            // shard runs on the calling thread, without a channel) and
            // the merge timer on top of the shared streaming vocabulary.
            if let Some(registry) = &registry {
                let json = registry.to_json_pretty();
                let stems: &[&str] = if shards > 1 {
                    &["records", "channel_depth", "peak_resident_records"]
                } else {
                    &["records", "peak_resident_records"]
                };
                for i in 0..shards {
                    for stem in stems {
                        let key = format!("\"sim.shard.{i:02}.{stem}\"");
                        assert!(json.contains(&key), "sharded snapshot missing {key}");
                    }
                }
                for key in [
                    "\"phase.merge\"",
                    "\"phase.simulate_analyze\"",
                    "\"analysis.stream.records_in\"",
                    "\"analysis.stream.records_matched\"",
                ] {
                    assert!(json.contains(key), "sharded snapshot missing {key}");
                }
                assert_eq!(
                    registry.counter("analysis.stream.records_in").get(),
                    sharded.total_records
                );
                let per_shard: u64 = (0..shards)
                    .map(|i| registry.counter(&format!("sim.shard.{i:02}.records")).get())
                    .sum();
                assert_eq!(
                    per_shard, sharded.total_records,
                    "shard throughput counters partition the record stream"
                );
            }
        }
    }
}

#[test]
fn sharded_emission_bounds_resident_records_per_shard() {
    let config = StudyConfig::test_small();
    let prepared = Simulation::new(config.sim).prepare();

    // Unsharded baseline: total record count and fleet-wide peak.
    let mut baseline = CountingSink::default();
    let (_truth, fleet_stats) = prepared.run_traffic(&mut baseline);

    let (_truth, results) =
        prepared.run_traffic_sharded(ShardKeyMode::Common, vec![CountingSink::default(); 2]);
    assert_eq!(results.len(), 2);
    let mut total = 0u64;
    for (i, (sink, stats)) in results.iter().enumerate() {
        assert!(sink.finished, "shard {i} closes its stream");
        assert!(sink.records > 0, "shard {i} owns part of the fleet");
        assert!(
            stats.peak_resident_records < sink.records,
            "shard {i}: peak resident ({}) must stay below its total ({})",
            stats.peak_resident_records,
            sink.records
        );
        assert!(
            stats.peak_resident_records <= fleet_stats.peak_resident_records,
            "shard {i}: a shard's export-hour chunk ({}) cannot exceed \
             the fleet-wide one ({})",
            stats.peak_resident_records,
            fleet_stats.peak_resident_records
        );
        total += sink.records;
    }
    assert_eq!(
        total, baseline.records,
        "the shards partition exactly the unsharded record stream"
    );
}

/// The scale-sweep starvation edge: a scale too small for any CWA flow
/// to survive sampling must degrade into per-claim `Starved` verdicts,
/// not abort the whole report — and all three execution paths must
/// degrade identically. The old all-or-nothing abort survives only
/// behind `--strict`.
#[test]
fn starved_scale_degrades_identically_across_paths() {
    // Sparse but populated: scale 0.001 still produces matching flows
    // and a full report (this used to starve C5b / panic in the
    // outbreak median before starvation was handled at all).
    let mut sparse = StudyConfig::test_small();
    sparse.sim.scale = 0.001;
    sparse.persistence_prefix_len = persistence_len_for_scale(sparse.sim.scale);
    let report = Study::new(sparse)
        .run()
        .expect("scale 0.001 still yields matching flows");
    assert!(report.matching_flows > 0);

    // Fully starved: nothing survives 1-in-N sampling. The report is
    // still produced; every claim reads `starved`, none reads `fail`.
    let mut starved = StudyConfig::test_small();
    starved.sim.scale = 1e-7;
    starved.persistence_prefix_len = persistence_len_for_scale(starved.sim.scale);
    let batch = Study::new(starved)
        .run()
        .expect("starvation degrades, it does not abort");
    assert_eq!(batch.matching_flows, 0);
    // Starvation is per input cell: every flow-derived claim starves,
    // while the side-data claims (C3 adoption milestones, C7a/C7b
    // Umbrella DNS) keep their verdicts — their inputs never drained.
    let side_data = ["C3a", "C3b", "C7a", "C7b"];
    for claim in &batch.claims {
        if side_data.contains(&claim.id.code()) {
            assert!(
                !claim.verdict.is_starved(),
                "{}: side-data claims have no flow cell to starve",
                claim.id.code()
            );
        } else {
            assert!(
                claim.verdict.is_starved(),
                "{}: with zero matching flows every flow-derived cell is starved",
                claim.id.code()
            );
        }
    }
    assert!(
        batch.failures().is_empty(),
        "starvation is insufficient data, not a failed claim"
    );

    // The streaming and sharded paths degrade bit-identically.
    let streaming = Study::new(starved)
        .run_streaming()
        .expect("streaming path degrades too");
    let sharded = Study::new(starved)
        .run_sharded(2)
        .expect("sharded path degrades too");
    assert_eq!(canonical_json(&batch), canonical_json(&streaming));
    assert_eq!(canonical_json(&batch), canonical_json(&sharded));

    // Opt-in strict mode restores the old abort, on every path.
    for result in [
        Study::new(starved).strict(true).run(),
        Study::new(starved).strict(true).run_streaming(),
        Study::new(starved).strict(true).run_sharded(2),
    ] {
        match result {
            Err(StudyError::NoMatchingFlows {
                scale,
                total_records,
            }) => {
                assert_eq!(scale, 1e-7);
                assert_eq!(total_records, 0);
            }
            other => panic!("expected NoMatchingFlows under strict, got {other:?}"),
        }
    }
}

#[test]
fn invalid_shard_counts_are_rejected() {
    let config = StudyConfig::test_small();
    let routers = config.sim.vantage.routers;
    for bad in [0usize, usize::from(routers) + 1] {
        match Study::new(config).run_sharded(bad) {
            Err(StudyError::InvalidShardCount {
                requested,
                routers: r,
            }) => {
                assert_eq!(requested, bad);
                assert_eq!(r, routers);
            }
            other => panic!("expected InvalidShardCount for {bad}, got {other:?}"),
        }
    }
}
