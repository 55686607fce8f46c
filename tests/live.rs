//! Live-mode equivalence: the windowed live pipeline
//! (`Study::run_live`) must end a replay with a report byte-identical
//! to the batch streaming path (`Study::run_streaming`) after the
//! volatile timings are stripped — for the serial driver and for
//! sharded views — while the mailbox it publishes into serves the same
//! final report plus monotonically advancing figure documents during
//! the replay.

use std::sync::Arc;
use std::time::Duration;

use cwa_repro::core::live::{LiveOptions, LIVE_FIGURE_SCHEMA, LIVE_REPORT_SCHEMA};
use cwa_repro::core::{Study, StudyConfig};
use cwa_repro::obs::{LiveFigure, LiveSnapshot};

fn canonical_json(report: &cwa_repro::core::StudyReport) -> String {
    serde_json::to_string(&report.strip_volatile()).expect("report serializes")
}

fn num(v: Option<&serde_json::Value>) -> Option<u64> {
    match v {
        Some(serde_json::Value::Num(n)) => n.as_u64(),
        _ => None,
    }
}

#[test]
fn live_replay_ends_bit_identical_to_streaming() {
    let baseline = Study::new(StudyConfig::test_small())
        .run_streaming()
        .expect("small study produces matching flows");
    let baseline_json = canonical_json(&baseline);

    for shards in [1usize, 2, 4] {
        let live = Arc::new(LiveSnapshot::new());
        let opts = LiveOptions {
            shards,
            publish: Some(Arc::clone(&live)),
            ..LiveOptions::default()
        };
        let report = Study::new(StudyConfig::test_small())
            .run_live(&opts)
            .expect("small study produces matching flows");
        assert_eq!(
            baseline_json,
            canonical_json(&report),
            "run_live(shards={shards}) == run_streaming"
        );

        // The served end state is exactly the returned report, wrapped
        // in the live envelope.
        let body = live.report().expect("final report published");
        let envelope: serde_json::Value = serde_json::from_str(&body).expect("valid JSON");
        assert_eq!(
            envelope.get("schema").and_then(|v| v.as_str()),
            Some(LIVE_REPORT_SCHEMA)
        );
        assert!(
            matches!(envelope.get("done"), Some(serde_json::Value::Bool(true))),
            "end-of-replay envelope is marked done"
        );
        assert_eq!(
            num(envelope.get("day")),
            Some(u64::from(report.config.sim.days)),
            "the replay covered every simulated day"
        );
        // Round-trip the returned report through the same renderer so
        // non-finite floats normalize identically (NaN → null).
        let report_value: serde_json::Value =
            serde_json::from_str(&serde_json::to_string(&report).expect("report serializes"))
                .expect("valid JSON");
        assert_eq!(
            envelope.get("report"),
            Some(&report_value),
            "served /report payload equals the returned report"
        );

        // Every figure endpoint got its final document.
        for figure in LiveFigure::ALL {
            let body = live.figure(figure).expect("figure published");
            let value: serde_json::Value = serde_json::from_str(&body).expect("valid JSON");
            assert_eq!(
                value.get("schema").and_then(|v| v.as_str()),
                Some(LIVE_FIGURE_SCHEMA)
            );
            assert_eq!(num(value.get("day")), num(envelope.get("day")));
        }
    }
}

/// The sharded live driver publishes merged interim state once per
/// simulated day: mid-run envelopes are well-formed and advance
/// monotonically, and the publish count is exactly `days` interim
/// reports plus the final one (the deposit queues drain fully before
/// the end-of-run publication).
#[test]
fn sharded_replay_publishes_interim_merged_documents() {
    let config = StudyConfig::test_small();
    let days = u64::from(config.sim.days);
    let live = Arc::new(LiveSnapshot::new());
    let opts = LiveOptions {
        shards: 2,
        publish: Some(Arc::clone(&live)),
        ..LiveOptions::default()
    };
    let observer = Arc::clone(&live);
    let worker = std::thread::spawn(move || {
        Study::new(config)
            .run_live(&opts)
            .expect("small study produces matching flows")
    });

    // Opportunistic mid-run observation: whatever envelopes we catch
    // must be schema-tagged, carry well-formed window verdicts, and
    // advance monotonically in stream position.
    let mut observed: Vec<u64> = Vec::new();
    while !worker.is_finished() {
        if let Some(body) = observer.report() {
            let envelope: serde_json::Value = serde_json::from_str(&body).expect("valid JSON");
            assert_eq!(
                envelope.get("schema").and_then(|v| v.as_str()),
                Some(LIVE_REPORT_SCHEMA)
            );
            let verdicts = envelope
                .get("window_verdicts")
                .and_then(|v| v.as_array())
                .expect("window_verdicts is an array");
            for claim in verdicts {
                assert!(claim.get("id").is_some(), "verdict has an id: {claim:?}");
                assert!(
                    claim.get("verdict").is_some(),
                    "verdict has an outcome: {claim:?}"
                );
            }
            let hours = num(envelope.get("hours_seen")).expect("position present");
            if observed.last() != Some(&hours) {
                assert!(
                    observed.last().is_none_or(|last| *last < hours),
                    "interim positions must advance: {observed:?} then {hours}"
                );
                // The final (done) envelope sits one post-finish
                // checkpoint past the last day boundary and can be
                // observed before the worker thread retires; only
                // interim publishes are day-aligned.
                if !matches!(envelope.get("done"), Some(serde_json::Value::Bool(true))) {
                    assert_eq!(hours % 24, 0, "sharded interim publishes at day boundaries");
                }
                observed.push(hours);
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let report = worker.join().expect("live run succeeds");
    assert!(report.matching_flows > 0);

    // Deterministic publish accounting: one merged interim report per
    // simulated day, plus the final done=true publication.
    assert_eq!(
        live.report_publishes(),
        days + 1,
        "one interim report per day plus the final publication"
    );
    let body = live.report().expect("final report published");
    let envelope: serde_json::Value = serde_json::from_str(&body).expect("valid JSON");
    assert!(matches!(
        envelope.get("done"),
        Some(serde_json::Value::Bool(true))
    ));
    assert_eq!(num(envelope.get("window_from_day")), Some(0));
    // The post-finish checkpoint opens (empty) day `days`, so the
    // final window is days 0 .. days+1.
    assert_eq!(num(envelope.get("window_to_day")), Some(days + 1));
    let verdicts = envelope
        .get("window_verdicts")
        .and_then(|v| v.as_array())
        .expect("window_verdicts present");
    assert!(
        !verdicts.is_empty(),
        "the final window evaluates at least C1/C5a/C7c"
    );
    assert!(
        verdicts
            .iter()
            .any(|c| c.get("id").and_then(|v| v.as_str()) == Some("C1MatchingFlows")),
        "C1 is window-evaluable: {body}"
    );
}

/// While a paced replay runs, the published figure documents advance
/// monotonically — the observable half of the endless-mode guarantee
/// (the memory bound itself is asserted in `cwa-analysis`'s windowed
/// tests).
#[test]
fn paced_replay_publishes_advancing_documents() {
    let live = Arc::new(LiveSnapshot::new());
    let opts = LiveOptions {
        shards: 1,
        // ~2.5 ms of wall clock per simulated hour: the 11-day replay
        // takes ~0.7 s, slow enough to observe several interim states.
        replay_speed: Some(1_440_000.0),
        publish: Some(Arc::clone(&live)),
        ..LiveOptions::default()
    };
    let worker = std::thread::spawn(move || {
        Study::new(StudyConfig::test_small())
            .run_live(&opts)
            .expect("small study produces matching flows")
    });

    let mut observed: Vec<u64> = Vec::new();
    while !worker.is_finished() {
        if let Some(body) = live.figure(LiveFigure::Adoption) {
            let value: serde_json::Value = serde_json::from_str(&body).expect("valid JSON");
            let hours = num(value.get("hours_seen")).expect("position present");
            if observed.last() != Some(&hours) {
                assert!(
                    observed.last().is_none_or(|last| *last < hours),
                    "stream position must advance monotonically: {observed:?} then {hours}"
                );
                observed.push(hours);
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let report = worker.join().expect("live run succeeds");
    assert!(report.matching_flows > 0);
    assert!(
        observed.len() >= 2,
        "expected several interim publications, saw positions {observed:?}"
    );
    // An interim (not-done) report was served before the final one.
    let body = live.report().expect("report published");
    assert!(body.contains("\"done\": true"));
}

/// The live window verdicts are the study's claim table judged over the
/// window: on an 11-day replay the default 14-day window still holds
/// every day, so the day-anchored claims (C1, C2, C6a, C6c) read exactly
/// what the cumulative report reads, and the geo claims (C5a, C7c) read
/// the geo tables over the window's days [0, 11) — release day included,
/// unlike the report's June 16–25 map.
#[test]
fn window_verdicts_judge_through_the_study_claim_table() {
    use cwa_repro::analysis::filter::FlowFilter;
    use cwa_repro::analysis::geoloc::{GeolocationPipeline, IspInfo};
    use cwa_repro::simnet::Simulation;

    let config = StudyConfig::test_small();
    assert_eq!(config.sim.days, 11);
    let live = Arc::new(LiveSnapshot::new());
    let opts = LiveOptions {
        publish: Some(Arc::clone(&live)),
        ..LiveOptions::default()
    };
    Study::new(config)
        .run_live(&opts)
        .expect("small study produces matching flows");
    let body = live.report().expect("final report published");
    let envelope: serde_json::Value = serde_json::from_str(&body).expect("valid JSON");
    let window = envelope
        .get("window_verdicts")
        .and_then(|v| v.as_array())
        .expect("window_verdicts present");
    let cumulative = envelope
        .get("report")
        .and_then(|r| r.get("claims"))
        .and_then(|v| v.as_array())
        .expect("report claims present");
    let find = |claims: &[serde_json::Value], id: &str| {
        claims
            .iter()
            .find(|c| c.get("id").and_then(|v| v.as_str()) == Some(id))
            .cloned()
            .unwrap_or_else(|| panic!("{id} missing from {claims:?}"))
    };

    for id in [
        "C1MatchingFlows",
        "C2ReleaseJump",
        "C6aNrwVsRest",
        "C6cBerlinSingleIsp",
    ] {
        let (w, c) = (find(window, id), find(cumulative, id));
        assert_eq!(w.get("measured"), c.get("measured"), "{id} measured");
        assert_eq!(w.get("verdict"), c.get("verdict"), "{id} verdict");
    }

    let out = Simulation::new(config.sim).run();
    let filter = FlowFilter::cwa(out.cdn.service_prefixes.to_vec());
    let isp_table = out
        .isp_table
        .iter()
        .map(|(&net, e)| {
            let info = IspInfo {
                isp: e.isp.0,
                router_district: e.router_district,
            };
            (net, info)
        })
        .collect();
    let pipeline = GeolocationPipeline::new(
        &out.germany,
        &out.geodb,
        &isp_table,
        out.config.plan.prefix_len,
    );
    let geo = pipeline.run(&out.records, &filter, 0, 11);
    for (id, expected) in [
        ("C5aCoverage10Day", geo.coverage(1)),
        ("C7cGroundTruthShare", geo.ground_truth_share()),
    ] {
        let measured = match find(window, id).get("measured") {
            Some(serde_json::Value::Num(n)) => n.as_f64(),
            other => panic!("{id} measured is not a number: {other:?}"),
        };
        assert!(
            (measured - expected).abs() < 1e-12,
            "{id}: window {measured} vs geo[0, 11) {expected}"
        );
    }
}
