//! Worker process of the benchmark of record. `perfbench/run.py` builds
//! it and runs one process per measurement:
//!
//! ```text
//! perfbench-worker setup --workload W --seed N   # one Simulation::prepare()
//! perfbench-worker rep   --workload W --seed N   # one Study call + output checks
//! perfbench-worker trace --workload W --seed N --seconds S   # the traced run
//! ```
//!
//! Each prints one JSON object on stdout.

/// Builds a JSON object from `key => value` pairs, in order.
macro_rules! obj {
    ($($k:expr => $v:expr),* $(,)?) => {
        serde_json::Value::Object(vec![$(($k.to_string(), serde_json::to_value(&$v))),*])
    };
}

mod chain;
mod cpu;
mod http_load;
mod traced;
mod workload;

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cwa_core::{LiveOptions, Study, StudyError, StudyReport, Verdict};
use cwa_obs::{
    Heartbeat, HeartbeatConfig, LiveSnapshot, Registry, TelemetryServer, TelemetryState,
};
use cwa_simnet::Simulation;
use serde_json::Value;

use crate::chain::Digest;
use crate::workload::{Workload, ENDPOINTS, HTTP_RATE};

fn opt<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_seed(s: &str) -> Option<u64> {
    let s = s.replace('_', "");
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("usage: perfbench-worker setup|rep|trace --workload W --seed N [--seconds S]");
        return ExitCode::from(2);
    };
    let Some(workload) = opt(&args, "--workload").and_then(Workload::parse) else {
        eprintln!("--workload must be one of paper-sharded, coarse-serial, live-serve");
        return ExitCode::from(2);
    };
    let Some(seed) = opt(&args, "--seed").and_then(parse_seed) else {
        eprintln!("--seed must be an integer (decimal or 0x hex)");
        return ExitCode::from(2);
    };
    let seconds: f64 = opt(&args, "--seconds")
        .and_then(|s| s.parse().ok())
        .unwrap_or(10.0);
    let out = match cmd.as_str() {
        "setup" => setup(workload, seed),
        "rep" => rep(workload, seed),
        "trace" => trace(workload, seed, seconds),
        other => {
            eprintln!("unknown command {other}");
            return ExitCode::from(2);
        }
    };
    println!("{}", serde_json::to_string(&out).expect("JSON"));
    ExitCode::SUCCESS
}

/// One timed `Simulation::prepare()` for the workload's configuration:
/// its wall time, the process CPU time spent inside the call, and the
/// calibration kernel's CPU time just before and just after it.
fn setup(workload: Workload, seed: u64) -> Value {
    let cfg = workload.config(seed);
    let cal_before = cpu::calibrate();
    let cpu0 = cpu::process_s();
    let t = Instant::now();
    let prepared = Simulation::new(cfg.sim).prepare();
    let wall_s = t.elapsed().as_secs_f64();
    let cpu_s = cpu::process_s() - cpu0;
    drop(prepared);
    obj! {
        "wall_s" => wall_s,
        "cpu_s" => cpu_s,
        "cal_before_s" => cal_before,
        "cal_after_s" => cpu::calibrate(),
    }
}

fn check(name: &str, ok: bool, detail: String) -> Value {
    obj! { "name" => name, "ok" => ok, "detail" => detail }
}

/// The output checks every timed run must pass. Each compares counts that
/// different layers compute on their own:
///
/// * `records_accounted`: the flows the routers' caches expired (vantage
///   layer) = the records the collector decoded = the records the analysis
///   driver received = the report's total;
/// * `matched_bounded`: the flows the geolocation consumer attributed to a
///   district (Figure 3) are at least one and at most the §2 matches, which
///   are fewer than all records.
fn output_checks(registry: &Registry, report: &StudyReport) -> Vec<Value> {
    let evicted = registry.counter("simnet.cache.evictions").get();
    let collector = registry.counter("netflow.collector.records").get();
    let records_in = registry.counter("analysis.stream.records_in").get();
    let attributed: u64 = report.district_flows.iter().sum();
    vec![
        check(
            "records_accounted",
            collector > 0
                && evicted == collector
                && collector == records_in
                && records_in == report.total_records,
            format!(
                "cache evictions {evicted}, collector {collector}, records_in {records_in}, \
                 report {}",
                report.total_records
            ),
        ),
        check(
            "matched_bounded",
            0 < attributed
                && attributed <= report.matching_flows
                && report.matching_flows < report.total_records,
            format!(
                "geoloc attributed {attributed}, matching {}, total {}",
                report.matching_flows, report.total_records
            ),
        ),
    ]
}

/// Hash of the report without its wall-clock timings. Every rep of one
/// workload and seed must give the same value.
fn fingerprint(report: &StudyReport) -> String {
    let json = serde_json::to_string(&report.strip_volatile()).expect("report serializes");
    let mut h = DefaultHasher::new();
    json.hash(&mut h);
    format!("{:016x}", h.finish())
}

fn verdicts(report: &StudyReport) -> Value {
    let mut counts: BTreeMap<&str, u64> = BTreeMap::new();
    for claim in &report.claims {
        let key = match claim.verdict {
            Verdict::Pass => "pass",
            Verdict::Fail => "fail",
            Verdict::Starved { .. } => "starved",
        };
        *counts.entry(key).or_insert(0) += 1;
    }
    serde_json::to_value(&counts)
}

/// One Study call through the workload's driver.
struct StudyRun {
    result: Result<StudyReport, StudyError>,
    /// From the call to the report in hand, s.
    wall_s: f64,
    /// The open-loop reader's requests (`live-serve` only).
    samples: Vec<http_load::Sample>,
    /// CPU time of the reader thread, s, which is the benchmark's and not
    /// the program's (`live-serve` only).
    reader_cpu_s: f64,
}

fn run_study(workload: Workload, study: &Study, registry: &Arc<Registry>) -> StudyRun {
    let timed = |run: &dyn Fn() -> Result<StudyReport, StudyError>| {
        let t = Instant::now();
        let result = run();
        StudyRun {
            result,
            wall_s: t.elapsed().as_secs_f64(),
            samples: Vec::new(),
            reader_cpu_s: 0.0,
        }
    };
    match workload {
        Workload::PaperSharded => timed(&|| study.run_sharded(workload.shards())),
        Workload::CoarseSerial => timed(&|| study.run_streaming()),
        Workload::LiveServe => live_run(study, registry),
    }
}

/// A `live-serve` run: the live driver publishing into a snapshot that an
/// in-process scrape server serves, read by the open-loop generator from
/// the first `/report` publish until the run returns.
fn live_run(study: &Study, registry: &Arc<Registry>) -> StudyRun {
    let live = Arc::new(LiveSnapshot::new());
    let heartbeat = Heartbeat::start(Arc::clone(registry), HeartbeatConfig::default())
        .expect("heartbeat without a jsonl file starts");
    let server = TelemetryServer::serve(
        "127.0.0.1:0",
        TelemetryState {
            registry: Arc::clone(registry),
            ring: heartbeat.ring(),
            stall_heartbeats: 20,
            live: Some(Arc::clone(&live)),
        },
    )
    .expect("bind a loopback port");
    let addr = server.local_addr();
    let stop = AtomicBool::new(false);
    let run = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let samples = http_load::run_open_loop(
                addr,
                &ENDPOINTS,
                HTTP_RATE,
                Duration::from_secs(2),
                || live.report_publishes() > 0,
                &stop,
            );
            (samples, cpu::thread_s())
        });
        let t = Instant::now();
        let result = study.run_live(&LiveOptions {
            shards: 1,
            replay_speed: None,
            publish: Some(Arc::clone(&live)),
            ..LiveOptions::default()
        });
        let wall_s = t.elapsed().as_secs_f64();
        stop.store(true, Ordering::Release);
        let (samples, reader_cpu_s) = reader.join().expect("reader thread");
        StudyRun {
            result,
            wall_s,
            samples,
            reader_cpu_s,
        }
    });
    server.shutdown();
    heartbeat.stop();
    run
}

fn samples_json(samples: &[http_load::Sample]) -> Value {
    Value::Array(
        samples
            .iter()
            .map(|s| {
                serde_json::to_value(&(
                    workload::endpoint_group(ENDPOINTS[s.endpoint]),
                    s.latency_ms,
                    s.late_ms,
                    s.ok,
                ))
            })
            .collect(),
    )
}

/// One timed Study call through the public API, tracing off, with the
/// output checks.
fn rep(workload: Workload, seed: u64) -> Value {
    let cfg = workload.config(seed);
    let registry = Arc::new(Registry::new());
    let study = Study::new(cfg).with_metrics(Arc::clone(&registry));
    let run = run_study(workload, &study, &registry);
    match &run.result {
        Ok(report) => obj! {
            "wall_s" => run.wall_s,
            "reader_cpu_s" => run.reader_cpu_s,
            "records" => registry.counter("netflow.collector.records").get(),
            "config_hash" => report.manifest.config_hash,
            "fingerprint" => fingerprint(report),
            "checks" => output_checks(&registry, report),
            "verdicts" => verdicts(report),
            "http" => samples_json(&run.samples),
        },
        Err(e) => obj! {
            "wall_s" => run.wall_s,
            "reader_cpu_s" => run.reader_cpu_s,
            "records" => 0u64,
            "checks" => vec![check("study_ok", false, e.to_string())],
            "http" => samples_json(&run.samples),
        },
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Per-layer metrics of one traced pass, relative to its own wall time.
fn pass_metrics(pass: &traced::Pass, live: bool) -> BTreeMap<String, f64> {
    let wall = pass.wall_ns as f64;
    let mut m = BTreeMap::new();
    let mut attributed = 0u64;
    for (name, &ns) in &pass.rows {
        attributed += ns;
        m.insert(format!("{name}.busy_ms"), ns as f64 / 1e6);
        m.insert(format!("{name}.share"), ns as f64 / wall);
    }
    let row = |name: &str| pass.rows.get(name).copied().unwrap_or(0) as f64;
    let c = &pass.counts;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    m.insert("traffic.events".into(), c.events as f64);
    m.insert(
        "traffic.ns_per_event".into(),
        ratio(row("traffic"), c.events as f64),
    );
    m.insert(
        "vantage.sampled_per_event".into(),
        ratio(c.packets_seen as f64, c.events as f64),
    );
    m.insert("export.datagrams".into(), c.datagrams as f64);
    m.insert("export.records".into(), c.export_records as f64);
    m.insert(
        "anonymize.ns_per_record".into(),
        ratio(row("anonymize"), c.export_records as f64),
    );
    m.insert(
        "anonymize.memo_hit_ratio".into(),
        ratio(c.memo_hits as f64, (c.memo_hits + c.memo_misses) as f64),
    );
    m.insert(
        "collector.peak_resident_records".into(),
        c.peak_resident_records as f64,
    );
    m.insert(
        "filter.match_ratio".into(),
        ratio(
            pass.merged.records_matched as f64,
            pass.merged.records_in as f64,
        ),
    );
    let (lo, hi) = (
        c.shard_records.iter().copied().min().unwrap_or(0) as f64,
        c.shard_records.iter().copied().max().unwrap_or(0) as f64,
    );
    let mean = c.shard_records.iter().sum::<u64>() as f64 / c.shard_records.len().max(1) as f64;
    m.insert("shard.record_skew".into(), ratio(hi - lo, mean));
    if live {
        m.insert("live.resident_slots".into(), c.resident_slots as f64);
    }
    m.insert("trace.wall_ms".into(), wall / 1e6);
    m.insert(
        "trace.unattributed_share".into(),
        (wall - attributed as f64) / wall,
    );
    m
}

/// The traced run: references first (the program's own streams, untraced),
/// then composed passes until `seconds` are used, then the equality
/// checks. Reports per-layer medians over the passes.
fn trace(workload: Workload, seed: u64, seconds: f64) -> Value {
    let started = Instant::now();
    let cfg = workload.config(seed);
    let shards = workload.shards();
    let live = workload.is_live();
    let mut checks = Vec::new();
    let mut extra: BTreeMap<String, f64> = BTreeMap::new();

    let (reference, reference_counts, reference_ns) = traced::reference_serial(&cfg, live);
    let sharded = (shards > 1).then(|| traced::reference_sharded(&cfg, shards));
    if let Some((_, registry, wall_ns)) = &sharded {
        let mut idle_ns = 0u64;
        for i in 0..shards {
            for (counter, metric) in [
                ("send_block_ns", "send_block_ms"),
                ("recv_idle_ns", "recv_idle_ms"),
            ] {
                let ns = registry
                    .counter(&format!("sim.shard.{i:02}.{counter}"))
                    .get();
                extra.insert(format!("shard.{i:02}.{metric}"), ns as f64 / 1e6);
                if counter == "recv_idle_ns" {
                    idle_ns += ns;
                }
            }
        }
        extra.insert(
            "shard.recv_idle_share".into(),
            idle_ns as f64 / shards as f64 / *wall_ns as f64,
        );
    }

    // One untraced Study call through the workload's own driver: its
    // output checks, and its report against the reference stream, whose
    // §2 matches the benchmark's chain counted with its own filter call.
    let registry = Arc::new(Registry::new());
    let study = Study::new(cfg).with_metrics(Arc::clone(&registry));
    let run = run_study(workload, &study, &registry);
    match &run.result {
        Ok(report) => {
            checks.extend(output_checks(&registry, report));
            checks.push(check(
                "report_equals_reference",
                report.total_records == reference.count
                    && report.total_records == reference_counts.records_in
                    && report.matching_flows == reference_counts.records_matched,
                format!(
                    "report total/matching {}/{} vs reference stream {}/{}",
                    report.total_records,
                    report.matching_flows,
                    reference_counts.records_in,
                    reference_counts.records_matched
                ),
            ));
        }
        Err(e) => checks.push(check("study_ok", false, e.to_string())),
    }
    if live {
        let publish = registry.timer("live.publish_ns");
        extra.insert(
            "live.publishes".into(),
            registry.counter("live.publishes").get() as f64,
        );
        extra.insert(
            "live.publish_ms.mean".into(),
            publish.total_ns() as f64 / publish.count().max(1) as f64 / 1e6,
        );
    }
    let http = samples_json(&run.samples);

    let mut passes = Vec::new();
    loop {
        passes.push(traced::traced_pass(&cfg, shards, live));
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }

    let first = &passes[0];
    if shards == 1 {
        checks.push(check(
            "stream_equals_run_traffic",
            first.digests[0] == reference,
            format!(
                "composed {:?} vs run_traffic {reference:?}",
                first.digests[0]
            ),
        ));
    } else {
        let union = Digest::union(&first.digests);
        let whole = Digest::union([&reference]);
        checks.push(check(
            "stream_equals_run_traffic",
            union == whole,
            format!("composed union {union:?} vs run_traffic {whole:?}"),
        ));
        let program: &[Digest] = &sharded.as_ref().expect("sharded reference").0;
        checks.push(check(
            "shards_equal_run_traffic_sharded",
            first.digests == program,
            format!(
                "composed {:?} vs run_traffic_sharded {program:?}",
                first.digests
            ),
        ));
    }
    for (i, pass) in passes.iter().enumerate().skip(1) {
        checks.push(check(
            &format!("pass_{i}_repeats_stream"),
            pass.digests == first.digests,
            String::new(),
        ));
    }
    checks.push(check(
        "analysis_counts_equal",
        first.merged == reference_counts,
        format!(
            "composed in/matched {}/{} vs reference {}/{}",
            first.merged.records_in,
            first.merged.records_matched,
            reference_counts.records_in,
            reference_counts.records_matched
        ),
    ));

    let per_pass: Vec<BTreeMap<String, f64>> =
        passes.iter().map(|p| pass_metrics(p, live)).collect();
    let mut metrics: BTreeMap<String, f64> = BTreeMap::new();
    for name in per_pass[0].keys() {
        let values: Vec<f64> = per_pass.iter().map(|m| m[name]).collect();
        metrics.insert(name.clone(), median(values));
    }
    let traced_wall_ns = median(passes.iter().map(|p| p.wall_ns as f64).collect());
    metrics.insert(
        "trace.overhead_share".into(),
        traced_wall_ns / reference_ns as f64 - 1.0,
    );
    metrics.extend(extra);
    obj! {
        "passes" => passes.len(),
        "untraced_wall_ms" => reference_ns as f64 / 1e6,
        "digest" => first.digests.iter().map(|d| d.to_json()).collect::<Vec<_>>(),
        "metrics" => metrics,
        "checks" => checks,
        "http" => http,
    }
}
