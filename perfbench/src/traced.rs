//! The traced run: the serial pipeline rebuilt from each layer's public
//! functions, with every call into a layer timed from outside.
//!
//! [`traced_pass`] follows `Simulation::prepare` and the serial
//! `PreparedSim::run_traffic` step for step — world set-up, then per
//! export hour: generate, route + sample + cache, export, decode,
//! anonymize, drain into the analysis chain — and, for a sharded
//! workload, composes one collector and one chain per
//! `VantagePoint::shard` shard and merges the chains with `absorb`.
//! Each hour's flow events are buffered so that generation and the
//! routers are timed apart. The record streams it produces are checked
//! against the program's own streams ([`reference_serial`],
//! [`reference_sharded`]) by count and digest.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use rand::SeedableRng;

use cwa_analysis::StreamCounts;
use cwa_core::StudyConfig;
use cwa_epidemic::{
    ActivityModel, AdoptionModel, EpidemicConfig, EpidemicModel, Scenario, Timeline, UploadConfig,
    UploadPipeline,
};
use cwa_geo::{AddressPlan, GeoDb, GeoDbConfig, Germany, RouterMap, RouterMapConfig};
use cwa_netflow::{Collector, CryptoPan, ExportPacket};
use cwa_obs::Registry;
use cwa_simnet::dns::run_dns_study;
use cwa_simnet::traffic::{FlowEvent, TrafficModel};
use cwa_simnet::vantage::{router_for, side_tables_with, Router};
use cwa_simnet::{
    shard_keys, CdnConfig, ExportFormat, ScenarioKind, ShardKeyMode, Simulation, TopListModel,
    TrafficConfig, VantagePoint,
};

use crate::chain::{AnalysisWorld, Digest};

/// Rows of the four study accumulators, in `chain::CONSUMERS` order.
const ANALYSIS_ROWS: [&str; 4] = [
    "analysis.timeseries",
    "analysis.geoloc",
    "analysis.persistence",
    "analysis.outbreak",
];

/// Per-layer busy time of one traced pass, ns, keyed by layer name.
pub type Rows = BTreeMap<&'static str, u64>;

/// Counts measured where the work happens.
#[derive(Debug, Clone, Default)]
pub struct PassCounts {
    /// Flow events generated.
    pub events: u64,
    /// Packets the routers' samplers let into the flow caches.
    pub packets_seen: u64,
    /// Export datagrams.
    pub datagrams: u64,
    /// Records carried by the export datagrams.
    pub export_records: u64,
    /// Crypto-PAn memo hits and misses, summed over collectors.
    pub memo_hits: u64,
    /// See `memo_hits`.
    pub memo_misses: u64,
    /// Largest collector high-water mark of resident records.
    pub peak_resident_records: u64,
    /// Resident slots of the live view at the end (live only).
    pub resident_slots: u64,
    /// Records each shard's chain received.
    pub shard_records: Vec<u64>,
}

/// One traced pass.
pub struct Pass {
    /// Busy time per layer.
    pub rows: Rows,
    /// Traced wall time, ns.
    pub wall_ns: u64,
    /// Counts.
    pub counts: PassCounts,
    /// Each shard's record-stream digest.
    pub digests: Vec<Digest>,
    /// Merged analysis counts.
    pub merged: StreamCounts,
}

fn add(rows: &mut Rows, name: &'static str, ns: u64) {
    *rows.entry(name).or_insert(0) += ns;
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Global router ids each of `n` shards owns, as `VantagePoint::shard`
/// splits the fleet.
pub fn shard_ranges(cfg: &StudyConfig, n: usize) -> Vec<Range<usize>> {
    VantagePoint::shard(
        cfg.sim.vantage,
        CdnConfig::default().service_prefixes.to_vec(),
        cfg.sim.plan.prefix_len,
        n,
        ShardKeyMode::Common,
    )
    .iter()
    .map(VantagePoint::router_ids)
    .collect()
}

/// Decode + anonymize one router's export datagrams into `collector`.
fn ingest(
    collector: &mut Collector,
    wires: Vec<bytes::Bytes>,
    rows: &mut Rows,
    counts: &mut PassCounts,
) {
    let (mut decode, mut anonymize) = (0u64, 0u64);
    for wire in wires {
        counts.datagrams += 1;
        let t = Instant::now();
        let packet = ExportPacket::decode(wire).expect("self-produced v5 datagram decodes");
        let t2 = Instant::now();
        counts.export_records += packet.records.len() as u64;
        collector.ingest_packet(packet);
        anonymize += ns_since(t2);
        decode += (t2 - t).as_nanos() as u64;
    }
    add(rows, "decode", decode);
    add(rows, "anonymize", anonymize);
}

/// Runs the workload's pipeline once with every layer call timed.
pub fn traced_pass(cfg: &StudyConfig, shards: usize, live: bool) -> Pass {
    let sim = cfg.sim;
    assert_eq!(
        sim.vantage.format,
        ExportFormat::V5,
        "traced run composes v5"
    );
    assert!(
        sim.vantage.export_loss_rate <= 0.0,
        "traced run assumes a lossless transport"
    );
    let ranges = shard_ranges(cfg, shards);
    let keys = shard_keys(&sim.vantage.anon_key, shards, ShardKeyMode::Common);
    let mut rows = Rows::new();
    let mut counts = PassCounts::default();
    let wall = Instant::now();

    // World set-up, in `Simulation::prepare` order.
    let t = Instant::now();
    let germany = Germany::build();
    let plan = AddressPlan::build(&germany, sim.plan);
    let geodb = GeoDb::build(
        &germany,
        &plan,
        GeoDbConfig {
            seed: sim.seed ^ 0x9E0,
            ..sim.geodb
        },
    );
    add(&mut rows, "setup.geo", ns_since(t));

    let t = Instant::now();
    let gt_isp = plan
        .isps
        .iter()
        .find(|i| i.ground_truth_routers)
        .expect("market has a ground-truth ISP")
        .id;
    let mut scenario = match sim.scenario {
        ScenarioKind::Paper => Scenario::paper_default(&germany, gt_isp),
        ScenarioKind::OutbreaksWithoutNews => Scenario::outbreaks_without_news(&germany),
        ScenarioKind::Quiet => Scenario::quiet(),
    };
    sim.outbreaks.apply(&mut scenario);
    let timeline = Timeline { days: sim.days };
    let adoption = AdoptionModel::new(sim.adoption).run(&germany, &scenario, timeline);
    let epidemic = EpidemicModel::new(EpidemicConfig {
        seed: sim.seed ^ 0x5E1,
        ..EpidemicConfig::default()
    })
    .run(&germany, &scenario, sim.days);
    let uploads = UploadPipeline::derive(&germany, &epidemic, &adoption, UploadConfig::default());
    let activity = ActivityModel::default();
    let cdn = CdnConfig {
        migration: sim.cdn_migration,
        ..CdnConfig::default()
    };
    add(&mut rows, "setup.epidemic", ns_since(t));

    let t = Instant::now();
    let media: Vec<f64> = (0..timeline.hours())
        .map(|h| scenario.national_media_factor(h))
        .collect();
    let dns = run_dns_study(
        &TopListModel {
            seed: sim.seed ^ 0xD45,
            ..TopListModel::default()
        },
        &adoption,
        &activity,
        &media,
        sim.days,
    );
    std::hint::black_box(&dns);
    add(&mut rows, "setup.dns", ns_since(t));

    let t = Instant::now();
    let router_map = RouterMap::build(
        &germany,
        &plan,
        RouterMapConfig {
            seed: sim.seed ^ 0xB46,
            ..RouterMapConfig::default()
        },
    );
    let cryptopan = CryptoPan::new(&sim.vantage.anon_key);
    let (geodb_anon, isp_table) = side_tables_with(&cryptopan, &plan, &geodb, Some(&router_map));
    let world = AnalysisWorld::new(
        &germany,
        &geodb_anon,
        &isp_table,
        cdn.service_prefixes.to_vec(),
        sim.plan.prefix_len,
    );
    let pipeline = world.pipeline();
    add(&mut rows, "setup.side_tables", ns_since(t));

    let t = Instant::now();
    let mut size_rng = rand_chacha::ChaCha8Rng::seed_from_u64(sim.seed ^ 0xE47);
    let export_sizes: Vec<f64> = (0..sim.days)
        .map(|day| {
            let keys = uploads.keys.get(day as usize).copied().unwrap_or(0.0) as usize;
            cdn.export_size_bytes(&mut size_rng, day, keys) as f64
        })
        .collect();
    add(&mut rows, "setup.export_sizes", ns_since(t));

    // The traffic loop, in the serial driver's order per shard.
    let hours = timeline.hours();
    let mut chains: Vec<_> = (0..shards)
        .map(|_| {
            world
                .chain(&pipeline, sim.days, cfg.persistence_prefix_len, live)
                .timed()
        })
        .collect();
    let mut collectors: Vec<Collector> = keys
        .iter()
        .map(|key| Collector::new_anonymizing(key, cdn.service_prefixes.to_vec()))
        .collect();
    let total_routers = usize::from(sim.vantage.routers);
    let mut routers: Vec<Router> = (0..total_routers)
        .map(|id| Router::new(id as u8, &sim.vantage))
        .collect();
    let t = Instant::now();
    let mut model = TrafficModel::new(
        &germany,
        &plan,
        &scenario,
        &adoption,
        activity,
        cdn.clone(),
        TrafficConfig {
            scale: sim.scale,
            seed: sim.seed ^ 0x7AF,
            background_ratio: sim.traffic.background_ratio,
            active_subscriber_fraction: sim.traffic.active_subscriber_fraction,
            ..TrafficConfig::default()
        },
        hours,
    )
    .with_export_sizes(&export_sizes);
    add(&mut rows, "traffic", ns_since(t));

    let mut drain_ns = 0u64;
    let mut events: Vec<FlowEvent> = Vec::new();
    for hour in 0..=hours {
        let last = hour == hours;
        if !last {
            events.clear();
            let t = Instant::now();
            model.generate_hour(hour, &mut |ev| events.push(*ev));
            add(&mut rows, "traffic", ns_since(t));
            counts.events += events.len() as u64;
            let t = Instant::now();
            for ev in &events {
                routers[router_for(ev, sim.plan.prefix_len, total_routers)].observe(ev);
            }
            add(&mut rows, "vantage", ns_since(t));
        }
        for (s, range) in ranges.iter().enumerate() {
            for r in range.clone() {
                let t = Instant::now();
                let wires = if last {
                    routers[r].finish(hours - 1)
                } else {
                    routers[r].end_of_hour(hour)
                };
                add(&mut rows, "export", ns_since(t));
                ingest(&mut collectors[s], wires, &mut rows, &mut counts);
            }
            let t = Instant::now();
            collectors[s].drain_into(&mut chains[s]);
            drain_ns += ns_since(t);
            cwa_netflow::FlowSink::checkpoint(&mut chains[s]);
        }
    }

    for r in &routers {
        counts.packets_seen += r.stats().packets_seen;
    }
    for c in &collectors {
        let (hits, misses) = c.cryptopan_cache_stats();
        counts.memo_hits += hits;
        counts.memo_misses += misses;
        counts.peak_resident_records = counts
            .peak_resident_records
            .max(c.peak_resident_records() as u64);
    }
    let mut inside = 0u64;
    for chain in &chains {
        let timing = chain.timing.expect("timed chain");
        inside += timing.inside_ns;
        add(&mut rows, "bench.digest", timing.digest_ns);
        add(&mut rows, "filter", timing.filter_ns);
        if live {
            add(&mut rows, "live.window", timing.window_ns);
        } else {
            for (row, ns) in ANALYSIS_ROWS.into_iter().zip(timing.consumer_ns) {
                add(&mut rows, row, ns);
            }
        }
        counts.shard_records.push(chain.counts.records_in);
    }
    // The drain's own time: everything in `drain_into` outside the chain.
    add(
        &mut rows,
        "collector.drain",
        drain_ns.saturating_sub(inside),
    );
    let digests: Vec<Digest> = chains.iter().map(|c| c.digest).collect();

    let t = Instant::now();
    let mut parts = chains.into_iter();
    let mut merged = parts.next().expect("at least one shard");
    for part in parts {
        merged.absorb(&part);
    }
    if shards > 1 {
        add(&mut rows, "merge", ns_since(t));
    }
    let wall_ns = ns_since(wall);
    counts.resident_slots = merged.resident_slots() as u64;
    Pass {
        rows,
        wall_ns,
        counts,
        digests,
        merged: merged.counts,
    }
}

/// The program's own serial stream: `Simulation::prepare` +
/// `PreparedSim::run_traffic` into an untimed chain. Returns the stream
/// digest, the chain's counts and the untraced wall time, ns.
pub fn reference_serial(cfg: &StudyConfig, live: bool) -> (Digest, StreamCounts, u64) {
    let t = Instant::now();
    let prepared = Simulation::new(cfg.sim).prepare();
    let world = AnalysisWorld::new(
        &prepared.germany,
        &prepared.geodb,
        &prepared.isp_table,
        prepared.cdn.service_prefixes.to_vec(),
        prepared.config.plan.prefix_len,
    );
    let pipeline = world.pipeline();
    let mut chain = world.chain(&pipeline, cfg.sim.days, cfg.persistence_prefix_len, live);
    prepared.run_traffic(&mut chain);
    (chain.digest, chain.counts, ns_since(t))
}

/// The program's own sharded streams (`run_traffic_sharded`, common key)
/// with the registry attached. Returns each shard's digest, the registry,
/// whose `sim.shard.NN.*` counters hold the channel waits, and the wall
/// time of `run_traffic_sharded`, ns.
pub fn reference_sharded(cfg: &StudyConfig, shards: usize) -> (Vec<Digest>, Arc<Registry>, u64) {
    let registry = Arc::new(Registry::new());
    let prepared = Simulation::new(cfg.sim)
        .with_metrics(Arc::clone(&registry))
        .prepare();
    let world = AnalysisWorld::new(
        &prepared.germany,
        &prepared.geodb,
        &prepared.isp_table,
        prepared.cdn.service_prefixes.to_vec(),
        prepared.config.plan.prefix_len,
    );
    let pipeline = world.pipeline();
    let chains: Vec<_> = (0..shards)
        .map(|_| world.chain(&pipeline, cfg.sim.days, cfg.persistence_prefix_len, false))
        .collect();
    let t = Instant::now();
    let (_truth, results) = prepared.run_traffic_sharded(ShardKeyMode::Common, chains);
    let wall_ns = ns_since(t);
    let digests = results.iter().map(|(chain, _)| chain.digest).collect();
    (digests, registry, wall_ns)
}
