//! The measurement vantage point (BENOCS' position in Figure 1).
//!
//! A handful of border routers in front of the CDN data center run
//! sampled NetFlow: each flow event from the traffic generator passes a
//! 1-in-N packet sampler; sampled packets are accounted into the
//! router's flow cache; expired cache entries are exported as NetFlow v5
//! datagrams to a collector that Crypto-PAn-anonymizes client addresses
//! (server prefixes stay in the clear, as in the paper's data set — they
//! are public documentation anyway).
//!
//! Each [`Router`] owns its flow cache *and its own seeded sampling
//! RNG*, so the vantage point can be driven serially or — routers being
//! independent — split into shards with one crossbeam worker each
//! ([`run_sharded_into`]); every router's record stream is identical
//! either way (a property the test suite asserts).
//!
//! The vantage point also produces the **side tables** a cooperating
//! network operator would legitimately hand to researchers together with
//! anonymized traces:
//!
//! * the geolocation DB re-keyed to anonymized prefixes, and
//! * the ISP/router table: anonymized prefix → ISP, plus the *true*
//!   router district for the ground-truth ISP (the paper's "18 % of
//!   geolocations … from local routers within an ISP (ground truth
//!   since the router locations are known)").

use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use cwa_geo::{AddressPlan, DistrictId, GeoDb, IspId};
use cwa_netflow::anonymize::CryptoPan;
use cwa_netflow::cache::{CacheStats, FlowCache, FlowCacheConfig};
use cwa_netflow::collector::{Collector, CollectorMetrics, CollectorTrace};
use cwa_netflow::flow::FlowRecord;
use cwa_netflow::sampling::sample_packet_count;
use cwa_netflow::sink::FlowSink;
use cwa_netflow::v5::packetize;
use cwa_netflow::v9::{V9Decoder, V9Exporter};
use cwa_obs::{Counter, NameId, Registry, TraceBuf, Tracer};

use crate::traffic::FlowEvent;

/// Which NetFlow wire format the routers export.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExportFormat {
    /// Classic fixed-layout NetFlow v5.
    V5,
    /// Template-based NetFlow v9 (RFC 3954).
    V9,
}

/// Vantage-point configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VantageConfig {
    /// Number of border routers (flow caches / export engines).
    pub routers: u8,
    /// Export wire format.
    pub format: ExportFormat,
    /// Packet sampling interval N (1-in-N).
    pub sampling_interval: u32,
    /// Flow-cache timeouts.
    pub cache: FlowCacheConfig,
    /// 32-byte Crypto-PAn key.
    pub anon_key: [u8; 32],
    /// Seed for the routers' sampling RNGs.
    pub sampling_seed: u64,
    /// Fault injection: probability an export datagram is lost between
    /// router and collector (UDP transport in the real world). The
    /// collector detects v5 losses via sequence gaps; v9 survives lost
    /// template announcements through periodic re-announcement.
    pub export_loss_rate: f64,
}

impl Default for VantageConfig {
    fn default() -> Self {
        VantageConfig {
            routers: 4,
            format: ExportFormat::V5,
            sampling_interval: 1000,
            cache: FlowCacheConfig::default(),
            anon_key: *b"cwa-repro-cryptopan-key-32bytes!",
            sampling_seed: 0x5A17,
            export_loss_rate: 0.0,
        }
    }
}

/// How a sharded vantage fleet derives each shard's Crypto-PAn key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShardKeyMode {
    /// Every shard anonymizes under the base `anon_key`. One client
    /// prefix maps to one anonymized prefix fleet-wide, so merged
    /// per-shard analyses equal the single-vantage run exactly.
    Common,
}

/// The per-shard Crypto-PAn keys for an `n`-shard fleet.
pub fn shard_keys(base: &[u8; 32], n: usize, mode: ShardKeyMode) -> Vec<[u8; 32]> {
    match mode {
        ShardKeyMode::Common => vec![*base; n],
    }
}

/// One side-table entry per routing prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IspSideEntry {
    /// Owning ISP.
    pub isp: IspId,
    /// For the ground-truth ISP only: the district of the customer-facing
    /// router (exact). `None` for all other ISPs.
    pub router_district: Option<DistrictId>,
}

/// Per-router observability handles (single relaxed atomics on the
/// packet path; resolved once when metrics are attached).
#[derive(Clone)]
pub(crate) struct RouterMetrics {
    sampled: Arc<Counter>,
    unsampled: Arc<Counter>,
}

/// One border router: sampler + flow cache + export sequencing.
pub struct Router {
    /// Engine id used in export headers.
    pub id: u8,
    sampling_interval: u32,
    cache: FlowCache,
    rng: ChaCha8Rng,
    format: ExportFormat,
    /// v5 flow sequence counter.
    sequence: u32,
    /// v9 exporter state (template refresh, datagram sequence).
    v9: V9Exporter,
    /// Observability handles (None = uninstrumented, zero overhead).
    metrics: Option<RouterMetrics>,
}

impl Router {
    /// Creates a router with a deterministic per-router RNG stream.
    pub fn new(id: u8, cfg: &VantageConfig) -> Self {
        Router {
            id,
            sampling_interval: cfg.sampling_interval,
            cache: FlowCache::new(cfg.cache),
            rng: ChaCha8Rng::seed_from_u64(cfg.sampling_seed ^ (0x9E37 * (u64::from(id) + 1))),
            format: cfg.format,
            sequence: 0,
            v9: V9Exporter::new(u32::from(id)),
            metrics: None,
        }
    }

    /// Observes one flow event: samples its packets, accounts survivors.
    ///
    /// The metric increments happen *after* the sampling draw, so the
    /// RNG stream — and with it every downstream record — is identical
    /// with metrics on or off.
    pub fn observe(&mut self, ev: &FlowEvent) {
        let sampled = sample_packet_count(&mut self.rng, ev.packets, self.sampling_interval);
        if let Some(m) = &self.metrics {
            m.sampled.add(sampled);
            m.unsampled.add(ev.packets - sampled);
        }
        if sampled == 0 {
            return;
        }
        let bytes_per_packet = (ev.bytes / ev.packets.max(1)).max(40);
        let step = ev.duration_ms / sampled.max(1);
        for i in 0..sampled {
            let t = ev.start_ms + i * step;
            self.cache.account(ev.key, bytes_per_packet, 0x18, t);
        }
    }

    /// End-of-hour sweep; returns this router's export datagrams as
    /// wire bytes.
    pub fn end_of_hour(&mut self, hour: u32) -> Vec<bytes::Bytes> {
        let now_ms = u64::from(hour + 1) * 3_600_000;
        self.cache.sweep(now_ms);
        self.export(hour)
    }

    /// Final flush; returns the remaining export datagrams.
    pub fn finish(&mut self, hour: u32) -> Vec<bytes::Bytes> {
        self.cache.flush();
        self.export(hour)
    }

    fn export(&mut self, hour: u32) -> Vec<bytes::Bytes> {
        let expired = self.cache.take_expired();
        let unix_secs = (1_592_179_200 + u64::from(hour + 1) * 3600) as u32;
        match self.format {
            ExportFormat::V5 => {
                if expired.is_empty() {
                    return Vec::new();
                }
                let (packets, next) = packetize(
                    &expired,
                    self.id,
                    self.sampling_interval.min(0x3fff) as u16,
                    unix_secs,
                    self.sequence,
                );
                self.sequence = next;
                packets.into_iter().map(|p| p.encode()).collect()
            }
            ExportFormat::V9 => {
                // v9 datagrams carry up to ~24 of our records within a
                // typical MTU; the first datagram also announces the
                // template (even when no records expired, so the
                // collector always has it).
                if expired.is_empty() {
                    return Vec::new();
                }
                expired
                    .chunks(24)
                    .map(|chunk| {
                        self.v9
                            .export(chunk, unix_secs, (u64::from(hour) * 3_600_000) as u32)
                    })
                    .collect()
            }
        }
    }

    /// The router's cache statistics.
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }
}

/// Deterministically assigns a flow to a router by its client-side
/// routing prefix (clients of one region traverse one border router).
pub fn router_for(ev: &FlowEvent, plan_prefix_len: u8, routers: usize) -> usize {
    let client = if ev.downstream {
        ev.key.dst_ip
    } else {
        ev.key.src_ip
    };
    let prefix = cwa_geo::geodb::mask(client, plan_prefix_len);
    // Fibonacci hashing of the prefix.
    let h = (u64::from(prefix)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (h >> 32) as usize % routers
}

/// Vantage-level observability handles shared by the serial and
/// sharded drivers (so both count the same logical events).
#[derive(Clone)]
pub(crate) struct VantageMetrics {
    registry: Arc<Registry>,
    flow_events: Arc<Counter>,
    flow_events_by_day: Vec<Arc<Counter>>,
}

impl VantageMetrics {
    /// Counts one generated flow event (total + per simulated day).
    fn note_event(&self, ev: &FlowEvent) {
        self.flow_events.inc();
        let day = (ev.start_ms / 86_400_000) as usize;
        if let Some(c) = self.flow_events_by_day.get(day) {
            c.inc();
        }
    }
}

/// Live run-progress gauges (`sim.progress.*`), shared by the serial
/// and sharded drivers so the `/progress` endpoint and the
/// `watch` dashboard see the same namespace regardless of driver.
///
/// Totals are published at construction; `hour_done` advances the
/// completion gauges after each simulated hour. Pure observation —
/// gauge stores only, no feedback into the drivers.
pub(crate) struct ProgressGauges {
    hours_done: Arc<cwa_obs::Gauge>,
    days_done: Arc<cwa_obs::Gauge>,
}

impl ProgressGauges {
    /// Publishes the run's totals and zeroes the completion gauges.
    pub(crate) fn new(registry: &Arc<Registry>, hours: u32) -> Self {
        registry
            .gauge("sim.progress.hours_total")
            .set(i64::from(hours));
        registry
            .gauge("sim.progress.days_total")
            .set(i64::from(hours.div_ceil(24)));
        registry.gauge("sim.progress.done").set(0);
        let hours_done = registry.gauge("sim.progress.hours_done");
        hours_done.set(0);
        let days_done = registry.gauge("sim.progress.days_done");
        days_done.set(0);
        ProgressGauges {
            hours_done,
            days_done,
        }
    }

    /// Marks simulated hour `hour` (0-based) complete.
    pub(crate) fn hour_done(&self, hour: u32) {
        self.hours_done.set(i64::from(hour) + 1);
        self.days_done.set(i64::from((hour + 1) / 24));
    }
}

/// Pre-interned flight-recorder span names for one pipeline thread
/// (driver, feed, or worker). Interning happens once at wiring time so
/// the hot paths record spans with atomics only.
pub(crate) struct ThreadTrace {
    pub(crate) buf: Arc<TraceBuf>,
    pub(crate) produce: NameId,
    pub(crate) export: NameId,
    pub(crate) drain: NameId,
    pub(crate) recv_idle: NameId,
    pub(crate) send_block: NameId,
    pub(crate) finish: NameId,
}

impl ThreadTrace {
    pub(crate) fn new(tracer: &Tracer, pid: u32, tid: u32, label: &str) -> Self {
        ThreadTrace {
            produce: tracer.name("produce"),
            export: tracer.name("export"),
            drain: tracer.name("drain"),
            recv_idle: tracer.name("recv_idle"),
            send_block: tracer.name("send_block"),
            finish: tracer.name("finish"),
            buf: tracer.thread(pid, tid, label),
        }
    }

    /// Records a complete span from `start_ns` until now.
    pub(crate) fn span_since(&self, name: NameId, start_ns: u64) {
        self.buf
            .complete(name, start_ns, self.buf.now_ns().saturating_sub(start_ns));
    }
}

/// Aggregate statistics of one vantage run (cache + transport).
#[derive(Debug, Clone, Copy, Default)]
pub struct VantageRunStats {
    /// Flow-cache statistics summed over all routers (post-flush).
    pub cache: CacheStats,
    /// Export datagrams dropped by the lossy transport.
    pub dropped_datagrams: u64,
    /// Datagrams the collector could not decode (a v9 data set whose
    /// template was lost, or a damaged datagram).
    pub undecodable_datagrams: u64,
    /// High-water mark of records resident in the collector at once.
    /// Under chunked emission (hourly drains to a [`FlowSink`]) this is
    /// one chunk; under batch collection it is the total record count.
    pub peak_resident_records: u64,
}

/// The vantage point: routers plus the anonymizing collector.
///
/// Either the whole fleet (via [`VantagePoint::new`]) or one shard of
/// it (via [`VantagePoint::shard`]): a shard owns a contiguous range of
/// the global router ids starting at `router_base`, while event routing
/// always hashes over the *fleet-wide* `total_routers` — so the events
/// a given router observes are identical whether or not the fleet is
/// sharded.
pub struct VantagePoint {
    routers: Vec<Router>,
    /// Global id of `routers[0]` (0 for an unsharded vantage point).
    router_base: usize,
    /// Fleet-wide router count event routing hashes over.
    total_routers: usize,
    collector: Collector,
    plan_prefix_len: u8,
    format: ExportFormat,
    v9_decoder: V9Decoder,
    transport: Transport,
    metrics: Option<VantageMetrics>,
    /// Flight recorder (None = untraced, zero overhead). The drivers
    /// read this to wrap produce/export/drain in spans.
    pub(crate) trace: Option<Arc<Tracer>>,
}

/// The (lossy) export transport between routers and collector.
struct Transport {
    loss_rate: f64,
    rng: ChaCha8Rng,
    /// Datagrams dropped by fault injection.
    pub dropped_datagrams: u64,
    /// Datagrams skipped as undecodable (lost v9 template or damage).
    pub undecodable_datagrams: u64,
}

impl Transport {
    fn new(cfg: &VantageConfig) -> Self {
        use rand::SeedableRng as _;
        Transport {
            loss_rate: cfg.export_loss_rate,
            rng: ChaCha8Rng::seed_from_u64(cfg.sampling_seed ^ 0x105E),
            dropped_datagrams: 0,
            undecodable_datagrams: 0,
        }
    }

    fn delivers(&mut self) -> bool {
        use rand::Rng as _;
        if self.loss_rate <= 0.0 {
            return true;
        }
        if self.rng.gen::<f64>() < self.loss_rate {
            self.dropped_datagrams += 1;
            false
        } else {
            true
        }
    }
}

impl VantagePoint {
    /// Creates the vantage point. `server_prefixes` are exempt from
    /// anonymization; `plan_prefix_len` is the routing-prefix length of
    /// the address plan (used for routing and side-table keying).
    pub fn new(
        cfg: VantageConfig,
        server_prefixes: Vec<(Ipv4Addr, u8)>,
        plan_prefix_len: u8,
    ) -> Self {
        let routers: Vec<Router> = (0..cfg.routers).map(|id| Router::new(id, &cfg)).collect();
        let collector = Collector::new_anonymizing(&cfg.anon_key, server_prefixes);
        let transport = Transport::new(&cfg);
        VantagePoint {
            router_base: 0,
            total_routers: routers.len(),
            routers,
            collector,
            plan_prefix_len,
            format: cfg.format,
            v9_decoder: V9Decoder::new(),
            transport,
            metrics: None,
            trace: None,
        }
    }

    /// Splits the vantage fleet into `n` shards, each owning a
    /// contiguous range of the global router ids (sizes differing by at
    /// most one) with its own collector and — per `key_mode` — its own
    /// Crypto-PAn key. Routers keep their *global* ids, so every
    /// router's sampling RNG stream is identical to the unsharded
    /// fleet's; under [`ShardKeyMode::Common`] the union of all shards'
    /// records is therefore exactly the unsharded record set.
    pub fn shard(
        cfg: VantageConfig,
        server_prefixes: Vec<(Ipv4Addr, u8)>,
        plan_prefix_len: u8,
        n: usize,
        key_mode: ShardKeyMode,
    ) -> Vec<VantagePoint> {
        let total = usize::from(cfg.routers);
        assert!(
            (1..=total).contains(&n),
            "shard count {n} must be in 1..={total} (the router count)"
        );
        let keys = shard_keys(&cfg.anon_key, n, key_mode);
        let base_size = total / n;
        let remainder = total % n;
        let mut shards = Vec::with_capacity(n);
        let mut next_router = 0usize;
        for (i, key) in keys.into_iter().enumerate() {
            let size = base_size + usize::from(i < remainder);
            let shard_cfg = VantageConfig {
                anon_key: key,
                ..cfg
            };
            let routers: Vec<Router> = (0..size)
                .map(|k| Router::new((next_router + k) as u8, &shard_cfg))
                .collect();
            shards.push(VantagePoint {
                router_base: next_router,
                total_routers: total,
                routers,
                collector: Collector::new_anonymizing(&key, server_prefixes.clone()),
                plan_prefix_len,
                format: cfg.format,
                v9_decoder: V9Decoder::new(),
                transport: Transport::new(&shard_cfg),
                metrics: None,
                trace: None,
            });
            next_router += size;
        }
        shards
    }

    /// Global ids of the routers this vantage point owns.
    pub fn router_ids(&self) -> std::ops::Range<usize> {
        self.router_base..self.router_base + self.routers.len()
    }

    /// Attaches observability: per-router sampling counters, per-day
    /// flow-event counters (`days` pre-registers the day series so the
    /// snapshot schema is complete even for quiet days), and the
    /// collector's record/anonymization/sequence-loss counters.
    pub fn attach_metrics(&mut self, registry: &Arc<Registry>, days: u32) {
        for router in &mut self.routers {
            router.metrics = Some(RouterMetrics {
                sampled: registry
                    .counter(&format!("simnet.router.{:02}.sampled_packets", router.id)),
                unsampled: registry
                    .counter(&format!("simnet.router.{:02}.unsampled_packets", router.id)),
            });
        }
        self.collector.set_metrics(CollectorMetrics::new(registry));
        self.metrics = Some(VantageMetrics {
            registry: Arc::clone(registry),
            flow_events: registry.counter("simnet.traffic.flow_events"),
            flow_events_by_day: (0..days)
                .map(|d| registry.counter(&format!("simnet.traffic.flow_events.day{d:02}")))
                .collect(),
        });
    }

    /// Attaches the flight recorder. The run drivers wrap every
    /// produce/export/drain step in trace spans; tracing never touches
    /// an RNG stream, so the record output is identical with or without
    /// it (asserted by the determinism test suite).
    pub fn set_trace(&mut self, tracer: Arc<Tracer>) {
        self.trace = Some(tracer);
    }

    /// Points the collector's per-datagram ingest spans at `buf` (the
    /// trace track of whatever thread ends up driving this vantage
    /// point — the drivers call this once the thread layout is known).
    pub(crate) fn trace_collector_onto(&mut self, tracer: &Tracer, buf: Arc<TraceBuf>) {
        self.collector.set_trace(CollectorTrace::new(tracer, buf));
    }

    /// Fault-injection statistics: `(datagrams dropped in transport,
    /// datagrams undecodable due to lost v9 templates or damage)`.
    pub fn transport_stats(&self) -> (u64, u64) {
        (
            self.transport.dropped_datagrams,
            self.transport.undecodable_datagrams,
        )
    }

    /// Feeds one wire datagram into the collector, decoding per the
    /// configured format. Passes the (possibly lossy) transport first.
    fn ingest_wire(
        collector: &mut Collector,
        v9_decoder: &mut V9Decoder,
        transport: &mut Transport,
        format: ExportFormat,
        wire: bytes::Bytes,
    ) {
        if !transport.delivers() {
            return;
        }
        // A v9 data set whose template announcement was lost stays
        // undecodable until the next re-announcement; a damaged datagram
        // of either format is counted the same way, never a panic.
        let decoded = match format {
            // The collector counts its own v5 decode errors.
            ExportFormat::V5 => collector.ingest(wire).is_ok(),
            // Engine id = the low byte of the v9 source id (set by the
            // router).
            ExportFormat::V9 => match (wire.get(19).copied(), v9_decoder.decode(wire)) {
                (Some(source), Ok(records)) => {
                    collector.ingest_records(records, source);
                    true
                }
                _ => {
                    collector.note_decode_error();
                    false
                }
            },
        };
        if !decoded {
            transport.undecodable_datagrams += 1;
        }
    }

    /// Observes one flow event (routes it to the owning router). The
    /// router hash is over the fleet-wide router count; for a shard, the
    /// event must belong to one of its routers.
    pub fn observe(&mut self, ev: &FlowEvent) {
        if let Some(m) = &self.metrics {
            m.note_event(ev);
        }
        let r = router_for(ev, self.plan_prefix_len, self.total_routers);
        let local = r
            .checked_sub(self.router_base)
            .filter(|&l| l < self.routers.len())
            .expect("event dispatched to a router outside this shard");
        self.routers[local].observe(ev);
    }

    /// End-of-hour housekeeping across all routers (in id order, keeping
    /// the collector's record order deterministic).
    pub fn end_of_hour(&mut self, hour: u32) {
        for router in &mut self.routers {
            for wire in router.end_of_hour(hour) {
                Self::ingest_wire(
                    &mut self.collector,
                    &mut self.v9_decoder,
                    &mut self.transport,
                    self.format,
                    wire,
                );
            }
        }
    }

    /// Streams the records currently resident in the collector into
    /// `sink` and clears them. Calling this after every
    /// [`end_of_hour`](VantagePoint::end_of_hour) is the chunked
    /// emission mode: the collector never holds more than one export
    /// round's records.
    pub fn drain_records_into(&mut self, sink: &mut dyn FlowSink) {
        self.collector.drain_into(sink);
    }

    /// Sets the collector's records-per-[`FlowChunk`] drain batching
    /// (default `cwa_netflow::DEFAULT_CHUNK_CAPACITY`). Batching never
    /// changes the record stream, only how many records each
    /// `observe_chunk` call carries.
    ///
    /// [`FlowChunk`]: cwa_netflow::FlowChunk
    pub fn set_chunk_capacity(&mut self, capacity: usize) {
        self.collector.set_chunk_capacity(capacity);
    }

    /// Flushes all caches (end of measurement) and returns every
    /// collected, anonymized record.
    pub fn finish(self, final_hour: u32) -> Vec<FlowRecord> {
        let mut records = Vec::new();
        self.finish_into(final_hour, &mut records);
        records
    }

    /// Streaming form of [`finish`](VantagePoint::finish): flushes all
    /// caches, drains the remaining records into `sink` (without
    /// signalling `sink.finish()` — the caller owns the stream's
    /// lifecycle) and reports the run's aggregate cache and transport
    /// statistics (captured *after* the final flush, so flush evictions
    /// are included).
    pub fn finish_into(mut self, final_hour: u32, sink: &mut dyn FlowSink) -> VantageRunStats {
        for router in &mut self.routers {
            for wire in router.finish(final_hour) {
                Self::ingest_wire(
                    &mut self.collector,
                    &mut self.v9_decoder,
                    &mut self.transport,
                    self.format,
                    wire,
                );
            }
        }
        let stats = VantageRunStats {
            cache: self.cache_stats(),
            dropped_datagrams: self.transport.dropped_datagrams,
            undecodable_datagrams: self.transport.undecodable_datagrams,
            peak_resident_records: self.collector.peak_resident_records() as u64,
        };
        self.collector.drain_into(sink);
        stats
    }

    /// Aggregate cache statistics over all routers.
    pub fn cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for r in &self.routers {
            let s = r.stats();
            total.packets_seen += s.packets_seen;
            total.expired_inactive += s.expired_inactive;
            total.expired_active += s.expired_active;
            total.expired_emergency += s.expired_emergency;
            total.expired_flush += s.expired_flush;
        }
        total
    }
}

/// Builds the anonymized side tables from a Crypto-PAn instance (the
/// form `Simulation::prepare` uses).
pub fn side_tables_with(
    cryptopan: &CryptoPan,
    plan: &AddressPlan,
    geodb: &GeoDb,
    routers: Option<&cwa_geo::RouterMap>,
) -> (GeoDb, HashMap<u32, IspSideEntry>) {
    let geodb_anon = geodb.rekeyed(|a| cryptopan.anonymize(a));
    let mut isp_table = HashMap::with_capacity(plan.allocations().len());
    for alloc in plan.allocations() {
        let anon_net = cwa_geo::geodb::mask(cryptopan.anonymize(alloc.network), alloc.len);
        let is_gt = plan.isp(alloc.isp).ground_truth_routers;
        let router_district = if is_gt {
            match routers {
                Some(map) => map
                    .router_of(u32::from(alloc.network))
                    .map(|r| r.district)
                    .or(Some(alloc.district)),
                None => Some(alloc.district),
            }
        } else {
            None
        };
        isp_table.insert(
            anon_net,
            IspSideEntry {
                isp: alloc.isp,
                router_district,
            },
        );
    }
    (geodb_anon, isp_table)
}

/// Messages the sharded driver sends to shard workers.
enum ShardMsg {
    /// A batch of flow events owned by this shard's routers.
    Events(Vec<FlowEvent>),
    EndOfHour(u32),
    Finish(u32),
}

/// Events per [`ShardMsg::Events`] batch (amortizes channel traffic).
const SHARD_EVENT_BATCH: usize = 256;
/// Bounded channel capacity in batches: the generator can run at most
/// this many batches ahead of a shard worker before blocking
/// (backpressure keeping per-shard memory flat).
const SHARD_CHANNEL_CAP: usize = 64;

/// Drives a traffic generator through a sharded vantage fleet: one
/// crossbeam worker per shard runs that shard's routers, collector and
/// sink, fed event batches over a bounded channel. Each worker drains
/// its collector into its own sink every export hour and calls
/// `sink.finish()` after the final flush, then returns the sink and the
/// shard's run statistics (in shard order).
///
/// Determinism: the main thread generates events in the exact serial
/// order and routes each to its owning shard, where the owning *router*
/// — keyed by global id — consumes its subsequence with the same RNG
/// stream as in the unsharded fleet. Each shard's record stream is
/// therefore exactly the unsharded stream restricted to its routers
/// (re-keyed if the shard has its own Crypto-PAn key).
pub fn run_sharded_into<S: FlowSink + Send>(
    mut model: crate::traffic::TrafficModel<'_>,
    shards: Vec<(VantagePoint, S)>,
    hours: u32,
) -> (crate::traffic::GroundTruth, Vec<(S, VantageRunStats)>) {
    assert!(!shards.is_empty(), "at least one shard required");
    let n_shards = shards.len();
    let metrics = shards[0].0.metrics.clone();
    let tracer = shards[0].0.trace.clone();
    let plan_prefix_len = shards[0].0.plan_prefix_len;
    let total_routers = shards[0].0.total_routers;
    let mut owner_of_router = vec![usize::MAX; total_routers];
    for (i, (vp, _)) in shards.iter().enumerate() {
        for r in vp.router_ids() {
            owner_of_router[r] = i;
        }
    }
    assert!(
        owner_of_router.iter().all(|&o| o != usize::MAX),
        "shards must cover every router of the fleet"
    );
    // Channel-depth gauges (batches in flight per shard; pure
    // observation, main thread increments and the worker decrements).
    let depth_gauges: Vec<Option<Arc<cwa_obs::Gauge>>> = (0..n_shards)
        .map(|i| {
            metrics
                .as_ref()
                .map(|m| m.registry.gauge(&format!("sim.shard.{i:02}.channel_depth")))
        })
        .collect();
    // Stall accounting: per shard, nanoseconds the generator spent
    // blocked sending into the full bounded channel and nanoseconds the
    // worker spent idle waiting to receive.
    let send_block_counters: Vec<Option<Arc<Counter>>> = (0..n_shards)
        .map(|i| {
            metrics.as_ref().map(|m| {
                m.registry
                    .counter(&format!("sim.shard.{i:02}.send_block_ns"))
            })
        })
        .collect();
    let recv_idle_counters: Vec<Option<Arc<Counter>>> = (0..n_shards)
        .map(|i| {
            metrics.as_ref().map(|m| {
                m.registry
                    .counter(&format!("sim.shard.{i:02}.recv_idle_ns"))
            })
        })
        .collect();
    // Live progress: fleet-wide `sim.progress.*` advanced by the
    // generator, plus a per-shard hours-done gauge advanced by each
    // worker — a starving shard is visible as a lagging gauge.
    let progress = metrics
        .as_ref()
        .map(|m| ProgressGauges::new(&m.registry, hours));
    let shard_hours_gauges: Vec<Option<Arc<cwa_obs::Gauge>>> = (0..n_shards)
        .map(|i| {
            metrics
                .as_ref()
                .map(|m| m.registry.gauge(&format!("sim.shard.{i:02}.hours_done")))
        })
        .collect();
    // Trace layout: one Chrome-trace "process" per shard (pid i+1,
    // stable across runs), with the generator-side feed on tid 0 and
    // the shard worker on tid 1. Pid 0 stays the generator/study.
    let feed_traces: Vec<Option<ThreadTrace>> = (0..n_shards)
        .map(|i| {
            tracer.as_ref().map(|t| {
                t.set_process_name((i + 1) as u32, &format!("shard{i:02}"));
                ThreadTrace::new(t, (i + 1) as u32, 0, "feed")
            })
        })
        .collect();
    let generator_tr = tracer.as_ref().map(|t| {
        t.set_process_name(0, "generator");
        ThreadTrace::new(t, 0, 0, "generator")
    });

    /// Sends one message, accounting time blocked on a full channel as
    /// a `send_block` span and `sim.shard.NN.send_block_ns`. Untraced
    /// and unmetered feeds take the plain blocking path.
    fn send_accounted(
        tx: &crossbeam::channel::Sender<ShardMsg>,
        msg: ShardMsg,
        feed_tr: &Option<ThreadTrace>,
        counter: &Option<Arc<Counter>>,
    ) {
        if feed_tr.is_none() && counter.is_none() {
            tx.send(msg).expect("worker alive");
            return;
        }
        match tx.try_send(msg) {
            Ok(()) => {}
            Err(crossbeam::channel::TrySendError::Full(msg)) => {
                let start = std::time::Instant::now();
                let start_ns = feed_tr.as_ref().map(|tr| tr.buf.now_ns());
                tx.send(msg).expect("worker alive");
                let blocked = start.elapsed().as_nanos() as u64;
                if let (Some(tr), Some(ns)) = (feed_tr, start_ns) {
                    tr.buf.complete(tr.send_block, ns, blocked);
                }
                if let Some(c) = counter {
                    c.add(blocked);
                }
            }
            Err(crossbeam::channel::TrySendError::Disconnected(_)) => {
                panic!("worker alive");
            }
        }
    }

    let results = crossbeam::thread::scope(|scope| {
        let mut txs = Vec::with_capacity(n_shards);
        let mut handles = Vec::with_capacity(n_shards);
        for (i, (mut vp, mut sink)) in shards.into_iter().enumerate() {
            let (tx, rx) = crossbeam::channel::bounded::<ShardMsg>(SHARD_CHANNEL_CAP);
            txs.push(tx);
            // Flow events are counted once, by the main thread.
            vp.metrics = None;
            vp.trace = None;
            let depth = depth_gauges[i].clone();
            let idle_counter = recv_idle_counters[i].clone();
            let hours_gauge = shard_hours_gauges[i].clone();
            let worker_tracer = tracer.clone();
            let worker_tr = tracer
                .as_ref()
                .map(|t| ThreadTrace::new(t, (i + 1) as u32, 1, "worker"));
            if let (Some(t), Some(tr)) = (&worker_tracer, &worker_tr) {
                vp.trace_collector_onto(t, Arc::clone(&tr.buf));
            }
            handles.push(scope.spawn(move |_| {
                let mut vp = Some(vp);
                let mut stats = VantageRunStats::default();
                let timed_idle = worker_tr.is_some() || idle_counter.is_some();
                loop {
                    // Idle time: from wanting the next message to having
                    // it — a starved worker shows long recv_idle spans.
                    let idle_from = std::time::Instant::now();
                    let idle_from_ns = worker_tr.as_ref().map(|tr| tr.buf.now_ns());
                    let Ok(msg) = rx.recv() else { break };
                    if timed_idle {
                        let idle = idle_from.elapsed().as_nanos() as u64;
                        if let (Some(tr), Some(ns)) = (&worker_tr, idle_from_ns) {
                            tr.buf.complete(tr.recv_idle, ns, idle);
                        }
                        if let Some(c) = &idle_counter {
                            c.add(idle);
                        }
                    }
                    match msg {
                        ShardMsg::Events(batch) => {
                            if let Some(g) = &depth {
                                g.add(-1);
                            }
                            let produce_start = worker_tr.as_ref().map(|tr| tr.buf.now_ns());
                            let v = vp.as_mut().expect("events after finish");
                            for ev in &batch {
                                v.observe(ev);
                            }
                            if let (Some(tr), Some(start)) = (&worker_tr, produce_start) {
                                tr.span_since(tr.produce, start);
                            }
                        }
                        ShardMsg::EndOfHour(hour) => {
                            let v = vp.as_mut().expect("hours after finish");
                            let export_start = worker_tr.as_ref().map(|tr| tr.buf.now_ns());
                            v.end_of_hour(hour);
                            if let (Some(tr), Some(start)) = (&worker_tr, export_start) {
                                tr.span_since(tr.export, start);
                            }
                            let drain_start = worker_tr.as_ref().map(|tr| tr.buf.now_ns());
                            v.drain_records_into(&mut sink);
                            sink.checkpoint();
                            if let (Some(tr), Some(start)) = (&worker_tr, drain_start) {
                                tr.span_since(tr.drain, start);
                            }
                            if let Some(g) = &hours_gauge {
                                g.set(i64::from(hour) + 1);
                            }
                        }
                        ShardMsg::Finish(hour) => {
                            let v = vp.take().expect("exactly one finish");
                            let finish_start = worker_tr.as_ref().map(|tr| tr.buf.now_ns());
                            stats = v.finish_into(hour, &mut sink);
                            sink.checkpoint();
                            sink.finish();
                            if let (Some(tr), Some(start)) = (&worker_tr, finish_start) {
                                tr.span_since(tr.finish, start);
                            }
                            break;
                        }
                    }
                }
                (sink, stats)
            }));
        }

        let mut batches: Vec<Vec<FlowEvent>> = (0..n_shards)
            .map(|_| Vec::with_capacity(SHARD_EVENT_BATCH))
            .collect();
        for hour in 0..hours {
            let produce_start = generator_tr.as_ref().map(|tr| tr.buf.now_ns());
            model.generate_hour(hour, &mut |ev| {
                if let Some(m) = &metrics {
                    m.note_event(ev);
                }
                let shard = owner_of_router[router_for(ev, plan_prefix_len, total_routers)];
                let buf = &mut batches[shard];
                buf.push(*ev);
                if buf.len() == SHARD_EVENT_BATCH {
                    let full = std::mem::replace(buf, Vec::with_capacity(SHARD_EVENT_BATCH));
                    if let Some(g) = &depth_gauges[shard] {
                        g.add(1);
                    }
                    send_accounted(
                        &txs[shard],
                        ShardMsg::Events(full),
                        &feed_traces[shard],
                        &send_block_counters[shard],
                    );
                }
            });
            if let (Some(tr), Some(start)) = (&generator_tr, produce_start) {
                tr.span_since(tr.produce, start);
            }
            for (shard, tx) in txs.iter().enumerate() {
                let buf = &mut batches[shard];
                if !buf.is_empty() {
                    let full = std::mem::take(buf);
                    if let Some(g) = &depth_gauges[shard] {
                        g.add(1);
                    }
                    send_accounted(
                        tx,
                        ShardMsg::Events(full),
                        &feed_traces[shard],
                        &send_block_counters[shard],
                    );
                }
                send_accounted(
                    tx,
                    ShardMsg::EndOfHour(hour),
                    &feed_traces[shard],
                    &send_block_counters[shard],
                );
            }
            // Generator-side view: this hour's events are fully fed
            // (workers may still be draining their channels).
            if let Some(p) = &progress {
                p.hour_done(hour);
            }
        }
        for (shard, tx) in txs.iter().enumerate() {
            send_accounted(
                tx,
                ShardMsg::Finish(hours.saturating_sub(1)),
                &feed_traces[shard],
                &send_block_counters[shard],
            );
        }
        drop(txs);
        handles
            .into_iter()
            .map(|h| h.join().expect("shard worker panicked"))
            .collect::<Vec<(S, VantageRunStats)>>()
    })
    .expect("no shard worker panicked");

    (model.into_truth(), results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::FlowKind;
    use cwa_netflow::flow::{FlowKey, Protocol};

    fn event(client: Ipv4Addr, packets: u64, start_ms: u64) -> FlowEvent {
        FlowEvent {
            key: FlowKey {
                src_ip: Ipv4Addr::new(81, 200, 16, 1),
                dst_ip: client,
                src_port: 443,
                dst_port: 44_000,
                protocol: Protocol::Tcp,
            },
            packets,
            bytes: packets * 1000,
            start_ms,
            duration_ms: 2_000,
            kind: FlowKind::Api,
            district: DistrictId(0),
            isp: IspId(0),
            downstream: true,
        }
    }

    fn vp(sampling: u32) -> VantagePoint {
        VantagePoint::new(
            VantageConfig {
                sampling_interval: sampling,
                ..VantageConfig::default()
            },
            vec![
                (Ipv4Addr::new(81, 200, 16, 0), 22),
                (Ipv4Addr::new(185, 139, 96, 0), 22),
            ],
            22,
        )
    }

    #[test]
    fn unsampled_flow_is_recorded_and_anonymized() {
        let mut v = vp(1);
        let client = Ipv4Addr::new(84, 10, 0, 5);
        v.observe(&event(client, 10, 1000));
        v.end_of_hour(0);
        let records = v.finish(0);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].packets, 10);
        assert_eq!(
            records[0].key.src_ip,
            Ipv4Addr::new(81, 200, 16, 1),
            "server clear"
        );
        assert_ne!(records[0].key.dst_ip, client, "client anonymized");
    }

    #[test]
    fn heavy_sampling_drops_most_small_flows() {
        let mut v = vp(1000);
        for i in 0..2_000u32 {
            let client = Ipv4Addr::from(u32::from(Ipv4Addr::new(84, 0, 0, 0)) + i);
            v.observe(&event(client, 15, 500));
        }
        v.end_of_hour(0);
        let records = v.finish(0);
        // E[seen] ≈ 2000 * (1 - (1-1/1000)^15) ≈ 30.
        assert!(
            (5..90).contains(&records.len()),
            "{} of 2000 flows observed",
            records.len()
        );
        let avg: f64 = records.iter().map(|r| r.packets as f64).sum::<f64>() / records.len() as f64;
        assert!(avg < 2.0, "avg packets {avg}");
    }

    #[test]
    fn same_prefix_same_router() {
        let e1 = event(Ipv4Addr::new(84, 10, 0, 5), 5, 0);
        let e2 = event(Ipv4Addr::new(84, 10, 0, 200), 5, 0);
        assert_eq!(router_for(&e1, 22, 4), router_for(&e2, 22, 4));
    }

    #[test]
    fn anonymization_consistent_across_hours() {
        let mut v = vp(1);
        let client = Ipv4Addr::new(84, 10, 0, 5);
        v.observe(&event(client, 5, 10_000));
        v.end_of_hour(0);
        v.observe(&event(client, 5, 3_700_000));
        v.end_of_hour(1);
        let records = v.finish(1);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].key.dst_ip, records[1].key.dst_ip);
    }

    #[test]
    fn side_tables_cover_plan() {
        use cwa_geo::{AddressPlan, AddressPlanConfig, GeoDb, GeoDbConfig, Germany};
        let g = Germany::build();
        let plan = AddressPlan::build(
            &g,
            AddressPlanConfig {
                persons_per_subscription: 2.0,
                prefix_capacity: 16_384,
                prefix_len: 18,
            },
        );
        let geodb = GeoDb::build(&g, &plan, GeoDbConfig::default());
        let cp = CryptoPan::new(&VantageConfig::default().anon_key);
        let (geodb_anon, isp_table) = side_tables_with(&cp, &plan, &geodb, None);
        assert_eq!(geodb_anon.len(), geodb.len());
        assert_eq!(isp_table.len(), plan.allocations().len());

        let gt_isp = plan
            .isps
            .iter()
            .find(|i| i.ground_truth_routers)
            .unwrap()
            .id;
        for alloc in plan.allocations().iter().take(500) {
            let anon = cwa_geo::geodb::mask(cp.anonymize(alloc.network), 18);
            let entry = isp_table[&anon];
            assert_eq!(entry.isp, alloc.isp);
            if alloc.isp == gt_isp {
                assert_eq!(entry.router_district, Some(alloc.district));
            } else {
                assert_eq!(entry.router_district, None);
            }
        }
    }

    /// A damaged datagram of either wire format is a counted decode
    /// error, never a panic.
    #[test]
    fn truncated_datagrams_are_counted_not_fatal() {
        for format in [ExportFormat::V5, ExportFormat::V9] {
            let mut v = VantagePoint::new(
                VantageConfig {
                    sampling_interval: 1,
                    format,
                    ..VantageConfig::default()
                },
                vec![(Ipv4Addr::new(81, 200, 16, 0), 22)],
                22,
            );
            let registry = Arc::new(Registry::new());
            v.attach_metrics(&registry, 1);
            v.observe(&event(Ipv4Addr::new(84, 10, 0, 5), 10, 1000));
            let wires: Vec<bytes::Bytes> = v.routers.iter_mut().flat_map(|r| r.finish(0)).collect();
            // Any v9 template set arrives intact, so the truncated data
            // set fails on its own damage.
            let (wire, intact) = wires.split_last().expect("the flow was exported");
            for w in intact {
                VantagePoint::ingest_wire(
                    &mut v.collector,
                    &mut v.v9_decoder,
                    &mut v.transport,
                    format,
                    w.clone(),
                );
            }
            assert_eq!(v.transport_stats().1, 0, "{format:?}");
            for (i, truncated) in [wire.slice(..wire.len() - 1), wire.slice(..10)]
                .into_iter()
                .enumerate()
            {
                VantagePoint::ingest_wire(
                    &mut v.collector,
                    &mut v.v9_decoder,
                    &mut v.transport,
                    format,
                    truncated,
                );
                let errors = i as u64 + 1;
                assert_eq!(v.transport_stats().1, errors, "{format:?}");
                assert_eq!(
                    registry.counter("netflow.collector.decode_errors").get(),
                    errors,
                    "{format:?}"
                );
            }
        }
    }

    #[test]
    fn long_flow_split_by_active_timeout() {
        let mut v = vp(1);
        let mut e = event(Ipv4Addr::new(84, 10, 0, 9), 600, 0);
        e.duration_ms = 600_000;
        v.observe(&e);
        v.end_of_hour(0);
        let records = v.finish(0);
        assert!(records.len() >= 4, "split into {} records", records.len());
        let total: u64 = records.iter().map(|r| r.packets).sum();
        assert_eq!(total, 600);
    }

    #[test]
    fn cache_stats_accumulate() {
        let mut v = vp(1);
        for i in 0..50u32 {
            v.observe(&event(Ipv4Addr::from(0x54000000 + i), 5, 100));
        }
        v.end_of_hour(0);
        let stats = v.cache_stats();
        assert_eq!(stats.packets_seen, 250);
    }

    #[test]
    fn router_rngs_differ() {
        let cfg = VantageConfig::default();
        let mut r0 = Router::new(0, &cfg);
        let mut r1 = Router::new(1, &cfg);
        // Same event stream, different sampling outcomes (eventually).
        let mut diverged = false;
        for i in 0..500u32 {
            let ev = event(Ipv4Addr::from(0x54000000 + i), 15, 100);
            r0.observe(&ev);
            r1.observe(&ev);
            if r0.stats().packets_seen != r1.stats().packets_seen {
                diverged = true;
                break;
            }
        }
        assert!(diverged, "independent RNG streams per router");
    }
}
