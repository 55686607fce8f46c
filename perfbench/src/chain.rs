//! The analysis chain every benchmark pass feeds, plus the record digest
//! that proves two passes saw the same stream.
//!
//! [`Chain`] mirrors the program's own consumer chains (`FanOut` for the
//! serial streaming driver, the per-shard consumers of the sharded
//! driver, the live sink of the live driver): the §2 filter applied once
//! per chunk, then the matching rows handed to the four study
//! accumulators — or, for the live workload, to a [`WindowedView`]. It
//! owns its consumers, so it is `Send` and can run on the program's shard
//! workers. With timing switched on it measures each stage it calls.

use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::time::Instant;

use cwa_analysis::geoloc::IspInfo;
use cwa_analysis::{
    FlowFilter, GeoDayAccumulator, GeolocationPipeline, HourlySeries, OutbreakAccumulator,
    PersistenceAnalysis, StreamCounts, WindowConfig, WindowedView,
};
use cwa_geo::Germany;
use cwa_netflow::{FlowChunk, FlowRecord, FlowSink};
use cwa_simnet::IspSideEntry;
use serde_json::Value;

/// Consumer names, in the program's registration order.
pub const CONSUMERS: [&str; 4] = ["timeseries", "geoloc", "persistence", "outbreak"];

/// SplitMix64 finalizer.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash of one record over every field.
#[allow(clippy::too_many_arguments)]
fn row_hash(
    src: u32,
    dst: u32,
    sport: u16,
    dport: u16,
    proto: u8,
    packets: u64,
    bytes: u64,
    first_ms: u64,
    last_ms: u64,
    flags: u8,
) -> u64 {
    let a = (u64::from(src) << 32) | u64::from(dst);
    let b = (u64::from(sport) << 48)
        | (u64::from(dport) << 32)
        | (u64::from(proto) << 8)
        | u64::from(flags);
    let mut h = mix(a ^ 0x243F_6A88_85A3_08D3);
    for v in [b, packets, bytes, first_ms, last_ms] {
        h = mix(h ^ v);
    }
    h
}

/// Hash of a [`FlowRecord`]; equal to the hash of the same row in a
/// [`FlowChunk`].
#[cfg(test)]
fn record_hash(r: &FlowRecord) -> u64 {
    row_hash(
        u32::from(r.key.src_ip),
        u32::from(r.key.dst_ip),
        r.key.src_port,
        r.key.dst_port,
        r.key.protocol.number(),
        r.packets,
        r.bytes,
        r.first_ms,
        r.last_ms,
        r.tcp_flags,
    )
}

fn chunk_row_hash(c: &FlowChunk, i: usize) -> u64 {
    row_hash(
        c.src_ip[i],
        c.dst_ip[i],
        c.src_port[i],
        c.dst_port[i],
        c.protocol[i],
        c.packets[i],
        c.bytes[i],
        c.first_ms[i],
        c.last_ms[i],
        c.tcp_flags[i],
    )
}

/// Count plus order-sensitive and order-free digests of a record stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    /// Records seen.
    pub count: u64,
    /// Rolling hash: equal only for the same records in the same order.
    pub ordered: u64,
    /// Sum of record hashes: equal for the same multiset of records, so
    /// per-shard streams can be compared with the unsharded stream.
    pub unordered: u64,
}

impl Digest {
    fn push(&mut self, h: u64) {
        self.count += 1;
        self.ordered = mix(self.ordered ^ h).wrapping_add(self.count);
        self.unordered = self.unordered.wrapping_add(h);
    }

    /// Folds a chunk into the digest.
    pub fn push_chunk(&mut self, c: &FlowChunk) {
        for i in 0..c.len() {
            self.push(chunk_row_hash(c, i));
        }
    }

    /// Combines the order-free parts of several shard digests.
    pub fn union<'a>(parts: impl IntoIterator<Item = &'a Digest>) -> Digest {
        let mut out = Digest::default();
        for d in parts {
            out.count += d.count;
            out.unordered = out.unordered.wrapping_add(d.unordered);
        }
        out
    }

    /// The digest as JSON (hashes as hex strings).
    pub fn to_json(self) -> Value {
        obj! {
            "count" => self.count,
            "ordered" => format!("{:016x}", self.ordered),
            "unordered" => format!("{:016x}", self.unordered),
        }
    }
}

/// Side inputs of the analysis stage, built from a prepared world.
pub struct AnalysisWorld<'w> {
    /// The §2 filter over the documented CDN prefixes.
    pub filter: FlowFilter,
    isp_table: HashMap<u32, IspInfo>,
    germany: &'w Germany,
    geodb: &'w cwa_geo::GeoDb,
    prefix_len: u8,
}

impl<'w> AnalysisWorld<'w> {
    /// Converts the simulator's side tables into the analysis crate's
    /// vocabulary, as the study driver does.
    pub fn new(
        germany: &'w Germany,
        geodb: &'w cwa_geo::GeoDb,
        isp_table: &HashMap<u32, IspSideEntry>,
        service_prefixes: Vec<(Ipv4Addr, u8)>,
        prefix_len: u8,
    ) -> Self {
        AnalysisWorld {
            filter: FlowFilter::cwa(service_prefixes),
            isp_table: isp_table
                .iter()
                .map(|(&net, e)| {
                    (
                        net,
                        IspInfo {
                            isp: e.isp.0,
                            router_district: e.router_district,
                        },
                    )
                })
                .collect(),
            germany,
            geodb,
            prefix_len,
        }
    }

    /// The geolocation pipeline over this world's side tables.
    pub fn pipeline(&self) -> GeolocationPipeline<'_> {
        GeolocationPipeline::new(self.germany, self.geodb, &self.isp_table, self.prefix_len)
    }

    /// Client-address → ISP resolver over the anonymized side table.
    pub fn resolver(&self) -> impl Fn(Ipv4Addr) -> Option<u8> + Clone + Send + Sync + '_ {
        let table = &self.isp_table;
        let len = self.prefix_len;
        move |client| table.get(&cwa_geo::geodb::mask(client, len)).map(|e| e.isp)
    }

    /// A chain feeding the four study accumulators, as `FanOut` and the
    /// shard workers do, or (`live`) one [`WindowedView`], as the live
    /// driver does.
    pub fn chain<'p>(
        &'p self,
        pipeline: &'p GeolocationPipeline<'p>,
        days: u32,
        persistence_prefix_len: u8,
        live: bool,
    ) -> Chain<'p, impl Fn(Ipv4Addr) -> Option<u8> + Clone + Send + Sync + 'p> {
        let consumers = if live {
            Consumers::Live(WindowedView::new(
                self.germany,
                pipeline,
                self.resolver(),
                persistence_prefix_len,
                days.min(64),
                WindowConfig::default(),
            ))
        } else {
            Consumers::Batch {
                series: HourlySeries::new(days * 24),
                geo: GeoDayAccumulator::new(pipeline, days.min(11)),
                persistence: PersistenceAnalysis::new(persistence_prefix_len, days),
                outbreak: OutbreakAccumulator::new(self.germany, pipeline, self.resolver(), days),
            }
        };
        Chain::new(&self.filter, consumers)
    }
}

/// What a chain feeds after the filter. There is one per shard, so the
/// variants' size difference does not matter.
#[allow(clippy::large_enum_variant)]
pub enum Consumers<'w, F> {
    /// The four study accumulators, as `FanOut` and the shard workers
    /// register them.
    Batch {
        /// Figure 2 series.
        series: HourlySeries,
        /// Figure 3 per-day tables.
        geo: GeoDayAccumulator<'w>,
        /// Prefix persistence.
        persistence: PersistenceAnalysis,
        /// Outbreak tables.
        outbreak: OutbreakAccumulator<'w, F>,
    },
    /// The live driver's windowed view (which wraps the same four).
    Live(WindowedView<'w, F>),
}

/// Nanoseconds spent in each stage of a timed chain.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChainTiming {
    /// Digesting the incoming rows (benchmark bookkeeping).
    pub digest_ns: u64,
    /// `FlowFilter::select_into`.
    pub filter_ns: u64,
    /// Each study accumulator's `observe_chunk`, in [`CONSUMERS`] order.
    pub consumer_ns: [u64; 4],
    /// `WindowedView` observe and checkpoint (live chains only).
    pub window_ns: u64,
    /// Everything inside the chain's `observe_chunk` calls.
    pub inside_ns: u64,
}

/// The filter + consumers chain. See the module docs.
pub struct Chain<'w, F> {
    /// Digest of every record the chain received.
    pub digest: Digest,
    filter: &'w FlowFilter,
    /// The consumers.
    pub consumers: Consumers<'w, F>,
    /// Records in / matched / delivered, like the program's counters.
    pub counts: StreamCounts,
    selection: FlowChunk,
    /// Stage timing, when switched on.
    pub timing: Option<ChainTiming>,
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

impl<'w, F> Chain<'w, F>
where
    F: Fn(Ipv4Addr) -> Option<u8> + Clone,
{
    fn new(filter: &'w FlowFilter, consumers: Consumers<'w, F>) -> Self {
        Chain {
            digest: Digest::default(),
            filter,
            consumers,
            counts: StreamCounts::zeroed(&CONSUMERS),
            selection: FlowChunk::default(),
            timing: None,
        }
    }

    /// Switches stage timing on.
    pub fn timed(mut self) -> Self {
        self.timing = Some(ChainTiming::default());
        self
    }

    /// Merges another shard's partial state, as the sharded driver does.
    pub fn absorb<G>(&mut self, other: &Chain<'_, G>)
    where
        G: Fn(Ipv4Addr) -> Option<u8>,
    {
        match (&mut self.consumers, &other.consumers) {
            (
                Consumers::Batch {
                    series,
                    geo,
                    persistence,
                    outbreak,
                },
                Consumers::Batch {
                    series: s2,
                    geo: g2,
                    persistence: p2,
                    outbreak: o2,
                },
            ) => {
                series.absorb(s2);
                geo.absorb(g2);
                persistence.absorb(p2);
                outbreak.absorb(o2);
            }
            (Consumers::Live(view), Consumers::Live(v2)) => view.absorb(v2),
            _ => panic!("cannot merge a batch chain with a live chain"),
        }
        self.counts.absorb(&other.counts);
    }

    /// Resident slots of the live view (0 for batch chains).
    pub fn resident_slots(&self) -> usize {
        match &self.consumers {
            Consumers::Live(view) => view.resident_slots(),
            Consumers::Batch { .. } => 0,
        }
    }

    fn deliver_untimed(&mut self, sel: &FlowChunk) {
        match &mut self.consumers {
            Consumers::Batch {
                series,
                geo,
                persistence,
                outbreak,
            } => {
                series.observe_chunk(sel);
                geo.observe_chunk(sel);
                persistence.observe_chunk(sel);
                outbreak.observe_chunk(sel);
            }
            Consumers::Live(view) => view.observe_chunk(sel),
        }
    }

    fn deliver_timed(&mut self, sel: &FlowChunk) {
        let timing = self.timing.as_mut().expect("timed chain");
        match &mut self.consumers {
            Consumers::Batch {
                series,
                geo,
                persistence,
                outbreak,
            } => {
                let sinks: [&mut dyn FlowSink; 4] = [series, geo, persistence, outbreak];
                for (i, sink) in sinks.into_iter().enumerate() {
                    let t = Instant::now();
                    sink.observe_chunk(sel);
                    timing.consumer_ns[i] += ns_since(t);
                }
            }
            Consumers::Live(view) => {
                let t = Instant::now();
                view.observe_chunk(sel);
                timing.window_ns += ns_since(t);
            }
        }
    }
}

impl<F> FlowSink for Chain<'_, F>
where
    F: Fn(Ipv4Addr) -> Option<u8> + Clone,
{
    fn observe(&mut self, rec: &FlowRecord) {
        let mut chunk = FlowChunk::with_capacity(1);
        chunk.push(rec);
        self.observe_chunk(&chunk);
    }

    fn observe_chunk(&mut self, chunk: &FlowChunk) {
        let entered = Instant::now();
        self.counts.records_in += chunk.len() as u64;
        let mut sel = std::mem::take(&mut self.selection);
        if self.timing.is_none() {
            self.digest.push_chunk(chunk);
            self.filter.select_into(chunk, &mut sel);
            if !sel.is_empty() {
                self.deliver_untimed(&sel);
            }
        } else {
            let t = Instant::now();
            self.digest.push_chunk(chunk);
            let t2 = Instant::now();
            self.filter.select_into(chunk, &mut sel);
            let t3 = Instant::now();
            if let Some(timing) = &mut self.timing {
                timing.digest_ns += (t2 - t).as_nanos() as u64;
                timing.filter_ns += (t3 - t2).as_nanos() as u64;
            }
            if !sel.is_empty() {
                self.deliver_timed(&sel);
            }
        }
        let matched = sel.len() as u64;
        self.counts.records_matched += matched;
        for (_, count) in &mut self.counts.consumers {
            *count += matched;
        }
        self.selection = sel;
        if let Some(timing) = &mut self.timing {
            timing.inside_ns += ns_since(entered);
        }
    }

    fn checkpoint(&mut self) {
        if let Consumers::Live(view) = &mut self.consumers {
            let t = Instant::now();
            view.checkpoint();
            if let Some(timing) = &mut self.timing {
                timing.window_ns += ns_since(t);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwa_netflow::{FlowKey, Protocol};

    fn rec(i: u8) -> FlowRecord {
        FlowRecord {
            key: FlowKey {
                src_ip: Ipv4Addr::new(81, 200, 16, i),
                dst_ip: Ipv4Addr::new(84, 0, 0, 1),
                src_port: 443,
                dst_port: 50_000 + u16::from(i),
                protocol: Protocol::Tcp,
            },
            packets: 3,
            bytes: 1200,
            first_ms: u64::from(i) * 10,
            last_ms: u64::from(i) * 10 + 5,
            tcp_flags: 0x18,
        }
    }

    fn chunk(ids: &[u8]) -> FlowChunk {
        let mut c = FlowChunk::with_capacity(ids.len());
        for &i in ids {
            c.push(&rec(i));
        }
        c
    }

    #[test]
    fn chunk_rows_hash_like_records() {
        let c = chunk(&[1, 2, 3]);
        for i in 0..3 {
            assert_eq!(chunk_row_hash(&c, i), record_hash(&c.get(i)));
        }
    }

    #[test]
    fn ordered_digest_sees_order_unordered_does_not() {
        let mut a = Digest::default();
        a.push_chunk(&chunk(&[1, 2, 3]));
        let mut b = Digest::default();
        b.push_chunk(&chunk(&[3, 1, 2]));
        assert_eq!(a.count, b.count);
        assert_eq!(a.unordered, b.unordered);
        assert_ne!(a.ordered, b.ordered);
    }

    #[test]
    fn union_of_shards_equals_whole() {
        let mut whole = Digest::default();
        whole.push_chunk(&chunk(&[1, 2, 3, 4]));
        let mut s0 = Digest::default();
        s0.push_chunk(&chunk(&[2, 4]));
        let mut s1 = Digest::default();
        s1.push_chunk(&chunk(&[1, 3]));
        let u = Digest::union([&s0, &s1]);
        assert_eq!((u.count, u.unordered), (whole.count, whole.unordered));
    }

    #[test]
    fn digest_changes_with_any_field() {
        let mut base = Digest::default();
        base.push_chunk(&chunk(&[7]));
        let mut r = rec(7);
        r.bytes += 1;
        let mut c = FlowChunk::with_capacity(1);
        c.push(&r);
        let mut other = Digest::default();
        other.push_chunk(&c);
        assert_ne!(base.unordered, other.unordered);
    }
}
