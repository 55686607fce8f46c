//! The streaming analysis chain: one record pass, every consumer fed.
//!
//! [`Chain`] is a [`FlowSink`], so it plugs directly into the
//! producers' chunked emission (`PreparedSim::run_traffic` and the
//! sharded workers of `run_traffic_sharded` in `cwa-simnet`). It applies
//! the §2 flow filter **once** per chunk and hands the matching rows to
//! its [`Consumers`] — the streaming replacement for the five-plus full
//! scans the batch pipeline makes (filter, hourly series, two
//! geolocation windows, persistence, outbreak). The chain owns its
//! consumers, so it is `Send` whenever they are and can live on a shard
//! worker; partial chains merge with [`Chain::absorb`].
//!
//! The chain keeps plain `u64` counts ([`StreamCounts`]: records in,
//! records matched, per-consumer deliveries); the caller publishes them
//! to an observability registry if one is attached. For the flight
//! recorder the chain can carry a [`cwa_obs::StageLog`]: filter and
//! per-consumer busy time is accumulated and flushed as coalesced trace
//! spans at every producer checkpoint (export-hour boundary) — the
//! record path never emits an event per record.

use std::sync::Arc;

use cwa_netflow::flow::FlowRecord;
use cwa_netflow::sink::{FlowChunk, FlowSink};
use cwa_obs::{Counter, StageLog};

use crate::filter::FlowFilter;

/// The analysis state a [`Chain`] feeds with the records that pass its
/// filter.
pub trait Consumers {
    /// Feeds one chunk of matching records. With `log`, each consumer's
    /// busy time is added as one stage (see [`stage`]).
    fn observe_chunk(&mut self, matching: &FlowChunk, log: Option<&mut StageLog>);

    /// An export-hour boundary; `counts` are the chain's totals so far.
    fn checkpoint(&mut self, _counts: &StreamCounts) {}

    /// End of the stream.
    fn finish(&mut self) {}

    /// Merges another shard's consumers into these (same shape and
    /// stream position required).
    fn absorb(&mut self, other: &Self);
}

/// Runs `f` as stage `i` of `log`, timing it when a log is attached.
pub fn stage(log: Option<&mut StageLog>, i: usize, f: impl FnOnce()) {
    match log {
        None => f(),
        Some(log) => {
            let t = log.now_ns();
            f();
            let now = log.now_ns();
            log.add_stage(i, now.saturating_sub(t));
        }
    }
}

/// Filters the record stream once and hands the matching rows to its
/// consumers.
pub struct Chain<'a, C> {
    filter: &'a FlowFilter,
    consumers: C,
    counts: StreamCounts,
    records_counter: Option<Arc<Counter>>,
    trace: Option<StageLog>,
    /// Reusable selection scratch.
    selection: FlowChunk,
}

impl<'a, C: Consumers> Chain<'a, C> {
    /// Creates a chain applying `filter` in front of `consumers`.
    /// `names` label the consumers in the per-consumer delivery counts.
    pub fn new(filter: &'a FlowFilter, consumers: C, names: &[&'static str]) -> Self {
        Chain {
            filter,
            consumers,
            counts: StreamCounts::zeroed(names),
            records_counter: None,
            trace: None,
            selection: FlowChunk::default(),
        }
    }

    /// Adds every incoming record to `counter` as it arrives (live
    /// throughput, e.g. a shard's `sim.shard.NN.records`).
    pub fn with_records_counter(mut self, counter: Arc<Counter>) -> Self {
        self.records_counter = Some(counter);
        self
    }

    /// Attaches flight-recorder stage timing. Observation-only —
    /// tracing never changes what the consumers see.
    pub fn with_trace(mut self, log: StageLog) -> Self {
        self.trace = Some(log);
        self
    }

    /// Merges another shard's chain into this one: consumers and counts.
    pub fn absorb(&mut self, other: &Self) {
        self.consumers.absorb(&other.consumers);
        self.counts.absorb(&other.counts);
    }

    /// The consumers and the counts, once the stream has ended.
    pub fn into_results(self) -> (C, StreamCounts) {
        (self.consumers, self.counts)
    }
}

/// The chain's counters as plain mergeable data.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StreamCounts {
    /// Total records seen (before filtering).
    pub records_in: u64,
    /// Records that passed the filter.
    pub records_matched: u64,
    /// Per-consumer delivery counts, in registration order.
    pub consumers: Vec<(&'static str, u64)>,
}

impl StreamCounts {
    /// Creates zeroed counts for the given consumer names.
    pub fn zeroed(consumer_names: &[&'static str]) -> Self {
        StreamCounts {
            records_in: 0,
            records_matched: 0,
            consumers: consumer_names.iter().map(|&n| (n, 0)).collect(),
        }
    }

    /// Merges another chain's counters into this one. Both must list
    /// the same consumers in the same registration order.
    pub fn absorb(&mut self, other: &StreamCounts) {
        assert_eq!(
            self.consumers.len(),
            other.consumers.len(),
            "same consumer set required"
        );
        self.records_in += other.records_in;
        self.records_matched += other.records_matched;
        for ((name, count), (other_name, other_count)) in
            self.consumers.iter_mut().zip(&other.consumers)
        {
            assert_eq!(
                name, other_name,
                "same consumer registration order required"
            );
            *count += other_count;
        }
    }
}

impl<C: Consumers> FlowSink for Chain<'_, C> {
    fn observe(&mut self, rec: &FlowRecord) {
        // Producers emit chunks; a single record is a one-row chunk.
        let mut one = FlowChunk::with_capacity(1);
        one.push(rec);
        self.observe_chunk(&one);
    }

    fn observe_chunk(&mut self, chunk: &FlowChunk) {
        self.counts.records_in += chunk.len() as u64;
        if let Some(counter) = &self.records_counter {
            counter.add(chunk.len() as u64);
        }
        let mut sel = std::mem::take(&mut self.selection);
        let start = self.trace.as_ref().map(StageLog::now_ns);
        self.filter.select_into(chunk, &mut sel);
        if let (Some(log), Some(start)) = (&mut self.trace, start) {
            let now = log.now_ns();
            log.add_filter(now.saturating_sub(start));
        }
        if !sel.is_empty() {
            let matched = sel.len() as u64;
            self.counts.records_matched += matched;
            self.consumers.observe_chunk(&sel, self.trace.as_mut());
            for (_, count) in &mut self.counts.consumers {
                *count += matched;
            }
        }
        self.selection = sel;
    }

    fn finish(&mut self) {
        if let Some(log) = &mut self.trace {
            log.flush();
        }
        self.consumers.finish();
    }

    fn checkpoint(&mut self) {
        if let Some(log) = &mut self.trace {
            log.flush();
        }
        self.consumers.checkpoint(&self.counts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeseries::HourlySeries;
    use cwa_netflow::flow::{FlowKey, Protocol};
    use cwa_netflow::sink::CountingSink;
    use cwa_obs::Tracer;
    use std::net::Ipv4Addr;

    /// Two consumers: the hourly series and a plain record counter.
    struct Pair {
        series: HourlySeries,
        count: CountingSink,
    }

    const NAMES: [&str; 2] = ["timeseries", "count"];

    impl Pair {
        fn new() -> Self {
            Pair {
                series: HourlySeries::new(24),
                count: CountingSink::default(),
            }
        }
    }

    impl Consumers for Pair {
        fn observe_chunk(&mut self, matching: &FlowChunk, mut log: Option<&mut StageLog>) {
            stage(log.as_deref_mut(), 0, || {
                self.series.observe_chunk(matching)
            });
            stage(log, 1, || self.count.observe_chunk(matching));
        }

        fn finish(&mut self) {
            self.count.finish();
        }

        fn absorb(&mut self, other: &Self) {
            self.series.absorb(&other.series);
            self.count.records += other.count.records;
        }
    }

    fn cdn_rec(hour: u64) -> FlowRecord {
        FlowRecord {
            key: FlowKey {
                src_ip: Ipv4Addr::new(81, 200, 16, 1),
                dst_ip: Ipv4Addr::new(84, 0, 0, 1),
                src_port: 443,
                dst_port: 50_000,
                protocol: Protocol::Tcp,
            },
            packets: 1,
            bytes: 700,
            first_ms: hour * 3_600_000,
            last_ms: hour * 3_600_000 + 100,
            tcp_flags: 0x18,
        }
    }

    fn background_rec() -> FlowRecord {
        let mut r = cdn_rec(0);
        r.key.src_ip = Ipv4Addr::new(203, 0, 113, 9);
        r
    }

    fn filter() -> FlowFilter {
        FlowFilter::cwa(vec![(Ipv4Addr::new(81, 200, 16, 0), 22)])
    }

    #[test]
    fn filters_once_and_fans_out_to_all() {
        let f = filter();
        let mut chain = Chain::new(&f, Pair::new(), &NAMES);
        chain.observe(&cdn_rec(0));
        chain.observe(&background_rec());
        chain.observe(&cdn_rec(3));
        chain.finish();

        assert_eq!(chain.counts.records_in, 3);
        assert_eq!(chain.counts.records_matched, 2);
        assert_eq!(
            chain.counts.consumers,
            vec![("timeseries", 2), ("count", 2)]
        );
        let (pair, _) = chain.into_results();
        assert_eq!(pair.series.total_flows(), 2);
        assert_eq!(pair.series.flows[3], 1);
        assert_eq!(pair.count.records, 2);
        assert!(pair.count.finished, "finish propagates to consumers");
    }

    #[test]
    fn stream_counts_merge_like_one_chain() {
        let f = filter();
        // One chain over the full stream …
        let mut all = Chain::new(&f, Pair::new(), &NAMES);
        all.observe(&cdn_rec(0));
        all.observe(&background_rec());
        all.observe(&cdn_rec(3));

        // … equals two chains over a split of it, merged.
        let mut part_a = Chain::new(&f, Pair::new(), &NAMES);
        part_a.observe(&cdn_rec(0));
        part_a.observe(&background_rec());
        let mut part_b = Chain::new(&f, Pair::new(), &NAMES);
        part_b.observe(&cdn_rec(3));

        let mut merged = StreamCounts::zeroed(&NAMES);
        merged.absorb(&part_a.counts);
        merged.absorb(&part_b.counts);
        assert_eq!(merged, all.counts);
        assert_eq!(merged.records_in, 3);
        assert_eq!(merged.records_matched, 2);

        part_a.absorb(&part_b);
        assert_eq!(part_a.counts, all.counts);
        assert_eq!(part_a.consumers.series, all.consumers.series);
    }

    #[test]
    fn tracing_is_observation_only_and_flushes_at_checkpoint() {
        let f = filter();
        let tracer = Tracer::new();
        let log = StageLog::new(&tracer, tracer.thread(1, 2, "analysis"), &NAMES);
        let mut chain = Chain::new(&f, Pair::new(), &NAMES).with_trace(log);

        chain.observe(&cdn_rec(0));
        chain.observe(&background_rec());
        chain.observe(&cdn_rec(3));
        chain.checkpoint();
        chain.finish();

        // Same counts as the untraced chain sees.
        assert_eq!(chain.counts.records_in, 3);
        assert_eq!(chain.counts.records_matched, 2);
        assert_eq!(
            chain.counts.consumers,
            vec![("timeseries", 2), ("count", 2)]
        );

        let json = tracer.to_chrome_json();
        for name in ["\"filter\"", "\"analyze\"", "\"timeseries\"", "\"count\""] {
            assert!(json.contains(name), "missing {name} in {json}");
        }
    }

    #[test]
    fn chunked_observation_equals_per_record() {
        let f = filter();
        let records = [cdn_rec(0), background_rec(), cdn_rec(3), cdn_rec(5)];
        let mut chunk = FlowChunk::default();
        for r in &records {
            chunk.push(r);
        }

        // Per-record reference chain.
        let mut reference = Chain::new(&f, Pair::new(), &NAMES);
        for r in &records {
            reference.observe(r);
        }

        // Chunked chain (untraced).
        let mut chained = Chain::new(&f, Pair::new(), &NAMES);
        chained.observe_chunk(&chunk);
        assert_eq!(chained.counts, reference.counts);
        assert_eq!(chained.consumers.series, reference.consumers.series);
        assert_eq!(
            chained.consumers.count.records,
            reference.consumers.count.records
        );

        // Chunked chain (traced): same counts, spans still named.
        let tracer = Tracer::new();
        let log = StageLog::new(&tracer, tracer.thread(1, 2, "analysis"), &NAMES);
        let mut traced = Chain::new(&f, Pair::new(), &NAMES).with_trace(log);
        traced.observe_chunk(&chunk);
        traced.checkpoint();
        assert_eq!(traced.counts, reference.counts);
        let json = tracer.to_chrome_json();
        for name in ["\"filter\"", "\"timeseries\"", "\"count\""] {
            assert!(json.contains(name), "missing {name}");
        }
    }

    #[test]
    fn empty_stream_is_well_formed() {
        let f = filter();
        let mut chain = Chain::new(&f, Pair::new(), &NAMES);
        chain.finish();
        assert_eq!(chain.counts.records_in, 0);
        assert_eq!(chain.counts.records_matched, 0);
        assert!(chain.consumers.count.finished);
    }
}
