//! The study runner: simulate → analyze → evaluate.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use cwa_obs::{LiveSnapshot, Registry, StageLog, TraceBuf, Tracer};

use cwa_analysis::figures::{Figure2, Figure3};
use cwa_analysis::filter::FlowFilter;
use cwa_analysis::geoloc::{GeoDayAccumulator, GeoResult, GeolocationPipeline, IspInfo};
use cwa_analysis::outbreak::{OutbreakAccumulator, OutbreakAnalysis};
use cwa_analysis::persistence::PersistenceAnalysis;
use cwa_analysis::stream::{stage, Chain, Consumers, StreamCounts};
use cwa_analysis::timeseries::HourlySeries;
use cwa_analysis::windowed::{WindowSnapshot, WindowedView};
use cwa_epidemic::{AdoptionCurve, AdoptionModel, Scenario, Timeline};
use cwa_geo::{AddressPlan, Germany};
use cwa_netflow::sink::{FlowChunk, FlowSink};
use cwa_simnet::{
    DnsStudy, IspSideEntry, PreparedSim, ShardKeyMode, SimConfig, SimOutput, Simulation,
};

use crate::claims::{Evidence, RunEvidence};
use crate::live::{LiveOptions, WindowVerdicts};
use crate::report::{PhaseTiming, RunManifest, StudyReport};

/// A structured failure of a study run. Since starvation degraded into
/// per-claim [`Verdict::Starved`](crate::claims::Verdict) verdicts,
/// everything data-related is reported *inside* the [`StudyReport`];
/// these errors remain only for explicit strictness and misconfiguration.
#[derive(Debug, Clone, PartialEq)]
pub enum StudyError {
    /// The run produced records, but none matched the §2 CWA filter —
    /// typically a scale so small that not a single sampled CWA flow
    /// survived 1-in-N packet sampling. Only raised under
    /// [`Study::strict`]; the default path reports every claim as
    /// starved instead.
    NoMatchingFlows {
        /// The traffic scale that was simulated.
        scale: f64,
        /// How many (non-matching) records the run did produce.
        total_records: u64,
    },
    /// A sharded run was asked for more shards than there are export
    /// engines (routers) to split across, or for zero shards.
    InvalidShardCount {
        /// The requested shard count.
        requested: usize,
        /// The configured router count (the maximum).
        routers: u8,
    },
}

impl fmt::Display for StudyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StudyError::NoMatchingFlows {
                scale,
                total_records,
            } => write!(
                f,
                "no flows matched the §2 CWA filter at scale {scale} \
                 ({total_records} records total) and --strict refuses \
                 starved reports; drop --strict to get a report with \
                 per-claim starved verdicts, or raise --scale — 0.02 is \
                 the smallest scale at which every claim evaluates \
                 (below it, starved cells like C5b day-1 coverage are \
                 reported as starved, not failed; see EXPERIMENTS.md)"
            ),
            StudyError::InvalidShardCount { requested, routers } => write!(
                f,
                "shard count {requested} is invalid: must be between 1 \
                 and the router count ({routers})"
            ),
        }
    }
}

impl std::error::Error for StudyError {}

/// Study configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StudyConfig {
    /// The simulation configuration.
    pub sim: SimConfig,
    /// Routing-prefix length used by the persistence analysis (the
    /// paper's "regular routing prefixes"; /24 by default).
    pub persistence_prefix_len: u8,
}

impl Default for StudyConfig {
    fn default() -> Self {
        let sim = SimConfig::default();
        StudyConfig {
            sim,
            persistence_prefix_len: persistence_len_for_scale(sim.scale),
        }
    }
}

impl StudyConfig {
    /// Fast configuration for tests.
    pub fn test_small() -> Self {
        let sim = SimConfig::test_small();
        StudyConfig {
            sim,
            persistence_prefix_len: persistence_len_for_scale(sim.scale),
        }
    }

    /// A configuration at an explicit scale with matched persistence
    /// granularity.
    pub fn at_scale(scale: f64) -> Self {
        let sim = SimConfig {
            scale,
            ..SimConfig::default()
        };
        StudyConfig {
            sim,
            persistence_prefix_len: persistence_len_for_scale(scale),
        }
    }
}

/// Picks the routing-prefix granularity for the persistence analysis so
/// that the per-prefix flow *density* matches the full-scale study.
///
/// The paper's persistence quantiles are properties of how often a
/// typical routing prefix is re-observed; halving the traffic volume
/// while keeping /24 prefixes would halve that density and skew the
/// distribution toward sparse one-off prefixes. Coarsening the prefix by
/// one bit per halving of `scale` keeps the density — and thus the
/// reproduced distribution — invariant.
pub fn persistence_len_for_scale(scale: f64) -> u8 {
    let len = 24.0 + (scale.max(1e-6) / 0.7).log2();
    len.round().clamp(8.0, 24.0) as u8
}

/// The study runner.
pub struct Study {
    config: StudyConfig,
    metrics: Option<Arc<Registry>>,
    trace: Option<Arc<Tracer>>,
    /// Refuse to assemble a report when no flow matched the §2 filter
    /// (the pre-degradation behaviour, opt-in via `--strict`).
    strict: bool,
    /// Lazily-created flight-recorder track for study-level phase spans
    /// (pid 0 / tid 201 "study"), shared by every run on this runner.
    phase_buf: OnceLock<Arc<TraceBuf>>,
    /// Override for the columnar batch size on the record path. Not part
    /// of [`StudyConfig`]: any capacity yields byte-identical reports, so
    /// it must not perturb the config hash.
    chunk_capacity: Option<usize>,
}

/// Converts the simulator's ISP side table into the analysis crate's
/// vocabulary (shared by the batch and streaming paths).
fn analysis_isp_table(table: &HashMap<u32, IspSideEntry>) -> HashMap<u32, IspInfo> {
    table
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
        .collect()
}

/// Client-address → ISP resolver over the anonymized side table.
fn isp_resolver(
    isp_table: &HashMap<u32, IspInfo>,
    prefix_len: u8,
) -> impl Fn(Ipv4Addr) -> Option<u8> + Clone + '_ {
    move |client| {
        let net = cwa_geo::geodb::mask(client, prefix_len);
        isp_table.get(&net).map(|e| e.isp)
    }
}

/// Everything the analysis stages produce before claim evaluation. Both
/// the batch path ([`Study::run`] / [`Study::analyze`]) and the
/// streaming path ([`Study::run_sharded`]) fill this struct and hand
/// it to the shared report assembly, which guarantees the two paths
/// cannot diverge in how claims are derived.
struct AnalysisProducts {
    series: HourlySeries,
    geo_10day: GeoResult,
    geo_day1: GeoResult,
    persistence: PersistenceAnalysis,
    outbreak: OutbreakAnalysis,
    matching_flows: u64,
    total_records: u64,
}

impl AnalysisProducts {
    /// The products of the four study accumulators after `days`
    /// simulated days: Figure 3 covers the 10 days from release (June
    /// 16–25), one accumulator serving both geo windows.
    fn new(
        series: HourlySeries,
        geo: &GeoDayAccumulator<'_>,
        persistence: PersistenceAnalysis,
        outbreak: OutbreakAnalysis,
        counts: &StreamCounts,
        days: u32,
    ) -> Self {
        AnalysisProducts {
            series,
            geo_10day: geo.result(1, days.min(11)),
            geo_day1: geo.result(1, 2),
            persistence,
            outbreak,
            matching_flows: counts.records_matched,
            total_records: counts.records_in,
        }
    }

    /// The products of a live view's study tier, copied so the view
    /// keeps serving.
    fn from_view<F>(view: &WindowedView<'_, F>, counts: &StreamCounts, days: u32) -> Self
    where
        F: Fn(Ipv4Addr) -> Option<u8>,
    {
        AnalysisProducts::new(
            view.series.clone(),
            &view.geo,
            view.persistence.clone(),
            view.outbreak.to_analysis(),
            counts,
            days,
        )
    }
}

/// The consumer names of every streaming chain, in the order
/// [`Accumulators`] feeds them (merged counts line up by name).
const CONSUMER_NAMES: [&str; 4] = ["timeseries", "geoloc", "persistence", "outbreak"];

/// The four study accumulators one streaming chain feeds. Every
/// accumulator is a commutative monoid over records, so shard-local
/// partials absorb-merge into exactly the single-pass result.
struct Accumulators<'w, F> {
    series: HourlySeries,
    geo: GeoDayAccumulator<'w>,
    persistence: PersistenceAnalysis,
    outbreak: OutbreakAccumulator<'w, F>,
}

impl<F: Fn(Ipv4Addr) -> Option<u8>> Consumers for Accumulators<'_, F> {
    fn observe_chunk(&mut self, matching: &FlowChunk, mut log: Option<&mut StageLog>) {
        stage(log.as_deref_mut(), 0, || {
            self.series.observe_chunk(matching)
        });
        stage(log.as_deref_mut(), 1, || self.geo.observe_chunk(matching));
        stage(log.as_deref_mut(), 2, || {
            self.persistence.observe_chunk(matching)
        });
        stage(log, 3, || self.outbreak.observe_chunk(matching));
    }

    fn absorb(&mut self, other: &Self) {
        self.series.absorb(&other.series);
        self.geo.absorb(&other.geo);
        self.persistence.absorb(&other.persistence);
        self.outbreak.absorb(&other.outbreak);
    }
}

/// Borrowed side data the report assembly needs. Available both from a
/// finished [`SimOutput`] and — mid-run — from a [`PreparedSim`], which
/// is what lets live mode assemble interim reports while the traffic
/// generator is still streaming.
struct ReportContext<'a> {
    config: &'a SimConfig,
    germany: &'a Germany,
    plan: &'a AddressPlan,
    scenario: &'a Scenario,
    downloads: &'a AdoptionCurve,
    dns: &'a DnsStudy,
}

impl<'a> ReportContext<'a> {
    fn from_output(sim: &'a SimOutput) -> Self {
        ReportContext {
            config: &sim.config,
            germany: &sim.germany,
            plan: &sim.plan,
            scenario: &sim.scenario,
            downloads: &sim.downloads,
            dns: &sim.dns,
        }
    }

    fn from_prepared(sim: &'a PreparedSim) -> Self {
        ReportContext {
            config: &sim.config,
            germany: &sim.germany,
            plan: &sim.plan,
            scenario: &sim.scenario,
            downloads: &sim.downloads,
            dns: &sim.dns,
        }
    }

    /// Re-judges the claim table over the sliding last-N-days window of
    /// a live run, so a standing observation can distinguish "passing
    /// now" from "passed overall". The window holds no whole-run inputs
    /// ([`RunEvidence`]), so C3–C4, C5b, C6b and C7a/b are absent, and
    /// the day-anchored claims are judged only while their days are
    /// inside the window.
    fn window_verdicts(&self, window: &WindowSnapshot, matching_flows: u64) -> WindowVerdicts {
        let series = window.series();
        let verdicts = Evidence {
            scale: self.config.scale,
            matching_flows,
            flows: series.total_flows(),
            window: Some(window.from_day..window.to_day),
            series: &series,
            geo: &window.geo(),
            outbreak: &window.outbreak(),
            plan: self.plan,
            run: None,
        }
        .judge();
        WindowVerdicts {
            from_day: window.from_day,
            to_day: window.to_day,
            verdicts,
        }
    }
}

/// The live chain's consumers: a [`WindowedView`] (the four study-tier
/// accumulators plus the sliding window tiers) and the live driver's
/// per-checkpoint hooks.
struct LiveView<'w, F> {
    view: WindowedView<'w, F>,
    /// Wall-clock sleep per simulated export hour (serial runs only).
    pace: Option<Duration>,
    /// Interim publication after every export hour (serial runs only).
    publisher: Option<LivePublisher<'w>>,
    /// Sharded interim publication: at every simulated day boundary the
    /// shard deposits a clone of its view and counts here, and a
    /// publisher thread merges the aligned fronts off the hot path. The
    /// chain itself is untouched, so the end-of-run merge (and therefore
    /// the final report bytes) cannot observe the difference.
    deposits: Option<Arc<Mutex<VecDeque<ShardDeposit<'w, F>>>>>,
}

/// One shard's day-boundary snapshot, queued for interim merging.
struct ShardDeposit<'w, F> {
    view: WindowedView<'w, F>,
    counts: StreamCounts,
}

impl<F> Consumers for LiveView<'_, F>
where
    F: Fn(Ipv4Addr) -> Option<u8> + Clone,
{
    fn observe_chunk(&mut self, matching: &FlowChunk, log: Option<&mut StageLog>) {
        stage(log, 0, || self.view.observe_chunk(matching));
    }

    fn checkpoint(&mut self, counts: &StreamCounts) {
        // Drives the view's day boundaries — one call per export hour,
        // identical across shards, which is what makes window eviction
        // commute with the merge.
        self.view.checkpoint();
        if let Some(queue) = &self.deposits {
            // Every shard checkpoints the same hours in lockstep, so
            // the fronts of all deposit queues always carry the same
            // `hours_seen` — exactly what `absorb` requires. The extra
            // post-finish checkpoint lands at `hours + 1`, never on a
            // day boundary, so each shard deposits exactly `days` times.
            if self.view.hours_seen() % 24 == 0 {
                queue
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push_back(ShardDeposit {
                        view: self.view.clone(),
                        counts: counts.clone(),
                    });
            }
        }
        if let Some(pace) = self.pace {
            std::thread::sleep(pace);
        }
        if let Some(publisher) = &self.publisher {
            publisher.publish(&self.view, counts, None);
        }
    }

    fn absorb(&mut self, other: &Self) {
        self.view.absorb(&other.view);
    }
}

/// Publishes documents into the live mailbox: the three figure
/// documents after every export hour, and a full `/report` envelope at
/// every day boundary and at the end of the run (claim evaluation per
/// hour would dominate small replays).
struct LivePublisher<'a> {
    study: &'a Study,
    ctx: ReportContext<'a>,
    live: Arc<LiveSnapshot>,
}

impl LivePublisher<'_> {
    /// Publishes the view's current state. `finished` is the end-of-run
    /// report, served as is; without it, an interim report is assembled
    /// from the view at day boundaries.
    fn publish<F>(
        &self,
        view: &WindowedView<'_, F>,
        counts: &StreamCounts,
        finished: Option<&StudyReport>,
    ) where
        F: Fn(Ipv4Addr) -> Option<u8>,
    {
        // Publication overhead is itself observable: `live.publish_ns`
        // times every publication, `live.publishes` counts them.
        let _span = self
            .study
            .metrics
            .as_ref()
            .map(|m| m.span("live.publish_ns"));
        let snap = view.snapshot();
        crate::live::publish_figures(&self.live, &snap);
        let days = self.ctx.config.days;
        let interim = if finished.is_none() && view.hours_seen() % 24 == 0 {
            let products = AnalysisProducts::from_view(view, counts, days);
            self.study
                .assemble_report_ctx(&self.ctx, products, Vec::new(), false)
                .ok()
        } else {
            None
        };
        if let Some(report) = finished.or(interim.as_ref()) {
            let window = self
                .ctx
                .window_verdicts(&snap.window, counts.records_matched);
            self.live.publish_report(crate::live::render_report(
                report,
                snap.day,
                snap.hours_seen,
                days,
                finished.is_some(),
                &window,
            ));
        }
        if let Some(registry) = &self.study.metrics {
            registry.counter("live.publishes").add(1);
        }
    }
}

/// Pops one aligned day-boundary deposit per shard (when every shard
/// has one queued), merges them in shard order, and publishes the
/// merged interim state. Returns whether a merge happened.
fn publish_front_deposits<F>(
    queues: &[Arc<Mutex<VecDeque<ShardDeposit<'_, F>>>>],
    publisher: &LivePublisher<'_>,
) -> bool
where
    F: Fn(Ipv4Addr) -> Option<u8>,
{
    // Lock all queues up front (fixed order; the workers each touch
    // only their own queue, so this cannot deadlock) and only consume
    // when every shard has a deposit — the fronts then carry the same
    // `hours_seen`, which is what `absorb` asserts.
    let mut guards: Vec<_> = queues
        .iter()
        .map(|q| q.lock().unwrap_or_else(|e| e.into_inner()))
        .collect();
    if guards.iter().any(|g| g.is_empty()) {
        return false;
    }
    let mut parts: Vec<ShardDeposit<'_, F>> = guards
        .iter_mut()
        .map(|g| g.pop_front().expect("checked non-empty"))
        .collect();
    drop(guards);
    let mut merged = parts.remove(0);
    for part in &parts {
        merged.view.absorb(&part.view);
        merged.counts.absorb(&part.counts);
    }
    publisher.publish(&merged.view, &merged.counts, None);
    true
}

impl Study {
    /// Creates a runner.
    pub fn new(config: StudyConfig) -> Self {
        Study {
            config,
            metrics: None,
            trace: None,
            strict: false,
            phase_buf: OnceLock::new(),
            chunk_capacity: None,
        }
    }

    /// Overrides the capacity of the columnar [`FlowChunk`] batches the
    /// collector hands to the analysis sinks. Purely a performance knob:
    /// reports are byte-identical for any capacity, so it is deliberately
    /// kept out of [`StudyConfig`] (and the config hash). Mostly useful
    /// for invariance tests; the default of
    /// [`cwa_netflow::sink::DEFAULT_CHUNK_CAPACITY`] is right for
    /// production runs.
    pub fn with_chunk_capacity(mut self, capacity: usize) -> Self {
        self.chunk_capacity = Some(capacity);
        self
    }

    /// Strict mode: fail with [`StudyError::NoMatchingFlows`] when the
    /// §2 filter matches nothing, instead of producing a report whose
    /// claims are all marked starved. Off by default — a starved cell
    /// degrades the affected claims, it does not abort the study.
    pub fn strict(mut self, strict: bool) -> Self {
        self.strict = strict;
        self
    }

    /// Attaches an observability registry: the simulation's counters
    /// land in it, and every analysis stage contributes a timer plus
    /// record counts. Pure observation — reports stay bit-identical
    /// (modulo the volatile manifest timings) with metrics on or off.
    pub fn with_metrics(mut self, registry: Arc<Registry>) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Attaches a flight recorder: every pipeline stage (produce,
    /// export, drain, filter, analyze, channel stalls) lands in the
    /// tracer's per-thread ring buffers, exportable as Chrome
    /// trace-event JSON via [`Tracer::to_chrome_json`]. Pure
    /// observation — reports stay bit-identical (modulo the volatile
    /// manifest timings) with tracing on or off.
    pub fn with_trace(mut self, tracer: Arc<Tracer>) -> Self {
        self.trace = Some(tracer);
        self
    }

    /// Records one finished phase: into the manifest timing list, as an
    /// observability timer when a registry is attached, and as a
    /// back-dated span on the "study" trace track when a tracer is.
    fn record_phase(&self, timings: &mut Vec<PhaseTiming>, phase: &str, elapsed: Duration) {
        let duration_ns = elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
        timings.push(PhaseTiming {
            phase: phase.to_owned(),
            duration_ns,
        });
        if let Some(registry) = &self.metrics {
            registry.timer(phase).record(elapsed);
        }
        if let Some(tracer) = &self.trace {
            let buf = self
                .phase_buf
                .get_or_init(|| tracer.thread(0, 201, "study"));
            let name = tracer.name(phase);
            let now = buf.now_ns();
            buf.complete(name, now.saturating_sub(duration_ns), duration_ns);
        }
    }

    /// Runs simulation + analysis + claim evaluation.
    ///
    /// Fails with [`StudyError::NoMatchingFlows`] when the configured
    /// scale is too small for any CWA flow to survive sampling.
    pub fn run(&self) -> Result<StudyReport, StudyError> {
        let started = Instant::now();
        let sim = self.simulation().run();
        self.analyze_with_prelude(&sim, Some(started.elapsed()))
    }

    /// Runs the analysis on an existing simulation output (lets callers
    /// reuse one expensive simulation for several analyses).
    pub fn analyze(&self, sim: &SimOutput) -> Result<StudyReport, StudyError> {
        self.analyze_with_prelude(sim, None)
    }

    fn analyze_with_prelude(
        &self,
        sim: &SimOutput,
        simulate: Option<Duration>,
    ) -> Result<StudyReport, StudyError> {
        let cfg = &self.config;
        let days = sim.config.days;
        let hours = days * 24;

        let mut timings: Vec<PhaseTiming> = Vec::new();
        if let Some(elapsed) = simulate {
            self.record_phase(&mut timings, "phase.simulate", elapsed);
        }

        // §2: the data set. Borrowed references into `sim.records` —
        // the matching set is not materialized a second time.
        let t = Instant::now();
        let filter = FlowFilter::cwa(sim.cdn.service_prefixes.to_vec());
        let matching = filter.apply(&sim.records);
        self.record_phase(&mut timings, "analysis.filter", t.elapsed());
        if let Some(registry) = &self.metrics {
            registry
                .counter("analysis.filter.records_in")
                .add(sim.records.len() as u64);
            registry
                .counter("analysis.filter.records_matched")
                .add(matching.len() as u64);
        }

        // Figure 2 inputs.
        let t = Instant::now();
        let series = HourlySeries::from_records(matching.iter().copied(), hours);
        self.record_phase(&mut timings, "analysis.timeseries", t.elapsed());
        if let Some(registry) = &self.metrics {
            registry
                .counter("analysis.timeseries.hours")
                .add(u64::from(hours));
        }

        // Side tables in the analysis crate's vocabulary.
        let t = Instant::now();
        let isp_table = analysis_isp_table(&sim.isp_table);
        let pipeline = GeolocationPipeline::new(
            &sim.germany,
            &sim.geodb,
            &isp_table,
            sim.config.plan.prefix_len,
        );

        // Figure 3: 10 days starting at release (June 16–25). One
        // accumulator pass over the already-filtered records serves
        // both the 10-day and the day-1 windows (the day-1 map used to
        // cost a second full scan of all records).
        let mut geo_acc = GeoDayAccumulator::new(&pipeline, days.min(11));
        for rec in matching.iter().copied() {
            geo_acc.observe(rec);
        }
        let geo_10day = geo_acc.result(1, days.min(11));
        let geo_day1 = geo_acc.result(1, 2);
        self.record_phase(&mut timings, "analysis.geoloc", t.elapsed());
        if let Some(registry) = &self.metrics {
            let attributed: u64 = geo_10day.district_flows.iter().sum();
            registry
                .counter("analysis.geoloc.attributed_flows")
                .add(attributed);
        }

        // Persistence.
        let t = Instant::now();
        let mut persistence = PersistenceAnalysis::new(cfg.persistence_prefix_len, days);
        persistence.ingest(matching.iter().copied());
        self.record_phase(&mut timings, "analysis.persistence", t.elapsed());
        if let Some(registry) = &self.metrics {
            registry
                .counter("analysis.persistence.prefixes")
                .add(persistence.prefix_count() as u64);
        }

        // Outbreak analysis over the same already-filtered records —
        // no further full scan.
        let t = Instant::now();
        let mut outbreak_acc = OutbreakAccumulator::new(
            &sim.germany,
            &pipeline,
            isp_resolver(&isp_table, sim.config.plan.prefix_len),
            days,
        );
        for rec in matching.iter().copied() {
            outbreak_acc.observe(rec);
        }
        let outbreak = outbreak_acc.into_analysis();
        self.record_phase(&mut timings, "analysis.outbreak", t.elapsed());

        let products = AnalysisProducts {
            series,
            geo_10day,
            geo_day1,
            persistence,
            outbreak,
            matching_flows: matching.len() as u64,
            total_records: sim.records.len() as u64,
        };
        self.assemble_report(sim, products, timings)
    }

    /// Runs the fused simulate+analyze streaming pipeline on one shard:
    /// exactly [`run_sharded(1)`](Study::run_sharded).
    pub fn run_streaming(&self) -> Result<StudyReport, StudyError> {
        self.run_sharded(1)
    }

    /// Runs the fused simulate+analyze streaming pipeline over `shards`
    /// vantage shards.
    ///
    /// The simulation emits each export hour's flow records straight
    /// into one analysis [`Chain`] per shard, which applies the §2
    /// filter once per chunk and feeds every study accumulator
    /// incrementally — the full record vector is never materialized;
    /// only one export hour is resident per shard at a time. One shard
    /// runs on the calling thread. More split the router fleet, each
    /// shard producing, filtering and analyzing its own record
    /// partition on a dedicated worker (bounded channels provide
    /// backpressure), all anonymizing under the common study key
    /// ([`ShardKeyMode::Common`]). The partial accumulators are merged
    /// deterministically at the end, so the [`StudyReport`] is
    /// bit-identical to [`Study::run`]'s for every shard count, modulo
    /// the volatile phase timings (compare after
    /// [`StudyReport::strip_volatile`]).
    pub fn run_sharded(&self, shards: usize) -> Result<StudyReport, StudyError> {
        self.check_shards(shards)?;
        let cfg = &self.config;
        let days = cfg.sim.days;
        let started = Instant::now();
        let prepared = self.simulation().prepare();
        let prefix_len = prepared.config.plan.prefix_len;
        let filter = FlowFilter::cwa(prepared.cdn.service_prefixes.to_vec());
        let isp_table = analysis_isp_table(&prepared.isp_table);
        let pipeline =
            GeolocationPipeline::new(&prepared.germany, &prepared.geodb, &isp_table, prefix_len);
        let chains = (0..shards)
            .map(|i| {
                let consumers = Accumulators {
                    series: HourlySeries::new(days * 24),
                    geo: GeoDayAccumulator::new(&pipeline, days.min(11)),
                    persistence: PersistenceAnalysis::new(cfg.persistence_prefix_len, days),
                    outbreak: OutbreakAccumulator::new(
                        &prepared.germany,
                        &pipeline,
                        isp_resolver(&isp_table, prefix_len),
                        days,
                    ),
                };
                self.chain(&filter, consumers, i, shards, &CONSUMER_NAMES)
            })
            .collect();

        let mut timings = Vec::new();
        let (acc, counts) = self
            .drive(&prepared, chains, started, &mut timings)
            .into_results();
        let products = AnalysisProducts::new(
            acc.series,
            &acc.geo,
            acc.persistence,
            acc.outbreak.into_analysis(),
            &counts,
            days,
        );
        self.streamed_report(
            &ReportContext::from_prepared(&prepared),
            products,
            &counts,
            timings,
        )
    }

    /// Runs the live windowed pipeline: the same driver as
    /// [`run_sharded`](Study::run_sharded), but every chain feeds a
    /// [`WindowedView`] that additionally maintains the sliding
    /// last-N-days window with tiered downsampling, optionally paced
    /// against the wall clock ([`LiveOptions::replay_speed`]) and
    /// publishing interim `/report` + `/figures/*` documents into a
    /// [`LiveSnapshot`] mailbox as the replay advances.
    ///
    /// The returned report equals [`Study::run_sharded`]'s after
    /// [`strip_volatile`](StudyReport::strip_volatile) whenever the
    /// horizon fits the study tier (≤ 64 days, the persistence bitmap's
    /// width). Longer horizons — endless mode — cap the study tier at
    /// 64 days while the sliding window keeps advancing with bounded
    /// resident state; a batch run cannot cover such horizons at all.
    ///
    /// Pacing is a serial-driver feature — sharded runs replay at full
    /// speed — but both publish interim documents: the serial one after
    /// every export hour, the sharded one by merging day-boundary shard
    /// snapshots off the hot path and publishing the merged state once
    /// per simulated day.
    pub fn run_live(&self, opts: &LiveOptions) -> Result<StudyReport, StudyError> {
        let shards = opts.shards;
        self.check_shards(shards)?;
        let cfg = &self.config;
        let days = cfg.sim.days;
        let started = Instant::now();
        let prepared = self.simulation().prepare();
        let ctx = ReportContext::from_prepared(&prepared);
        let prefix_len = prepared.config.plan.prefix_len;
        let filter = FlowFilter::cwa(prepared.cdn.service_prefixes.to_vec());
        let isp_table = analysis_isp_table(&prepared.isp_table);
        let pipeline =
            GeolocationPipeline::new(&prepared.germany, &prepared.geodb, &isp_table, prefix_len);
        let publisher = || {
            opts.publish.as_ref().map(|live| LivePublisher {
                study: self,
                ctx: ReportContext::from_prepared(&prepared),
                live: Arc::clone(live),
            })
        };
        // One day-boundary deposit queue per shard when a sharded run
        // publishes.
        let queues: Vec<_> = if shards > 1 && opts.publish.is_some() {
            (0..shards)
                .map(|_| Arc::new(Mutex::new(VecDeque::new())))
                .collect()
        } else {
            Vec::new()
        };
        let chains = (0..shards)
            .map(|i| {
                let consumers = LiveView {
                    view: WindowedView::new(
                        &prepared.germany,
                        &pipeline,
                        isp_resolver(&isp_table, prefix_len),
                        cfg.persistence_prefix_len,
                        days.min(64),
                        opts.window,
                    ),
                    pace: opts
                        .replay_speed
                        .filter(|_| shards == 1)
                        .map(|speed| Duration::from_secs_f64(3600.0 / speed.max(1e-6))),
                    publisher: publisher().filter(|_| shards == 1),
                    deposits: queues.get(i).cloned(),
                };
                self.chain(&filter, consumers, i, shards, &["window"])
            })
            .collect();

        let mut timings = Vec::new();
        let merged = match publisher().filter(|_| !queues.is_empty()) {
            None => self.drive(&prepared, chains, started, &mut timings),
            Some(pump_publisher) => {
                let stop = AtomicBool::new(false);
                std::thread::scope(|scope| {
                    let pump = scope.spawn(|| loop {
                        if !publish_front_deposits(&queues, &pump_publisher) {
                            // Empty after the run ended means fully
                            // drained: every shard deposits the same
                            // number of day-boundary snapshots.
                            if stop.load(Ordering::Acquire) {
                                break;
                            }
                            std::thread::sleep(Duration::from_millis(2));
                        }
                    });
                    let merged = self.drive(&prepared, chains, started, &mut timings);
                    stop.store(true, Ordering::Release);
                    pump.join().expect("live publisher thread");
                    merged
                })
            }
        };

        let (live_view, counts) = merged.into_results();
        let view = live_view.view;
        let products = AnalysisProducts::from_view(&view, &counts, days);
        let report = self.streamed_report(&ctx, products, &counts, timings)?;
        if let Some(publisher) = publisher() {
            // The served end state is exactly the returned report.
            publisher.publish(&view, &counts, Some(&report));
        }
        Ok(report)
    }

    /// A simulation runner carrying this study's metrics, trace and
    /// chunk capacity.
    fn simulation(&self) -> Simulation {
        let mut simulation = Simulation::new(self.config.sim);
        if let Some(registry) = &self.metrics {
            simulation = simulation.with_metrics(Arc::clone(registry));
        }
        if let Some(tracer) = &self.trace {
            simulation = simulation.with_trace(Arc::clone(tracer));
        }
        if let Some(capacity) = self.chunk_capacity {
            simulation = simulation.with_chunk_capacity(capacity);
        }
        simulation
    }

    /// Rejects shard counts outside `1..=routers`: each shard owns at
    /// least one export engine.
    fn check_shards(&self, shards: usize) -> Result<(), StudyError> {
        let routers = self.config.sim.vantage.routers;
        if shards == 0 || shards > usize::from(routers) {
            return Err(StudyError::InvalidShardCount {
                requested: shards,
                routers,
            });
        }
        Ok(())
    }

    /// Wraps shard `shard`'s consumers in a chain behind `filter`, with
    /// the shard's `sim.shard.NN.records` counter and its flight-recorder
    /// track timing `stages`.
    fn chain<'w, C: Consumers>(
        &self,
        filter: &'w FlowFilter,
        consumers: C,
        shard: usize,
        shards: usize,
        stages: &[&str],
    ) -> Chain<'w, C> {
        let mut chain = Chain::new(filter, consumers, &CONSUMER_NAMES);
        if let Some(registry) = &self.metrics {
            chain = chain
                .with_records_counter(registry.counter(&format!("sim.shard.{shard:02}.records")));
        }
        if let Some(tracer) = &self.trace {
            // A single shard runs beside the day loop on pid 0; shard i
            // of several owns pid i + 1, next to its worker.
            let buf = if shards == 1 {
                tracer.thread(0, 200, "analysis")
            } else {
                tracer.thread(shard as u32 + 1, 2, "analysis")
            };
            chain = chain.with_trace(StageLog::new(tracer, buf, stages));
        }
        chain
    }

    /// The one streaming driver: runs `chains` (one per shard) over the
    /// prepared world's traffic — on the calling thread for a single
    /// shard, on the vantage shard workers otherwise — and absorb-merges
    /// them in shard order. Every accumulator merge is an element-wise
    /// monoid operation, so the result equals a single pass over the
    /// union stream.
    fn drive<'w, C: Consumers + Send>(
        &self,
        prepared: &PreparedSim,
        mut chains: Vec<Chain<'w, C>>,
        started: Instant,
        timings: &mut Vec<PhaseTiming>,
    ) -> Chain<'w, C> {
        let results = if chains.len() == 1 {
            let mut chain = chains.pop().expect("one shard");
            let (_truth, stats) = prepared.run_traffic(&mut chain);
            vec![(chain, stats)]
        } else {
            prepared.run_traffic_sharded(ShardKeyMode::Common, chains).1
        };
        self.record_phase(timings, "phase.simulate_analyze", started.elapsed());

        let t = Instant::now();
        let mut merged: Option<Chain<'w, C>> = None;
        for (i, (chain, stats)) in results.into_iter().enumerate() {
            if let Some(registry) = &self.metrics {
                registry
                    .gauge(&format!("sim.shard.{i:02}.peak_resident_records"))
                    .set(stats.peak_resident_records as i64);
            }
            match &mut merged {
                None => merged = Some(chain),
                Some(merged) => merged.absorb(&chain),
            }
        }
        self.record_phase(timings, "phase.merge", t.elapsed());
        merged.expect("at least one shard")
    }

    /// Publishes the merged stream counters once — plus the batch
    /// pipeline's analysis counters with identical values, so dashboards
    /// read the same either way — and assembles the final report.
    fn streamed_report(
        &self,
        ctx: &ReportContext<'_>,
        products: AnalysisProducts,
        counts: &StreamCounts,
        timings: Vec<PhaseTiming>,
    ) -> Result<StudyReport, StudyError> {
        if let Some(registry) = &self.metrics {
            registry
                .counter("analysis.stream.records_in")
                .add(counts.records_in);
            registry
                .counter("analysis.stream.records_matched")
                .add(counts.records_matched);
            for (name, count) in &counts.consumers {
                registry
                    .counter(&format!("analysis.stream.{name}.records"))
                    .add(*count);
            }
            registry
                .counter("analysis.filter.records_in")
                .add(counts.records_in);
            registry
                .counter("analysis.filter.records_matched")
                .add(counts.records_matched);
            registry
                .counter("analysis.timeseries.hours")
                .add(products.series.flows.len() as u64);
            registry
                .counter("analysis.geoloc.attributed_flows")
                .add(products.geo_10day.district_flows.iter().sum::<u64>());
            registry
                .counter("analysis.persistence.prefixes")
                .add(products.persistence.prefix_count() as u64);
        }
        self.assemble_report_ctx(ctx, products, timings, true)
    }

    /// Claim evaluation, figures, and manifest assembly — shared
    /// verbatim by the batch and streaming paths so both produce the
    /// exact same report from the same analysis products.
    fn assemble_report(
        &self,
        sim: &SimOutput,
        products: AnalysisProducts,
        timings: Vec<PhaseTiming>,
    ) -> Result<StudyReport, StudyError> {
        self.assemble_report_ctx(&ReportContext::from_output(sim), products, timings, true)
    }

    /// [`assemble_report`](Study::assemble_report) over borrowed side
    /// data, so live mode can evaluate the claim table mid-run from a
    /// [`PreparedSim`]. `finalize` marks the end-of-run call: only that
    /// one enforces `--strict` and flips the `sim.progress.done` gauge
    /// (an interim report must not make `/progress` claim completion).
    fn assemble_report_ctx(
        &self,
        sim: &ReportContext<'_>,
        products: AnalysisProducts,
        mut timings: Vec<PhaseTiming>,
        finalize: bool,
    ) -> Result<StudyReport, StudyError> {
        if finalize && self.strict && products.matching_flows == 0 {
            return Err(StudyError::NoMatchingFlows {
                scale: sim.config.scale,
                total_records: products.total_records,
            });
        }
        let cfg = &self.config;
        let days = sim.config.days;
        let hours = days * 24;
        let AnalysisProducts {
            series,
            geo_10day,
            geo_day1,
            persistence,
            outbreak,
            matching_flows,
            total_records,
        } = products;

        // Endless live runs cap the study tier at 64 days (the
        // persistence bitmap's width), so Figure 2 covers at most the
        // tier the series actually holds; for every batch run the series
        // spans the full horizon and this is exactly `hours`.
        let figure_hours = hours.min(series.flows.len() as u32);
        let downloads_hourly: Vec<f64> = (0..figure_hours)
            .map(|h| sim.downloads.downloads_at(h))
            .collect();
        let figure2 = Figure2::assemble(&series, &downloads_hourly, 48);
        let figure3 = Figure3::assemble(sim.germany, &geo_10day);

        // Adoption milestones need the curve through July 24, under the
        // run's own adoption parameters (a scenario overlay may have
        // changed the curve family).
        let t = Instant::now();
        let adoption_long = AdoptionModel::new(sim.config.adoption).run(
            sim.germany,
            sim.scenario,
            Timeline::through_july(),
        );
        self.record_phase(&mut timings, "analysis.adoption", t.elapsed());

        let claims = Evidence {
            scale: sim.config.scale,
            matching_flows,
            flows: matching_flows,
            window: None,
            series: &series,
            geo: &geo_10day,
            outbreak: &outbreak,
            plan: sim.plan,
            run: Some(RunEvidence {
                geo_day1: &geo_day1,
                persistence: &persistence,
                germany: sim.germany,
                downloads: &adoption_long,
                dns: sim.dns,
            }),
        }
        .judge();

        // Run manifest: provenance + timings. The hash covers the
        // configuration as actually simulated (callers can analyze a
        // SimOutput produced under a different config than `self`).
        let effective = StudyConfig {
            sim: *sim.config,
            persistence_prefix_len: cfg.persistence_prefix_len,
        };
        let config_json = serde_json::to_string(&effective).expect("config serializes");
        let digest = cwa_crypto::sha256(config_json.as_bytes());
        let config_hash: String = digest[..8].iter().map(|b| format!("{b:02x}")).collect();
        let manifest = RunManifest {
            seed: sim.config.seed,
            scale: sim.config.scale,
            days: sim.config.days,
            config_hash,
            phase_timings: timings,
        };

        // Live telemetry: the run is complete — `/progress` flips to
        // "done" and `/healthz` stops treating flat record counters as
        // a stall. Interim (non-finalizing) assemblies must not flip it.
        if finalize {
            if let Some(registry) = &self.metrics {
                registry.gauge("sim.progress.done").set(1);
            }
        }

        Ok(StudyReport {
            config: *cfg,
            manifest,
            figure2,
            figure3,
            claims,
            matching_flows,
            total_records,
            district_flows: geo_10day.district_flows.clone(),
            persistence_median: persistence.fraction_quantile(0.5),
            persistence_p75: persistence.fraction_quantile(0.75),
            ground_truth_share: geo_10day.ground_truth_share(),
            release_jump: series.release_jump(),
            api_rank_by_day: sim.dns.api_rank.clone(),
            website_rank_by_day: sim.dns.website_rank.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One shared small run for all study-level assertions (the full
    /// claim-by-claim validation lives in the integration tests).
    #[test]
    fn study_runs_and_reports() {
        let report = Study::new(StudyConfig::test_small())
            .run()
            .expect("small study produces matching flows");
        assert_eq!(report.claims.len(), 14);
        assert!(report.matching_flows > 0);
        assert!(report.total_records > report.matching_flows);
        // The run manifest carries provenance and per-phase timings.
        assert_eq!(report.manifest.seed, report.config.sim.seed);
        assert_eq!(report.manifest.scale, report.config.sim.scale);
        assert_eq!(report.manifest.config_hash.len(), 16);
        let phases: Vec<&str> = report
            .manifest
            .phase_timings
            .iter()
            .map(|p| p.phase.as_str())
            .collect();
        for expected in [
            "phase.simulate",
            "analysis.filter",
            "analysis.timeseries",
            "analysis.geoloc",
            "analysis.persistence",
            "analysis.outbreak",
            "analysis.adoption",
        ] {
            assert!(phases.contains(&expected), "missing phase {expected}");
        }
        assert!(report.strip_volatile().manifest.phase_timings.is_empty());
        // Figure 2 has one point per hour.
        assert_eq!(report.figure2.flows_normed.len(), 264);
        // Figure 3 covers all districts.
        assert_eq!(report.figure3.rows.len(), 401);
        // The text rendering mentions every claim code.
        let text = report.render_text();
        for claim in &report.claims {
            assert!(
                text.contains(claim.id.code()),
                "missing {}",
                claim.id.code()
            );
        }
    }
}
