//! Outbreak-effect analysis (§3, "No effect of local COVID-19
//! outbreaks").
//!
//! The paper's reasoning steps, reproduced here:
//!
//! 1. Around June 23 (Gütersloh/Warendorf lockdown) traffic increases —
//!    but the increase "also occurs on federal state level
//!    simultaneously — not only in the federal state (NRW) being home to
//!    the affected districts".
//! 2. "In Gütersloh, the traffic increased only very slightly and hardly
//!    noticeable."
//! 3. "The outbreak in Berlin on June 18 is only visible for users of a
//!    single ISP and not in the overall traffic from Berlin-based
//!    users."
//!
//! All comparisons are growth ratios of geolocated flow counts between a
//! pre-window and a post-window.

use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::ops::Range;

use serde::{Deserialize, Serialize};

use cwa_geo::{DistrictId, FederalState, Germany};
use cwa_netflow::flow::FlowRecord;
use cwa_netflow::sink::{FlowChunk, FlowSink};

use crate::filter::FlowFilter;
use crate::geoloc::GeolocationPipeline;

/// Day-resolved, geolocated flow tables.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OutbreakAnalysis {
    /// `district_flows[day][district]`.
    pub district_flows: Vec<Vec<u64>>,
    /// `state_flows[day][state index]` (16 states).
    pub state_flows: Vec<[u64; 16]>,
    /// Berlin-located flows per day, by ISP id.
    pub berlin_isp_flows: HashMap<u8, Vec<u64>>,
    pub(crate) days: u32,
}

impl OutbreakAnalysis {
    /// Builds the tables from records via the geolocation pipeline.
    /// `isp_of` resolves a client address to an ISP id (from the side
    /// table), mirroring what the vantage-point operator knows.
    pub fn compute<F>(
        germany: &Germany,
        records: &[FlowRecord],
        filter: &FlowFilter,
        pipeline: &GeolocationPipeline<'_>,
        isp_of: F,
        days: u32,
    ) -> Self
    where
        F: Fn(Ipv4Addr) -> Option<u8>,
    {
        let mut acc = OutbreakAccumulator::new(germany, pipeline, isp_of, days);
        for rec in records {
            if filter.matches(rec) {
                acc.observe(rec);
            }
        }
        acc.into_analysis()
    }

    /// Flows of one district over a day range (days without a district
    /// row count zero).
    pub fn district_sum(&self, district: DistrictId, days: Range<u32>) -> u64 {
        days.filter_map(|d| {
            self.district_flows
                .get(d as usize)?
                .get(usize::from(district.0))
        })
        .sum()
    }

    /// Growth ratio `post/pre` for one district (NaN when pre is 0).
    pub fn district_growth(&self, district: DistrictId, pre: Range<u32>, post: Range<u32>) -> f64 {
        ratio(
            self.district_sum(district, post),
            self.district_sum(district, pre),
        )
    }

    /// Geolocated flows nationwide over a day range.
    pub fn national_sum(&self, days: Range<u32>) -> u64 {
        days.filter_map(|d| self.state_flows.get(d as usize))
            .map(|states| states.iter().sum::<u64>())
            .sum()
    }

    /// Berlin-located flows over a day range, summed across ISPs.
    pub fn berlin_sum(&self, days: Range<u32>) -> u64 {
        self.berlin_isp_flows
            .values()
            .map(|per_day| {
                days.clone()
                    .filter_map(|d| per_day.get(d as usize))
                    .sum::<u64>()
            })
            .sum()
    }

    /// Growth ratio per federal state.
    pub fn state_growth(&self, pre: Range<u32>, post: Range<u32>) -> [f64; 16] {
        let mut out = [f64::NAN; 16];
        for (s, slot) in out.iter_mut().enumerate() {
            let pre_sum: u64 = pre
                .clone()
                .filter(|&d| d < self.days)
                .map(|d| self.state_flows[d as usize][s])
                .sum();
            let post_sum: u64 = post
                .clone()
                .filter(|&d| d < self.days)
                .map(|d| self.state_flows[d as usize][s])
                .sum();
            *slot = ratio(post_sum, pre_sum);
        }
        out
    }

    /// National growth ratio.
    pub fn national_growth(&self, pre: Range<u32>, post: Range<u32>) -> f64 {
        ratio(self.national_sum(post), self.national_sum(pre))
    }

    /// Per-ISP growth of Berlin-located traffic.
    pub fn berlin_isp_growth(&self, pre: Range<u32>, post: Range<u32>) -> Vec<(u8, f64)> {
        let mut out: Vec<(u8, f64)> = self
            .berlin_isp_flows
            .iter()
            .map(|(&isp, series)| {
                let pre_sum: u64 = pre
                    .clone()
                    .filter(|&d| d < self.days)
                    .map(|d| series[d as usize])
                    .sum();
                let post_sum: u64 = post
                    .clone()
                    .filter(|&d| d < self.days)
                    .map(|d| series[d as usize])
                    .sum();
                (isp, ratio(post_sum, pre_sum))
            })
            .collect();
        out.sort_by_key(|&(isp, _)| isp);
        out
    }

    /// The paper's NRW test: is NRW's June-23 growth within `tolerance`
    /// (multiplicatively) of the *median* growth of the other states?
    /// Returns `(nrw_growth, median_other_growth, within)`.
    pub fn nrw_vs_rest(
        &self,
        pre: Range<u32>,
        post: Range<u32>,
        tolerance: f64,
    ) -> (f64, f64, bool) {
        let growth = self.state_growth(pre, post);
        let nrw = growth[FederalState::NordrheinWestfalen.index()];
        let median = median_finite(
            (0..16)
                .filter(|&i| i != FederalState::NordrheinWestfalen.index())
                .map(|i| growth[i]),
        );
        let within = nrw.is_finite() && (nrw / median).max(median / nrw) <= tolerance;
        (nrw, median, within)
    }

    /// The paper's Berlin test: the growth of Berlin-located traffic
    /// within ISP `isp` against the median growth of the other ISPs.
    /// Returns `(isp_growth, median_other_growth)`; the ISP's growth is
    /// NaN when it has no Berlin traffic.
    pub fn berlin_isp_vs_rest(&self, isp: u8, pre: Range<u32>, post: Range<u32>) -> (f64, f64) {
        let growth = self.berlin_isp_growth(pre, post);
        let own = growth
            .iter()
            .find(|&&(i, _)| i == isp)
            .map_or(f64::NAN, |&(_, g)| g);
        let median = median_finite(growth.iter().filter(|&&(i, _)| i != isp).map(|&(_, g)| g));
        (own, median)
    }
}

/// The upper median of the finite values. At starvation-level scales
/// every value can be NaN (a zero pre-window sum), leaving nothing to
/// take a median over — that yields NaN rather than a panic, so the
/// claim reading it evaluates as starved.
fn median_finite(values: impl Iterator<Item = f64>) -> f64 {
    let mut finite: Vec<f64> = values.filter(|g| g.is_finite()).collect();
    finite.sort_by(|a, b| a.partial_cmp(b).expect("finite growths"));
    finite.get(finite.len() / 2).copied().unwrap_or(f64::NAN)
}

fn ratio(post: u64, pre: u64) -> f64 {
    if pre == 0 {
        return f64::NAN;
    }
    post as f64 / pre as f64
}

/// Streaming form of [`OutbreakAnalysis::compute`]: feed it one
/// (already §2-filtered) record at a time, then take the finished
/// tables with [`into_analysis`](OutbreakAccumulator::into_analysis).
///
/// The client is the record's destination address (CDN → user
/// direction), exactly [`FlowFilter::client_of`].
#[derive(Clone)]
pub struct OutbreakAccumulator<'a, F> {
    germany: &'a Germany,
    pipeline: &'a GeolocationPipeline<'a>,
    isp_of: F,
    berlin: Option<DistrictId>,
    district_flows: Vec<Vec<u64>>,
    state_flows: Vec<[u64; 16]>,
    berlin_isp_flows: HashMap<u8, Vec<u64>>,
    days: u32,
}

impl<'a, F> OutbreakAccumulator<'a, F>
where
    F: Fn(Ipv4Addr) -> Option<u8>,
{
    /// Creates an empty accumulator for a `days`-day study window.
    pub fn new(
        germany: &'a Germany,
        pipeline: &'a GeolocationPipeline<'a>,
        isp_of: F,
        days: u32,
    ) -> Self {
        let n = germany.len();
        OutbreakAccumulator {
            germany,
            pipeline,
            isp_of,
            berlin: germany.by_name("Berlin").map(|d| d.id),
            district_flows: vec![vec![0u64; n]; days as usize],
            state_flows: vec![[0u64; 16]; days as usize],
            berlin_isp_flows: HashMap::new(),
            days,
        }
    }

    /// Geolocates one filtered record into the day tables.
    pub fn observe(&mut self, rec: &FlowRecord) {
        self.observe_client(rec.first_ms, rec.key.dst_ip);
    }

    /// The column-level form of [`observe`](OutbreakAccumulator::observe):
    /// the accumulator only reads the record's start time and client.
    fn observe_client(&mut self, first_ms: u64, client: Ipv4Addr) {
        let day = (first_ms / 86_400_000) as u32;
        if day >= self.days {
            return;
        }
        let (district, _attr) = self.pipeline.locate(client);
        let Some(district) = district else { return };
        self.district_flows[day as usize][usize::from(district.0)] += 1;
        let state = self.germany.district(district).state;
        self.state_flows[day as usize][state.index()] += 1;

        if Some(district) == self.berlin {
            if let Some(isp) = (self.isp_of)(client) {
                self.berlin_isp_flows
                    .entry(isp)
                    .or_insert_with(|| vec![0u64; self.days as usize])[day as usize] += 1;
            }
        }
    }

    /// Merges another accumulator's day tables into this one
    /// (element-wise sums; per-ISP Berlin series united by ISP id). The
    /// other accumulator may use a different resolver type — shards
    /// resolve through identical side tables, so the merged tables equal
    /// a single-pass accumulation of the combined record stream.
    pub fn absorb<G>(&mut self, other: &OutbreakAccumulator<'_, G>)
    where
        G: Fn(Ipv4Addr) -> Option<u8>,
    {
        assert_eq!(self.days, other.days, "same day window required");
        assert_eq!(
            self.germany.len(),
            other.germany.len(),
            "same district universe required"
        );
        for (mine, theirs) in self.district_flows.iter_mut().zip(&other.district_flows) {
            for (a, b) in mine.iter_mut().zip(theirs) {
                *a += b;
            }
        }
        for (mine, theirs) in self.state_flows.iter_mut().zip(&other.state_flows) {
            for (a, b) in mine.iter_mut().zip(theirs) {
                *a += b;
            }
        }
        for (isp, series) in &other.berlin_isp_flows {
            let mine = self
                .berlin_isp_flows
                .entry(*isp)
                .or_insert_with(|| vec![0u64; self.days as usize]);
            for (a, b) in mine.iter_mut().zip(series) {
                *a += b;
            }
        }
    }

    /// Snapshots the tables accumulated so far without ending the
    /// stream — the live-serving form of
    /// [`into_analysis`](OutbreakAccumulator::into_analysis). A snapshot
    /// taken after the last record equals the consumed result.
    pub fn to_analysis(&self) -> OutbreakAnalysis {
        OutbreakAnalysis {
            district_flows: self.district_flows.clone(),
            state_flows: self.state_flows.clone(),
            berlin_isp_flows: self.berlin_isp_flows.clone(),
            days: self.days,
        }
    }

    /// Finishes the stream, yielding the analysis tables.
    pub fn into_analysis(self) -> OutbreakAnalysis {
        OutbreakAnalysis {
            district_flows: self.district_flows,
            state_flows: self.state_flows,
            berlin_isp_flows: self.berlin_isp_flows,
            days: self.days,
        }
    }
}

impl<F> FlowSink for OutbreakAccumulator<'_, F>
where
    F: Fn(Ipv4Addr) -> Option<u8>,
{
    fn observe(&mut self, rec: &FlowRecord) {
        OutbreakAccumulator::observe(self, rec);
    }

    fn observe_chunk(&mut self, chunk: &FlowChunk) {
        for (&first_ms, &dst) in chunk.first_ms.iter().zip(&chunk.dst_ip) {
            self.observe_client(first_ms, Ipv4Addr::from(dst));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-built tables (bypassing compute) to verify the arithmetic.
    fn synthetic() -> OutbreakAnalysis {
        let n = 401;
        let days = 11u32;
        let mut district_flows = vec![vec![0u64; n]; days as usize];
        let mut state_flows = vec![[0u64; 16]; days as usize];
        // Uniform base 100/day in districts 0 (Berlin, BE) and 15
        // (Gütersloh, NW); days 8..11 x1.5 everywhere (national news).
        for day in 0..days as usize {
            let boost = if day >= 8 { 3 } else { 2 };
            district_flows[day][0] = 50 * boost;
            district_flows[day][15] = 50 * boost;
            state_flows[day][FederalState::Berlin.index()] = 50 * boost;
            state_flows[day][FederalState::NordrheinWestfalen.index()] = 50 * boost;
            // Give every other state some base traffic too.
            for flows in state_flows[day].iter_mut() {
                if *flows == 0 {
                    *flows = 40 * boost;
                }
            }
        }
        let mut berlin_isp_flows = HashMap::new();
        // ISP 2: local Berlin bump on days 3..5; ISP 0: flat.
        let mut isp2 = vec![10u64; days as usize];
        isp2[3] = 18;
        isp2[4] = 15;
        berlin_isp_flows.insert(2u8, isp2);
        berlin_isp_flows.insert(0u8, vec![40u64; days as usize]);
        OutbreakAnalysis {
            district_flows,
            state_flows,
            berlin_isp_flows,
            days,
        }
    }

    #[test]
    fn growth_ratios() {
        let a = synthetic();
        // All states: (3×3 days)/(2×3 days) = 1.5.
        let g = a.state_growth(5..8, 8..11);
        for (s, growth) in g.iter().enumerate() {
            assert!((growth - 1.5).abs() < 1e-12, "state {s}: {growth}");
        }
        assert!((a.national_growth(5..8, 8..11) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn nrw_vs_rest_within_tolerance() {
        let a = synthetic();
        let (nrw, median, within) = a.nrw_vs_rest(5..8, 8..11, 1.25);
        assert!((nrw - 1.5).abs() < 1e-12);
        assert!((median - 1.5).abs() < 1e-12);
        assert!(within);
    }

    #[test]
    fn district_growth_math() {
        let a = synthetic();
        let g = a.district_growth(DistrictId(15), 5..8, 8..11);
        assert!((g - 1.5).abs() < 1e-12);
    }

    #[test]
    fn berlin_single_isp_visibility() {
        let a = synthetic();
        let growth = a.berlin_isp_growth(1..3, 3..5);
        let isp0 = growth.iter().find(|(i, _)| *i == 0).unwrap().1;
        let isp2 = growth.iter().find(|(i, _)| *i == 2).unwrap().1;
        assert!((isp0 - 1.0).abs() < 1e-12, "flat ISP: {isp0}");
        assert!(isp2 > 1.3, "bumped ISP: {isp2}");
        // ISP 2 against the median of the others (ISP 0 alone).
        assert_eq!(a.berlin_isp_vs_rest(2, 1..3, 3..5), (isp2, isp0));
        let (absent, median) = a.berlin_isp_vs_rest(9, 1..3, 3..5);
        assert!(
            absent.is_nan(),
            "an ISP without Berlin traffic has no growth"
        );
        assert_eq!(median, isp2, "upper median of {{1.0, isp2}}");
    }

    #[test]
    fn nan_on_zero_baseline() {
        let a = OutbreakAnalysis {
            district_flows: vec![vec![0; 401]; 11],
            state_flows: vec![[0; 16]; 11],
            berlin_isp_flows: HashMap::new(),
            days: 11,
        };
        assert!(a.national_growth(0..3, 3..6).is_nan());
        assert!(a.district_growth(DistrictId(0), 0..3, 3..6).is_nan());
        assert!(a.berlin_isp_vs_rest(0, 1..3, 3..5).1.is_nan());
    }

    #[test]
    fn absorb_equals_single_pass() {
        use crate::geoloc::IspInfo;
        use cwa_geo::{AddressPlan, AddressPlanConfig, GeoDb, GeoDbConfig};
        use cwa_netflow::flow::{FlowKey, Protocol};

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
        let mut isp_table = HashMap::new();
        for alloc in plan.allocations() {
            let is_gt = plan.isp(alloc.isp).ground_truth_routers;
            isp_table.insert(
                cwa_geo::geodb::mask(alloc.network, alloc.len),
                IspInfo {
                    isp: alloc.isp.0,
                    router_district: is_gt.then_some(alloc.district),
                },
            );
        }
        let pipeline = GeolocationPipeline::new(&g, &geodb, &isp_table, 18);
        let isp_of = |client: Ipv4Addr| {
            isp_table
                .get(&cwa_geo::geodb::mask(client, 18))
                .map(|e| e.isp)
        };
        let rec = |client: Ipv4Addr, day: u64| FlowRecord {
            key: FlowKey {
                src_ip: Ipv4Addr::new(81, 200, 16, 1),
                dst_ip: client,
                src_port: 443,
                dst_port: 50_000,
                protocol: Protocol::Tcp,
            },
            packets: 1,
            bytes: 100,
            first_ms: day * 86_400_000 + 7,
            last_ms: day * 86_400_000 + 400,
            tcp_flags: 0,
        };
        let records: Vec<FlowRecord> = plan
            .allocations()
            .iter()
            .take(150)
            .enumerate()
            .map(|(i, alloc)| rec(alloc.host(3), (i % 11) as u64))
            .collect();

        let mut single = OutbreakAccumulator::new(&g, &pipeline, isp_of, 11);
        for r in &records {
            single.observe(r);
        }
        let mut left = OutbreakAccumulator::new(&g, &pipeline, isp_of, 11);
        let mut right = OutbreakAccumulator::new(&g, &pipeline, isp_of, 11);
        for (i, r) in records.iter().enumerate() {
            if i % 2 == 0 {
                left.observe(r);
            } else {
                right.observe(r);
            }
        }
        left.absorb(&right);
        left.absorb(&OutbreakAccumulator::new(&g, &pipeline, isp_of, 11)); // identity

        let merged = left.into_analysis();
        let one = single.into_analysis();
        assert_eq!(merged.district_flows, one.district_flows);
        assert_eq!(merged.state_flows, one.state_flows);
        assert_eq!(merged.berlin_isp_flows, one.berlin_isp_flows);
    }

    #[test]
    fn ranges_clipped_to_days() {
        let a = synthetic();
        // post range extends beyond the data; clipped silently.
        let g = a.national_growth(5..8, 8..20);
        assert!(g.is_finite());
    }
}
