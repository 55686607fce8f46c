//! The paper's quantitative claims and their tolerance bands.
//!
//! A poster has no numbered tables; its quantitative statements *are*
//! its tables. Each [`Claim`] records the paper's value, the band we
//! accept for a simulated reproduction (shapes and ratios are expected
//! to transfer; absolute vantage-point-specific constants are not), the
//! measured value, and pass/fail.

use std::ops::Range;

use serde::{Deserialize, Serialize};

use cwa_analysis::geoloc::GeoResult;
use cwa_analysis::outbreak::OutbreakAnalysis;
use cwa_analysis::persistence::PersistenceAnalysis;
use cwa_analysis::timeseries::HourlySeries;
use cwa_epidemic::timeline::{JULY_24_DAY, MILESTONE_36H_HOUR};
use cwa_epidemic::AdoptionCurve;
use cwa_geo::{AddressPlan, Germany};
use cwa_simnet::DnsStudy;

/// Experiment identifiers (see DESIGN.md §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ClaimId {
    /// §2: ≈ 3.3 M matching flows within June 15–25.
    C1MatchingFlows,
    /// §3: 7.5× increase of flows on June 16.
    C2ReleaseJump,
    /// §3: 6.4 M downloads 36 h after release.
    C3aDownloads36h,
    /// §3: 16.2 M total downloads by July 24.
    C3bDownloadsJuly24,
    /// §3: median prefix occurs in 67 % of possible days.
    C4aPersistenceMedian,
    /// §3: p75 prefix occurs in 80 % of possible days.
    C4bPersistenceP75,
    /// §3/Fig. 3: almost all districts emit requests (10-day coverage).
    C5aCoverage10Day,
    /// §3: the first-day map looks almost the same (day-1 coverage).
    C5bCoverageDay1,
    /// §3: NRW's June-23 growth ≈ the other states' growth.
    C6aNrwVsRest,
    /// §3: Gütersloh itself increased "only very slightly".
    C6bGuetersloh,
    /// §3: Berlin June-18 visible in a single ISP only.
    C6cBerlinSingleIsp,
    /// §2: API name entered the Umbrella top 1 M late in the window.
    C7aUmbrellaApi,
    /// §2: the website never appeared in the top 1 M.
    C7bUmbrellaWebsite,
    /// §3: 18 % of geolocations from router ground truth.
    C7cGroundTruthShare,
}

impl ClaimId {
    /// Short id string used in reports ("C1", "C4a", …).
    pub fn code(self) -> &'static str {
        match self {
            ClaimId::C1MatchingFlows => "C1",
            ClaimId::C2ReleaseJump => "C2",
            ClaimId::C3aDownloads36h => "C3a",
            ClaimId::C3bDownloadsJuly24 => "C3b",
            ClaimId::C4aPersistenceMedian => "C4a",
            ClaimId::C4bPersistenceP75 => "C4b",
            ClaimId::C5aCoverage10Day => "C5a",
            ClaimId::C5bCoverageDay1 => "C5b",
            ClaimId::C6aNrwVsRest => "C6a",
            ClaimId::C6bGuetersloh => "C6b",
            ClaimId::C6cBerlinSingleIsp => "C6c",
            ClaimId::C7aUmbrellaApi => "C7a",
            ClaimId::C7bUmbrellaWebsite => "C7b",
            ClaimId::C7cGroundTruthShare => "C7c",
        }
    }
}

/// The analysis input cell a claim draws its measured value from. When
/// a cell carries too little data at a small scale, the claims reading
/// it are marked [`Verdict::Starved`] rather than pass/fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Cell {
    /// The §2-filtered matching flow set itself.
    Flows,
    /// The hourly flow time series (Figure 2).
    HourlySeries,
    /// A geolocation window (Figure 3 / coverage / attribution).
    GeoWindow,
    /// The prefix-persistence distribution.
    Persistence,
    /// An outbreak pre/post comparison window.
    Outbreak,
    /// Public side data (download curve, DNS ranks) — never starves.
    SideData,
}

/// Per-claim outcome: in band, out of band, or not evaluable because
/// the claim's input cell lacks data at the simulated scale.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Verdict {
    /// Measured value is finite and inside the band.
    Pass,
    /// Measured value is finite but outside the band — a genuine
    /// reproduction failure.
    Fail,
    /// The claim's input cell is starved: the value is meaningless
    /// (sparse or NaN), not wrong. Degrades the claim instead of
    /// aborting the whole report.
    Starved {
        /// Which input cell lacked data.
        cell: Cell,
        /// The run's §2 matching-flow count, for context.
        matching_flows: u64,
    },
}

impl Verdict {
    /// True for [`Verdict::Pass`].
    pub fn is_pass(self) -> bool {
        matches!(self, Verdict::Pass)
    }

    /// True for [`Verdict::Fail`].
    pub fn is_fail(self) -> bool {
        matches!(self, Verdict::Fail)
    }

    /// True for [`Verdict::Starved`].
    pub fn is_starved(self) -> bool {
        matches!(self, Verdict::Starved { .. })
    }

    /// Short lowercase label for tables: "pass" / "fail" / "starved".
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Fail => "fail",
            Verdict::Starved { .. } => "starved",
        }
    }
}

/// One evaluated claim.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Claim {
    /// Which claim.
    pub id: ClaimId,
    /// What the paper states (human-readable).
    pub paper_statement: String,
    /// The paper's numeric value, where it has one.
    pub paper_value: Option<f64>,
    /// The measured value from the reproduction.
    pub measured: f64,
    /// The acceptance band `[lo, hi]` (inclusive).
    pub band: (f64, f64),
    /// Whether the measured value falls in the band (false for both
    /// fail and starved; kept alongside `verdict` for compatibility).
    pub pass: bool,
    /// The three-way outcome (pass / fail / starved).
    pub verdict: Verdict,
    /// Extra context (e.g. per-state numbers).
    pub detail: String,
}

/// Minimum per-cell observation counts below which the claims reading a
/// cell are reported as [`Verdict::Starved`] instead of pass/fail. The
/// thresholds were tuned empirically across scales 0.0005–0.02: at
/// scale 0.02 every cell clears its threshold (the full claim table
/// evaluates, nothing starves); at 0.01 the day-1 geo window is the
/// first cell to drop under (≈1.4k located flows — its C5b share
/// estimate is visibly noise-driven there); at 0.005 the Berlin per-ISP
/// window follows (≈75 pre-window flows); and the default `test_small`
/// scale 0.004 additionally drains the Gütersloh pre-window. A starved
/// cell means "not enough observations to judge", never "the claim
/// failed".
pub mod min_support {
    /// §2 matching flows for C1 — any evidence at all.
    pub const FLOWS: u64 = 1;
    /// Pre-release-day flows for the C2 jump denominator.
    pub const DAY0_FLOWS: u64 = 25;
    /// Distinct prefixes behind the C4 persistence quantiles.
    pub const PREFIXES: u64 = 20;
    /// Located flows in the 10-day geo window (C5a, C7c).
    pub const GEO_10DAY_FLOWS: u64 = 5_000;
    /// Located flows in the day-1 geo window (C5b).
    pub const GEO_DAY1_FLOWS: u64 = 2_000;
    /// National pre-window flows for the C6a growth ratio.
    pub const OUTBREAK_NATIONAL_PRE: u64 = 400;
    /// Gütersloh pre-window flows for the C6b growth ratio.
    pub const OUTBREAK_DISTRICT_PRE: u64 = 12;
    /// Berlin per-ISP pre-window flows for C6c.
    pub const OUTBREAK_BERLIN_PRE: u64 = 100;
}

/// One claim's fixed definition: what the paper states, the band a
/// reproduction must land in, and the input cell its measured value is
/// drawn from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClaimDef {
    /// Which claim.
    pub id: ClaimId,
    /// What the paper states (human-readable).
    pub statement: &'static str,
    /// The paper's numeric value, where it has one.
    pub paper_value: Option<f64>,
    /// The acceptance band `[lo, hi]` (inclusive).
    pub band: (f64, f64),
    /// The analysis input cell the measured value is drawn from.
    pub cell: Cell,
    /// Observations the cell must carry for a pass/fail verdict (see
    /// [`min_support`]); [`Cell::SideData`] never starves.
    pub min_support: u64,
}

/// The paper's claim table, in report order. The study report and the
/// live window verdicts both judge claims through these definitions.
pub const CLAIMS: [ClaimDef; 14] = [
    ClaimDef {
        id: ClaimId::C1MatchingFlows,
        statement: "≈3.3M matching flows within June 15–25 (§2)",
        paper_value: Some(3.3e6),
        band: (1.5e6, 6.5e6),
        cell: Cell::Flows,
        min_support: min_support::FLOWS,
    },
    ClaimDef {
        id: ClaimId::C2ReleaseJump,
        statement: "7.5× increase of flows on June 16 (§3)",
        paper_value: Some(7.5),
        band: (4.0, 12.0),
        cell: Cell::HourlySeries,
        min_support: min_support::DAY0_FLOWS,
    },
    ClaimDef {
        id: ClaimId::C3aDownloads36h,
        statement: "6.4M downloads 36 h after release (§3)",
        paper_value: Some(6.4e6),
        band: (5.4e6, 7.4e6),
        cell: Cell::SideData,
        min_support: 0,
    },
    ClaimDef {
        id: ClaimId::C3bDownloadsJuly24,
        statement: "16.2M total downloads by July 24 (§3)",
        paper_value: Some(16.2e6),
        band: (15.0e6, 17.5e6),
        cell: Cell::SideData,
        min_support: 0,
    },
    ClaimDef {
        id: ClaimId::C4aPersistenceMedian,
        statement: "50% of prefixes occur in 67% of possible days (§3)",
        paper_value: Some(0.67),
        band: (0.45, 0.90),
        cell: Cell::Persistence,
        min_support: min_support::PREFIXES,
    },
    ClaimDef {
        id: ClaimId::C4bPersistenceP75,
        statement: "75% of prefixes occur in ≤80% of possible days (§3)",
        paper_value: Some(0.80),
        band: (0.60, 1.0),
        cell: Cell::Persistence,
        min_support: min_support::PREFIXES,
    },
    ClaimDef {
        id: ClaimId::C5aCoverage10Day,
        statement: "almost all districts emit requests over 10 days (Fig. 3)",
        paper_value: None,
        band: (0.95, 1.0),
        cell: Cell::GeoWindow,
        min_support: min_support::GEO_10DAY_FLOWS,
    },
    ClaimDef {
        id: ClaimId::C5bCoverageDay1,
        statement: "the first-day map is almost the same (§3)",
        paper_value: None,
        band: (0.85, 1.01),
        cell: Cell::GeoWindow,
        min_support: min_support::GEO_DAY1_FLOWS,
    },
    ClaimDef {
        id: ClaimId::C6aNrwVsRest,
        statement: "June-23 increase occurs in all states, not only NRW (§3)",
        paper_value: None,
        band: (0.80, 1.25),
        cell: Cell::Outbreak,
        min_support: min_support::OUTBREAK_NATIONAL_PRE,
    },
    ClaimDef {
        id: ClaimId::C6bGuetersloh,
        statement: "Gütersloh itself increased only very slightly (§3)",
        paper_value: None,
        // The substantive bound is the upper one: a *local* effect
        // would push Gütersloh well above the national growth. The
        // district's small per-day counts make the ratio noisy
        // downward at reduced scales.
        band: (0.5, 1.5),
        cell: Cell::Outbreak,
        min_support: min_support::OUTBREAK_DISTRICT_PRE,
    },
    ClaimDef {
        id: ClaimId::C6cBerlinSingleIsp,
        statement: "Berlin June-18 outbreak visible only within a single ISP (§3)",
        paper_value: None,
        band: (1.10, 6.0),
        cell: Cell::Outbreak,
        min_support: min_support::OUTBREAK_BERLIN_PRE,
    },
    ClaimDef {
        id: ClaimId::C7aUmbrellaApi,
        statement: "API name entered the Umbrella top 1M late in the window (Jun 24) (§2)",
        paper_value: Some(9.0),
        band: (6.0, 10.0),
        cell: Cell::SideData,
        min_support: 0,
    },
    ClaimDef {
        id: ClaimId::C7bUmbrellaWebsite,
        statement: "the website never appeared in the top 1M (§2)",
        paper_value: Some(0.0),
        band: (0.0, 0.0),
        cell: Cell::SideData,
        min_support: 0,
    },
    ClaimDef {
        id: ClaimId::C7cGroundTruthShare,
        statement: "18% of geolocations from router ground truth (§3)",
        paper_value: Some(0.18),
        band: (0.12, 0.25),
        cell: Cell::GeoWindow,
        min_support: min_support::GEO_10DAY_FLOWS,
    },
];

impl ClaimDef {
    /// Judges a measured value: pass when it is finite and inside the
    /// band, fail when it is outside — and starved when the claim's cell
    /// carries fewer than `min_support` observations (`support`) or the
    /// value is not finite (a NaN from an empty window is starvation by
    /// definition, never a reproduction failure). Side data never
    /// starves. `matching_flows`, the run's §2 count, is recorded in a
    /// starved verdict for context.
    pub fn judge(&self, measured: f64, support: u64, matching_flows: u64, detail: String) -> Claim {
        let starved =
            self.cell != Cell::SideData && (support < self.min_support || !measured.is_finite());
        let pass =
            !starved && measured.is_finite() && measured >= self.band.0 && measured <= self.band.1;
        let verdict = if starved {
            Verdict::Starved {
                cell: self.cell,
                matching_flows,
            }
        } else if pass {
            Verdict::Pass
        } else {
            Verdict::Fail
        };
        Claim {
            id: self.id,
            paper_statement: self.statement.to_owned(),
            paper_value: self.paper_value,
            measured,
            band: self.band,
            pass,
            verdict,
            detail,
        }
    }
}

/// What the claim table is judged over. The study report supplies every
/// input; a live window supplies the ones it holds (no [`run`] inputs)
/// and is judged only on the claims whose anchor days it still holds.
///
/// [`run`]: Evidence::run
pub(crate) struct Evidence<'a> {
    /// Simulated traffic scale (C1 scales its count back to full size).
    pub scale: f64,
    /// The run's §2 matching-flow count (context in starved verdicts).
    pub matching_flows: u64,
    /// The §2 matching flows this evidence covers (C1).
    pub flows: u64,
    /// The absolute study days a sliding window holds; `None` for the
    /// whole run. Day-anchored claims (C2, C6a, C6c) are judged only
    /// while their days are inside.
    pub window: Option<Range<u64>>,
    /// Hourly flows, indexed from study hour 0 (C2).
    pub series: &'a HourlySeries,
    /// District geolocations: June 16–25 for the run, or the window
    /// (C5a, C7c).
    pub geo: &'a GeoResult,
    /// Day-resolved outbreak tables, indexed by study day (C6a, C6c).
    pub outbreak: &'a OutbreakAnalysis,
    /// The address plan, which names the ground-truth ISP (C6c).
    pub plan: &'a AddressPlan,
    /// Inputs only a whole run holds.
    pub run: Option<RunEvidence<'a>>,
}

/// The inputs a sliding window cannot re-derive: the day-1 map (the
/// window eventually evicts it), the lifetime persistence bitmap,
/// per-district outbreak days and the public side data.
pub(crate) struct RunEvidence<'a> {
    /// The release-day geolocations (C5b).
    pub geo_day1: &'a GeoResult,
    /// Prefix persistence over the whole run (C4).
    pub persistence: &'a PersistenceAnalysis,
    /// The country model, which locates Gütersloh (C6b).
    pub germany: &'a Germany,
    /// The download curve through July 24 (C3).
    pub downloads: &'a AdoptionCurve,
    /// The DNS popularity study (C7a, C7b).
    pub dns: &'a DnsStudy,
}

impl Evidence<'_> {
    /// Judges every claim this evidence holds the inputs for, in table
    /// order.
    pub(crate) fn judge(&self) -> Vec<Claim> {
        let measured: Vec<_> = CLAIMS
            .iter()
            .filter_map(|def| Some((def, self.measure(def)?)))
            .collect();
        if std::env::var_os("CWA_DEBUG_SUPPORT").is_some() {
            let support: Vec<String> = measured
                .iter()
                .map(|(def, (_, support, _))| format!("{}={support}", def.id.code()))
                .collect();
            eprintln!(
                "SUPPORT scale={} matching={} {}",
                self.scale,
                self.matching_flows,
                support.join(" ")
            );
        }
        measured
            .into_iter()
            .map(|(def, (value, support, detail))| {
                def.judge(value, support, self.matching_flows, detail)
            })
            .collect()
    }

    /// Whether every study day of `days` is inside the evidence.
    fn holds(&self, days: Range<u64>) -> bool {
        self.window
            .as_ref()
            .is_none_or(|w| w.start <= days.start && days.end <= w.end)
    }

    /// A claim's measured value, the support of its input cell and a
    /// detail line — `None` when the evidence lacks the claim's inputs.
    fn measure(&self, def: &ClaimDef) -> Option<(f64, u64, String)> {
        let located: u64 = self.geo.district_flows.iter().sum();
        Some(match def.id {
            ClaimId::C1MatchingFlows => (
                self.flows as f64 / self.scale,
                self.flows,
                format!("{} records at scale {}", self.flows, self.scale),
            ),
            ClaimId::C2ReleaseJump => {
                // Day 0 is the jump's denominator.
                if !self.holds(0..1) {
                    return None;
                }
                let daily = self.series.daily_flows();
                (
                    self.series.release_jump(),
                    daily.first().copied().unwrap_or(0),
                    format!("daily flows: {daily:?}"),
                )
            }
            ClaimId::C3aDownloads36h => (
                self.run
                    .as_ref()?
                    .downloads
                    .downloads_at(MILESTONE_36H_HOUR),
                0,
                String::new(),
            ),
            ClaimId::C3bDownloadsJuly24 => (
                self.run
                    .as_ref()?
                    .downloads
                    .downloads_at(JULY_24_DAY * 24 + 23),
                0,
                String::new(),
            ),
            ClaimId::C4aPersistenceMedian => {
                let persistence = self.run.as_ref()?.persistence;
                (
                    persistence.fraction_quantile(0.5),
                    persistence.prefix_count() as u64,
                    format!(
                        "{} prefixes at /{}",
                        persistence.prefix_count(),
                        persistence.prefix_len
                    ),
                )
            }
            ClaimId::C4bPersistenceP75 => {
                let persistence = self.run.as_ref()?.persistence;
                (
                    persistence.fraction_quantile(0.75),
                    persistence.prefix_count() as u64,
                    String::new(),
                )
            }
            ClaimId::C5aCoverage10Day => (self.geo.coverage(1), located, String::new()),
            ClaimId::C5bCoverageDay1 => {
                let geo_day1 = self.run.as_ref()?.geo_day1;
                let cov1 = geo_day1.coverage(1);
                let cov10 = self.geo.coverage(1);
                (
                    cov1 / cov10.max(1e-9),
                    geo_day1.district_flows.iter().sum(),
                    format!("day-1 coverage {cov1:.3}, 10-day coverage {cov10:.3}"),
                )
            }
            ClaimId::C6aNrwVsRest => {
                // June 23: pre = Jun 20–22 (days 5..8), post = Jun 23–25
                // (days 8..11).
                if !self.holds(5..11) {
                    return None;
                }
                let (nrw, median_rest, _within) =
                    self.outbreak.nrw_vs_rest(5..8, 8..11, def.band.1);
                (
                    nrw / median_rest,
                    self.outbreak.national_sum(5..8),
                    format!("NRW growth {nrw:.3}, median other states {median_rest:.3}"),
                )
            }
            ClaimId::C6bGuetersloh => {
                let guetersloh = self.run.as_ref()?.germany.by_name("Gütersloh");
                let growth = guetersloh
                    .map(|d| self.outbreak.district_growth(d.id, 5..8, 8..11))
                    .unwrap_or(f64::NAN);
                let national = self.outbreak.national_growth(5..8, 8..11);
                let pre = guetersloh.map_or(0, |d| self.outbreak.district_sum(d.id, 5..8));
                (
                    growth / national,
                    pre,
                    format!("Gütersloh growth {growth:.3}, national {national:.3}"),
                )
            }
            ClaimId::C6cBerlinSingleIsp => {
                // Berlin June 18: pre = Jun 16–17 (days 1..3), post =
                // Jun 18–19 (days 3..5). The ground-truth ISP's growth of
                // Berlin-located traffic against the other ISPs' median.
                if !self.holds(1..5) {
                    return None;
                }
                let gt_isp = self
                    .plan
                    .isps
                    .iter()
                    .find(|i| i.ground_truth_routers)
                    .map_or(u8::MAX, |i| i.id.0);
                let (gt_growth, other_median) =
                    self.outbreak.berlin_isp_vs_rest(gt_isp, 1..3, 3..5);
                (
                    gt_growth / other_median,
                    self.outbreak.berlin_sum(1..3),
                    format!(
                        "ground-truth ISP growth {gt_growth:.3}, median other ISPs {other_median:.3}, all: {:?}",
                        self.outbreak.berlin_isp_growth(1..3, 3..5)
                    ),
                )
            }
            ClaimId::C7aUmbrellaApi => {
                let dns = self.run.as_ref()?.dns;
                (
                    dns.api_top1m_days
                        .first()
                        .map_or(f64::NAN, |&day| f64::from(day)),
                    0,
                    format!("top-1M days: {:?}", dns.api_top1m_days),
                )
            }
            ClaimId::C7bUmbrellaWebsite => (
                self.run.as_ref()?.dns.website_top1m_days.len() as f64,
                0,
                String::new(),
            ),
            ClaimId::C7cGroundTruthShare => (self.geo.ground_truth_share(), located, String::new()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(id: ClaimId) -> &'static ClaimDef {
        CLAIMS
            .iter()
            .find(|def| def.id == id)
            .expect("in the table")
    }

    fn c2() -> &'static ClaimDef {
        def(ClaimId::C2ReleaseJump)
    }

    #[test]
    fn evaluate_in_band() {
        assert!(c2().judge(6.9, 500, 42, String::new()).pass);
    }

    #[test]
    fn evaluate_out_of_band() {
        assert!(!c2().judge(2.0, 500, 42, String::new()).pass);
    }

    #[test]
    fn nan_never_passes() {
        // Side data never starves, so a NaN there is a plain failure.
        let c = def(ClaimId::C7aUmbrellaApi).judge(f64::NAN, 0, 42, String::new());
        assert!(!c.pass);
        assert_eq!(c.verdict, Verdict::Fail);
    }

    #[test]
    fn band_is_inclusive() {
        let (lo, hi) = c2().band;
        assert!(c2().judge(lo, 500, 42, String::new()).pass);
        assert!(c2().judge(hi, 500, 42, String::new()).pass);
    }

    #[test]
    fn verdict_tracks_pass_flag() {
        let ok = c2().judge(6.0, 500, 42, String::new());
        assert_eq!(ok.verdict, Verdict::Pass);
        assert!(ok.verdict.is_pass() && ok.pass);
        let bad = c2().judge(1.0, 500, 42, String::new());
        assert_eq!(bad.verdict, Verdict::Fail);
        assert!(bad.verdict.is_fail() && !bad.pass);
    }

    #[test]
    fn starvation_downgrades_low_support() {
        let c5b = def(ClaimId::C5bCoverageDay1);
        let c = c5b.judge(0.99, c5b.min_support - 1, 7, String::new());
        assert!(!c.pass, "an in-band value from starved data is not a pass");
        assert_eq!(
            c.verdict,
            Verdict::Starved {
                cell: Cell::GeoWindow,
                matching_flows: 7
            }
        );
        assert_eq!(c.verdict.label(), "starved");
    }

    #[test]
    fn starvation_catches_nan_even_with_support() {
        let c = def(ClaimId::C6aNrwVsRest).judge(f64::NAN, 10_000, 9, String::new());
        assert!(c.verdict.is_starved(), "NaN is starvation, not failure");
    }

    #[test]
    fn starvation_leaves_supported_claims_alone() {
        let support = c2().min_support;
        assert_eq!(
            c2().judge(6.0, support, 42, String::new()).verdict,
            Verdict::Pass
        );
        assert_eq!(
            c2().judge(1.0, support, 42, String::new()).verdict,
            Verdict::Fail,
            "out-of-band with good support stays a failure"
        );
    }

    #[test]
    fn table_defines_each_claim_once() {
        let ids: std::collections::HashSet<_> = CLAIMS.iter().map(|def| def.id).collect();
        let codes: std::collections::HashSet<_> = CLAIMS.iter().map(|def| def.id.code()).collect();
        assert_eq!(ids.len(), CLAIMS.len());
        assert_eq!(codes.len(), CLAIMS.len());
        for d in &CLAIMS {
            assert!(d.band.0 <= d.band.1, "{:?}", d.id);
            assert_eq!(d.cell == Cell::SideData, d.min_support == 0);
        }
    }
}
