//! The benchmark's named workloads and the study configuration each one
//! runs. `BENCHMARK.json` records why each was chosen.

use cwa_core::StudyConfig;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's job (1:1000 sampling, 11 days) on two vantage shards.
    PaperSharded,
    /// 1:100 sampling on the single-threaded streaming driver: export,
    /// decode and Crypto-PAn carry about half of the work.
    CoarseSerial,
    /// A 21-day live run serving the dashboard's endpoints under an
    /// open-loop reader.
    LiveServe,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const ALL: [Workload; 3] = [
    Workload::PaperSharded,
    Workload::CoarseSerial,
    Workload::LiveServe,
];

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSharded => "paper-sharded",
            Workload::CoarseSerial => "coarse-serial",
            Workload::LiveServe => "live-serve",
        }
    }

    /// Vantage shards the program runs with (1 = serial driver).
    pub fn shards(self) -> usize {
        match self {
            Workload::PaperSharded => 2,
            Workload::CoarseSerial | Workload::LiveServe => 1,
        }
    }

    /// Whether the workload runs the live windowed driver.
    pub fn is_live(self) -> bool {
        self == Workload::LiveServe
    }

    /// The study configuration for `seed`.
    pub fn config(self, seed: u64) -> StudyConfig {
        // Much of the traffic generator's cost is fixed per simulated hour,
        // so `coarse-serial` runs few days at a larger scale: that keeps
        // generation's share low and a rep short.
        let (scale, interval, days) = match self {
            Workload::PaperSharded => (0.01, 1000, 11),
            Workload::CoarseSerial => (0.04, 100, 4),
            Workload::LiveServe => (0.006, 1000, 21),
        };
        let mut cfg = StudyConfig::at_scale(scale);
        cfg.sim.seed = seed;
        cfg.sim.days = days;
        cfg.sim.vantage.sampling_interval = interval;
        cfg
    }
}

/// Open-loop request rate of the `live-serve` reader, requests/s.
pub const HTTP_RATE: f64 = 100.0;

/// The endpoints the dashboard polls, read round-robin.
pub const ENDPOINTS: [&str; 6] = [
    "/report",
    "/figures/adoption",
    "/figures/geo",
    "/figures/outbreak",
    "/progress",
    "/metrics.json",
];

/// The latency group an endpoint reports under.
pub fn endpoint_group(path: &str) -> &'static str {
    match path {
        "/report" => "report",
        "/progress" => "progress",
        "/metrics.json" => "metrics",
        _ => "figures",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn configs_follow_the_workload_shape() {
        let paper = Workload::PaperSharded.config(7);
        assert_eq!(paper.sim.seed, 7);
        assert_eq!(paper.sim.vantage.sampling_interval, 1000);
        assert_eq!(paper.sim.days, 11);
        let coarse = Workload::CoarseSerial.config(1);
        assert_eq!(coarse.sim.vantage.sampling_interval, 100);
        let live = Workload::LiveServe.config(1);
        assert_eq!(live.sim.days, 21);
        assert!(usize::from(paper.sim.vantage.routers) >= Workload::PaperSharded.shards());
    }

    #[test]
    fn every_endpoint_has_a_group() {
        let groups: Vec<_> = ENDPOINTS.iter().map(|p| endpoint_group(p)).collect();
        for g in ["report", "figures", "progress", "metrics"] {
            assert!(groups.contains(&g), "{g}");
        }
    }
}
