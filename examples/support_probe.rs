//! Prints the per-claim verdict table across a ladder of scales, plus
//! (with `CWA_DEBUG_SUPPORT=1`) the raw per-cell observation counts
//! the starvation checks read. The `min_support` thresholds in
//! `cwa-core/src/claims.rs` were tuned with this tool — re-run it after
//! changing the simulation's traffic volume to re-derive them:
//!
//! ```sh
//! CWA_DEBUG_SUPPORT=1 cargo run --release --example support_probe
//! ```

use cwa_repro::core::study::persistence_len_for_scale;
use cwa_repro::core::{Study, StudyConfig};

fn main() {
    for &(small, scale) in &[
        (true, 0.0005f64),
        (true, 0.004),
        (true, 0.005),
        (true, 0.01),
        (false, 0.005),
        (false, 0.01),
        (false, 0.02),
    ] {
        let mut cfg = if small {
            StudyConfig::test_small()
        } else {
            StudyConfig::at_scale(scale)
        };
        cfg.sim.scale = scale;
        cfg.persistence_prefix_len = persistence_len_for_scale(scale);
        eprintln!("--- small={small} scale={scale}");
        match Study::new(cfg).run() {
            Ok(r) => {
                for c in &r.claims {
                    eprintln!(
                        "  {:<4} {:<8} measured={}",
                        c.id.code(),
                        c.verdict.label(),
                        c.measured
                    );
                }
            }
            Err(e) => eprintln!("  ERR {e}"),
        }
    }
}
