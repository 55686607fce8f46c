//! CPU clocks of the calling process and thread, read with
//! `clock_gettime` (nanosecond resolution, unlike the 10 ms ticks of
//! `/proc/self/stat`), and the calibration kernel that gauges the host's
//! current speed.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn read_s(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the duration of the call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// User + system CPU time of the whole process so far, over all threads, s.
pub fn process_s() -> f64 {
    read_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// User + system CPU time of the calling thread so far, s.
pub fn thread_s() -> f64 {
    read_s(CLOCK_THREAD_CPUTIME_ID)
}

/// Runs a fixed workload owned by the benchmark and returns the calling
/// thread's CPU time for it, s: sorting 8 MB of pseudo-random keys and
/// hashing a quarter of them. Its working set outgrows the per-core cache,
/// like the program's tables, so it slows with the host's shared-cache
/// contention much as the program does. A pure multiply chain and a
/// DRAM-bound random walk hardly slow at all on the same host.
pub fn calibrate() -> f64 {
    let t0 = thread_s();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut keys: Vec<u64> = (0..1 << 20)
        .map(|_| {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z ^ (z >> 31)
        })
        .collect();
    keys.sort_unstable();
    let mut map: HashMap<u64, usize, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for (i, &k) in keys.iter().enumerate().step_by(4) {
        map.insert(k, i);
    }
    let hits = keys
        .iter()
        .step_by(3)
        .filter(|k| map.contains_key(k))
        .count();
    std::hint::black_box(hits);
    thread_s() - t0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let t = std::time::Instant::now();
        let mut x = 0u64;
        while t.elapsed().as_millis() < u128::from(ms) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
    }

    #[test]
    fn clocks_count_busy_time_and_not_sleep() {
        let (p0, t0) = (process_s(), thread_s());
        spin(30);
        std::thread::sleep(std::time::Duration::from_millis(60));
        let (dp, dt) = (process_s() - p0, thread_s() - t0);
        assert!((0.02..0.06).contains(&dt), "thread clock advanced {dt}s");
        assert!(dp >= dt, "process {dp}s < thread {dt}s");
    }

    #[test]
    fn thread_clock_excludes_other_threads() {
        let before = thread_s();
        std::thread::spawn(|| spin(40)).join().unwrap();
        assert!(thread_s() - before < 0.02);
    }
}
