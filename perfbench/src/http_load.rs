//! Open-loop HTTP reader for the `live-serve` workload.
//!
//! One thread, one connection at a time. Request `i` is due at
//! `t0 + i / rate`, where `t0` is the moment the start gate opens (the
//! first `/report` publish). A request is sent at its due time, or at
//! once when the previous one ran past it, and its latency is measured
//! from the due time to the last byte of the response — so a stall in the
//! server also shows in the requests queued behind it. Lateness (send
//! time minus due time) is recorded separately. Non-200 responses,
//! truncated bodies, timeouts and refused connections count as failures.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// One request's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Index into the path list.
    pub endpoint: usize,
    /// Due time to last byte (or to the failure), ms.
    pub latency_ms: f64,
    /// Send time minus due time, ms.
    pub late_ms: f64,
    /// Whether the response was a complete HTTP 200.
    pub ok: bool,
}

/// Issues one `GET` and reads the whole response; `Ok` only for a
/// complete 200 whose body length matches its `Content-Length`.
pub fn get(addr: SocketAddr, path: &str, timeout: Duration) -> Result<usize, String> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(timeout))
        .and_then(|_| stream.set_write_timeout(Some(timeout)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(format!("GET {path} HTTP/1.0\r\nHost: localhost\r\n\r\n").as_bytes())
        .map_err(|e| e.to_string())?;
    let mut buf = Vec::new();
    stream.read_to_end(&mut buf).map_err(|e| e.to_string())?;
    let split = buf
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("no header terminator")?;
    let head = String::from_utf8_lossy(&buf[..split]);
    let status = head
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .ok_or("no status line")?;
    if status != "200" {
        return Err(format!("status {status}"));
    }
    let body_len = buf.len() - split - 4;
    let declared = head.lines().find_map(|l| {
        let (name, value) = l.split_once(':')?;
        name.eq_ignore_ascii_case("content-length")
            .then(|| value.trim().parse::<usize>().ok())
            .flatten()
    });
    match declared {
        Some(n) if n != body_len => Err(format!("body {body_len} of {n} bytes")),
        _ => Ok(body_len),
    }
}

/// Runs the open loop until `stop` is set: waits for `started()` (or
/// `stop`), then reads `paths` round-robin at `rate` requests/s.
pub fn run_open_loop(
    addr: SocketAddr,
    paths: &[&str],
    rate: f64,
    timeout: Duration,
    started: impl Fn() -> bool,
    stop: &AtomicBool,
) -> Vec<Sample> {
    while !started() {
        if stop.load(Ordering::Acquire) {
            return Vec::new();
        }
        std::thread::sleep(Duration::from_micros(500));
    }
    let period = Duration::from_secs_f64(1.0 / rate);
    let t0 = Instant::now();
    let mut samples = Vec::new();
    for i in 0u32.. {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let due = t0 + period * i;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let endpoint = i as usize % paths.len();
        let ok = get(addr, paths[endpoint], timeout).is_ok();
        let done = Instant::now();
        samples.push(Sample {
            endpoint,
            latency_ms: (done - due).as_secs_f64() * 1e3,
            late_ms: (sent - due).as_secs_f64() * 1e3,
            ok,
        });
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::Arc;

    /// A one-connection-at-a-time server: `/slow` stalls 60 ms, `/bad`
    /// answers 500, `/short` lies about its length, everything else 200.
    fn server() -> (SocketAddr, Arc<AtomicBool>, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            while !flag.load(Ordering::Acquire) {
                let Ok((mut s, _)) = listener.accept() else {
                    std::thread::sleep(Duration::from_millis(1));
                    continue;
                };
                s.set_nonblocking(false).unwrap();
                let mut buf = [0u8; 512];
                let n = s.read(&mut buf).unwrap_or(0);
                let req = String::from_utf8_lossy(&buf[..n]).to_string();
                let path = req.split_whitespace().nth(1).unwrap_or("/").to_string();
                let (status, len, body) = match path.as_str() {
                    "/bad" => ("500 Internal Server Error", 2, "no"),
                    "/short" => ("200 OK", 10, "abc"),
                    "/slow" => {
                        std::thread::sleep(Duration::from_millis(60));
                        ("200 OK", 4, "slow")
                    }
                    _ => ("200 OK", 2, "ok"),
                };
                let _ = write!(
                    s,
                    "HTTP/1.0 {status}\r\nContent-Length: {len}\r\n\r\n{body}"
                );
            }
        });
        (addr, stop, handle)
    }

    fn stop_after(ms: u64) -> (Arc<AtomicBool>, std::thread::JoinHandle<()>) {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(ms));
            flag.store(true, Ordering::Release);
        });
        (stop, h)
    }

    #[test]
    fn get_classifies_responses() {
        let (addr, stop, h) = server();
        let t = Duration::from_secs(2);
        assert_eq!(get(addr, "/ok", t), Ok(2));
        assert!(get(addr, "/bad", t).unwrap_err().contains("500"));
        assert!(get(addr, "/short", t).is_err());
        stop.store(true, Ordering::Release);
        h.join().unwrap();
    }

    #[test]
    fn refused_connection_is_a_failure() {
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        assert!(get(addr, "/", Duration::from_millis(500)).is_err());
        let (stop, h) = stop_after(50);
        let samples = run_open_loop(
            addr,
            &["/"],
            200.0,
            Duration::from_millis(200),
            || true,
            &stop,
        );
        h.join().unwrap();
        assert!(!samples.is_empty());
        assert!(samples.iter().all(|s| !s.ok));
    }

    #[test]
    fn open_loop_keeps_its_schedule_round_robin() {
        let (addr, server_stop, sh) = server();
        let (stop, h) = stop_after(300);
        let samples = run_open_loop(
            addr,
            &["/a", "/bad"],
            100.0,
            Duration::from_secs(2),
            || true,
            &stop,
        );
        h.join().unwrap();
        server_stop.store(true, Ordering::Release);
        sh.join().unwrap();
        // At most ~30 requests fall due in 300 ms at 100/s.
        assert!((2..=32).contains(&samples.len()), "{}", samples.len());
        for (i, s) in samples.iter().enumerate() {
            assert_eq!(s.endpoint, i % 2);
            assert_eq!(s.ok, s.endpoint == 0, "sample {i}");
            assert!(s.latency_ms >= s.late_ms && s.late_ms >= 0.0);
        }
    }

    #[test]
    fn a_stall_delays_the_requests_behind_it() {
        let (addr, server_stop, sh) = server();
        let (stop, h) = stop_after(200);
        let samples = run_open_loop(
            addr,
            &[
                "/slow", "/a", "/a", "/a", "/a", "/a", "/a", "/a", "/a", "/a",
            ],
            100.0,
            Duration::from_secs(2),
            || true,
            &stop,
        );
        h.join().unwrap();
        server_stop.store(true, Ordering::Release);
        sh.join().unwrap();
        // The 60 ms stall on request 0 makes requests 1.. start late: the
        // open loop charges them the wait from their due time.
        assert!(samples[0].latency_ms >= 55.0, "{:?}", samples[0]);
        assert!(samples[1].late_ms >= 40.0, "{:?}", samples[1]);
        assert!(samples[1].latency_ms >= samples[1].late_ms);
    }

    #[test]
    fn nothing_is_sent_before_the_gate_opens() {
        let (stop, h) = stop_after(30);
        let addr: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let samples = run_open_loop(
            addr,
            &["/"],
            100.0,
            Duration::from_millis(100),
            || false,
            &stop,
        );
        h.join().unwrap();
        assert!(samples.is_empty());
    }
}
