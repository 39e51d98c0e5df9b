//! Seeded open-loop load over loopback TCP.
//!
//! Arrivals of one phase are a Poisson process conditioned on its count:
//! `round(rate * secs)` due times drawn uniformly over the phase and
//! sorted. Each connection thread takes the next due request, sleeps until
//! it is due, sends it and blocks for the answer; a request that comes due
//! while both connections are busy is sent late, and its latency still
//! runs from the due time, so a stall is charged to every request queued
//! behind it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use stisan_gateway::{GatewayClient, Request};

use crate::probe::{now_ns, Probe};

/// splitmix64: the benchmark's only random source.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniformly shuffled `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, (self.next_u64() % (i as u64 + 1)) as usize);
        }
        p
    }
}

/// One phase's arrivals: `(due offset ns, request index)`, due-ordered.
pub fn schedule(
    rng: &mut Rng,
    rate: f64,
    secs: f64,
    order: &mut impl Iterator<Item = usize>,
) -> Vec<(u64, usize)> {
    let n = (rate * secs).round().max(1.0) as usize;
    let mut due: Vec<u64> = (0..n).map(|_| (rng.unit() * secs * 1e9) as u64).collect();
    due.sort_unstable();
    due.into_iter()
        .map(|d| (d, order.next().expect("request order is endless")))
        .collect()
}

/// One sent request, timed on the benchmark clock.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Request index (into the workload's request table).
    pub idx: usize,
    /// Request id in this run; trace id of traced requests.
    pub id: u64,
    pub due_ns: u64,
    pub send_ns: u64,
    pub recv_ns: u64,
    /// Answered with a recommendation list (not a typed error, shed,
    /// timeout or transport failure).
    pub ok: bool,
    /// `[enqueued, batch_sealed, scored, handoff]` µs since admission, on
    /// traced requests.
    pub echo: Option<[u32; 4]>,
    pub items: Vec<(u32, f32)>,
    pub scored: u32,
}

impl Sample {
    /// Client latency from the due time, ms.
    pub fn latency_ms(&self) -> f64 {
        self.recv_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }
    /// How late the generator sent the request, ms.
    pub fn lag_ms(&self) -> f64 {
        self.send_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }
}

/// Runs one phase: every scheduled request is sent over `clients` (one
/// thread each) and its outcome recorded. With `trace`, requests carry
/// protocol-v2 trace ids (`id_base + j`) and are registered with the probe
/// so server-side spans can be linked back to them. With `until`, no
/// request is sent later than that many seconds into the phase (a closed
/// loop is a schedule whose requests are all due at once).
pub fn run_phase(
    clients: &mut [GatewayClient],
    reqs: &[Request],
    keys: &[u64],
    sched: &[(u64, usize)],
    id_base: u64,
    trace: Option<&Probe>,
    until: Option<f64>,
) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::with_capacity(sched.len()));
    // A short lead so every thread is parked before the first arrival.
    let start = now_ns() + 2_000_000;
    let stop = until.map_or(u64::MAX, |s| start + (s * 1e9) as u64);
    std::thread::scope(|s| {
        for client in clients.iter_mut() {
            let (next, out) = (&next, &out);
            s.spawn(move || {
                let mut local = Vec::new();
                loop {
                    let j = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(off, idx)) = sched.get(j) else {
                        break;
                    };
                    let due_ns = start + off;
                    let now = now_ns();
                    if now >= stop {
                        break;
                    }
                    if due_ns > now {
                        std::thread::sleep(Duration::from_nanos(due_ns - now));
                    }
                    let id = id_base + j as u64;
                    let mut req = reqs[idx].clone();
                    if let Some(p) = trace {
                        req.trace_id = Some(id);
                        p.expect(keys[idx], id);
                    }
                    let send_ns = now_ns();
                    let res = client.recommend(&req);
                    let recv_ns = now_ns();
                    let mut s = Sample {
                        idx,
                        id,
                        due_ns,
                        send_ns,
                        recv_ns,
                        ok: true,
                        echo: None,
                        items: Vec::new(),
                        scored: 0,
                    };
                    match res {
                        Ok(r) => {
                            s.echo = r.trace.map(|t| t.stage_us);
                            s.items = r.items;
                            s.scored = r.scored;
                        }
                        Err(_) => s.ok = false,
                    }
                    local.push(s);
                }
                out.lock().expect("sample sink poisoned").extend(local);
            });
        }
    });
    let mut v = out.into_inner().expect("sample sink poisoned");
    v.sort_by_key(|s| s.due_ns);
    v
}
