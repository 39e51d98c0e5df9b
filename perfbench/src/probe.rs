//! Timing adapters around the program's public layer traits, and the
//! in-memory span store they record into.
//!
//! Every adapter is a plain pass-through while tracing is off (one relaxed
//! load per call), so untraced phases measure the shipped code paths.

use std::collections::{HashMap, VecDeque};
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use stisan_data::{EvalInstance, Processed};
use stisan_eval::{FrozenScorer, Recommender};
use stisan_obs::TraceCtx;
use stisan_serve::{EngineBackend, ServeOutcome};
use stisan_tensor::{Arena, Array};

/// Nanoseconds since the process-wide benchmark epoch.
pub fn now_ns() -> u64 {
    static T0: OnceLock<Instant> = OnceLock::new();
    T0.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One recorded span. `req` is the client request id the span served (0
/// when the span belongs to no request); `n` is a per-span count (the
/// candidates a score call ranked, the requests in a batch).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub req: u64,
    pub n: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Content key of a scored instance: links a server-side span back to the
/// client request that carried the same check-in window.
pub fn inst_key(inst: &EvalInstance) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ u64::from(inst.user);
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for (&p, &t) in inst.poi.iter().zip(&inst.time) {
        mix(u64::from(p));
        mix(t.to_bits());
    }
    h
}

/// Shared state of all adapters in one run.
#[derive(Default)]
pub struct Probe {
    on: AtomicBool,
    /// Synthetic cost added to every model score call (the bound
    /// self-test); zero in normal runs.
    inject_ns: u64,
    spans: Mutex<Vec<Span>>,
    /// Request ids waiting for their score span, by instance key (FIFO).
    pending: Mutex<HashMap<u64, VecDeque<u64>>>,
}

impl Probe {
    pub fn new(inject_us: f64) -> Arc<Probe> {
        Arc::new(Probe {
            inject_ns: (inject_us * 1e3) as u64,
            ..Probe::default()
        })
    }

    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    #[inline]
    pub fn on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    pub fn record(&self, name: &'static str, start_ns: u64, req: u64, n: u64) {
        let s = Span {
            name,
            start_ns,
            end_ns: now_ns(),
            req,
            n,
        };
        self.spans.lock().expect("span store poisoned").push(s);
    }

    /// Drains every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span store poisoned"))
    }

    /// Client side: request `req` is about to carry the instance `key`.
    pub fn expect(&self, key: u64, req: u64) {
        let mut p = self.pending.lock().expect("pending map poisoned");
        p.entry(key).or_default().push_back(req);
    }

    /// Server side: the oldest outstanding request carrying `key`.
    fn claim(&self, key: u64) -> u64 {
        let mut p = self.pending.lock().expect("pending map poisoned");
        p.get_mut(&key).and_then(VecDeque::pop_front).unwrap_or(0)
    }

    pub fn clear_pending(&self) {
        self.pending.lock().expect("pending map poisoned").clear();
    }

    /// Spins for the injected cost (a busy core, like real scoring work).
    fn burn(&self) {
        if self.inject_ns > 0 {
            let t = Instant::now();
            let d = Duration::from_nanos(self.inject_ns);
            while t.elapsed() < d {
                std::hint::spin_loop();
            }
        }
    }
}

/// `FrozenScorer` adapter over any pointer to a scorer (`Box` in the
/// gateway, `&` in direct calls): times every model score call
/// (`core.score`) and carries the bound self-test's synthetic cost.
pub struct Probed<M> {
    pub inner: M,
    probe: Arc<Probe>,
}

impl<M> Probed<M> {
    pub fn new(inner: M, probe: Arc<Probe>) -> Self {
        Probed { inner, probe }
    }

    fn timed(&self, inst: &EvalInstance, cands: usize, f: impl FnOnce()) {
        if !self.probe.on() {
            f();
            self.probe.burn();
            return;
        }
        let t = now_ns();
        f();
        self.probe.burn();
        let req = self.probe.claim(inst_key(inst));
        self.probe.record("core.score", t, req, cands as u64);
    }
}

impl<M: Deref<Target: Recommender> + Sync> Recommender for Probed<M> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn score(&self, data: &Processed, inst: &EvalInstance, c: &[u32]) -> Vec<f32> {
        self.inner.score(data, inst, c)
    }
}

impl<M: Deref<Target: FrozenScorer> + Sync> FrozenScorer for Probed<M> {
    fn score_frozen(&self, data: &Processed, inst: &EvalInstance, c: &[u32]) -> Vec<f32> {
        let mut out = Vec::new();
        self.timed(inst, c.len(), || {
            out = self.inner.score_frozen(data, inst, c)
        });
        out
    }

    fn score_frozen_into(
        &self,
        data: &Processed,
        inst: &EvalInstance,
        c: &[u32],
        arena: &mut Arena,
        out: &mut Vec<f32>,
    ) {
        self.timed(inst, c.len(), || {
            self.inner.score_frozen_into(data, inst, c, arena, out)
        });
    }

    fn export_candidate_table(&self) -> Option<&Array> {
        self.inner.export_candidate_table()
    }

    fn score_frozen_with_embeds(
        &self,
        data: &Processed,
        inst: &EvalInstance,
        c: &[u32],
        embeds: &Array,
        arena: &mut Arena,
        out: &mut Vec<f32>,
    ) {
        self.timed(inst, c.len(), || {
            self.inner
                .score_frozen_with_embeds(data, inst, c, embeds, arena, out)
        });
    }
}

/// `EngineBackend` adapter: one `backend.batch` span per dispatched batch.
pub struct TimedBackend<'a, B> {
    pub inner: &'a B,
    pub probe: &'a Probe,
}

impl<B: EngineBackend> EngineBackend for TimedBackend<'_, B> {
    fn data(&self) -> &Processed {
        self.inner.data()
    }

    fn serve_outcomes(
        &self,
        insts: &[EvalInstance],
        workers: usize,
        traces: &mut [TraceCtx],
    ) -> Vec<ServeOutcome> {
        if !self.probe.on() {
            return self.inner.serve_outcomes(insts, workers, traces);
        }
        let t = now_ns();
        let out = self.inner.serve_outcomes(insts, workers, traces);
        self.probe.record("backend.batch", t, 0, insts.len() as u64);
        out
    }
}
