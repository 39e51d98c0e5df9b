//! The repository benchmark: the trained STiSAN model behind the shipped
//! TCP gateway, driven over loopback by a seeded load generator.
//!
//! ```text
//! perfbench --workload <exact_long|twostage_short> --seed <n>
//!           --seconds <s> --trace <0|1> [--inject-score-us <us>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones; the last stdout line is the JSON result. `--inject-score-us` adds
//! a fixed busy cost to every model score call (the bound self-test,
//! `check.py`). See `perfbench/README.md` for the workloads and every
//! metric.

mod layers;
mod load;
mod probe;
mod setup;
mod split;
mod stats;

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use stisan_data::Processed;
use stisan_eval::FrozenScorer;
use stisan_gateway::{
    request_from_instance, request_to_instance, Gateway, GatewayClient, GatewayConfig,
    GatewayHandle, GatewayStats, Request,
};
use stisan_obs::CountingAlloc;
use stisan_serve::{EngineBackend, InferenceSession, PruningPolicy, QuantLevel, ServeConfig};

use load::{run_phase, schedule, Rng, Sample};
use probe::{inst_key, now_ns, Probe, Probed, TimedBackend};
use setup::SetupTimes;
use stats::{median, quantile, Metrics};

/// Counts allocations for the traced run's per-request figures; accounting
/// stays off (one relaxed load per allocation) in untraced runs.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::system();

/// Full set-ups per run; `setup_s` is their median.
const SETUPS: usize = 4;
/// Closed-loop requests sent through each fresh gateway before timing.
const WARMUP: usize = 64;
/// Runtime debris (flight dumps, checkpoints, span files); gitignored.
const OUT: &str = ".perfbench_out";
/// Share of `--seconds` given to the fixed-rate phase; the closed-loop
/// capacity phase gets the rest.
const FIXED_SHARE: f64 = 0.8;
/// Upper bound on the closed-loop rate, req/s: sizes its request list.
const MAX_RPS: f64 = 5000.0;
/// The result line's metrics, in order (`BENCHMARK.json` declares the same
/// names): untraced runs report `END_TO_END`, traced runs `PER_LAYER`.
const END_TO_END: &[&str] = &[
    "setup_s",
    "p50_ms",
    "goodput_rps",
    "cpu_us_per_req",
    "peak_rss_mb",
    "recall_at_10",
    "hit_rate_10",
];
const PER_LAYER: &[&str] = &[
    "gateway.admit_us.p50",
    "gateway.queue_us.p50",
    "gateway.queue_us.p99",
    "gateway.score_us.p50",
    "gateway.handoff_us.p50",
    "gateway.wire_us.p50",
    "gateway.batch_fill",
    "gateway.shed_frac",
    "gateway.deadline_frac",
    "gateway.internal_errors",
    "protocol.encode_ns",
    "protocol.decode_ns",
    "serve.serve_one_us.p50",
    "serve.serve_one_us.p99",
    "serve.self_us.p50",
    "serve.topk_us.p50",
    "serve.allocs_per_req",
    "serve.bytes_per_req",
    "serve.replica_batch_us.p50",
    "serve.replica_allocs_per_batch",
    "serve.replica_threads_per_batch",
    "os.threads_per_batch",
    "reload.poll_ms",
    "reload.apply_ms",
    "retrieval.candidates_us.p50",
    "retrieval.candidates_per_req",
    "retrieval.dequant_us.p50",
    "retrieval.build_ms",
    "retrieval.table_bytes",
    "core.score_us.p50",
    "core.score_ns_per_cand",
    "core.load_ms",
    "core.candidate_table_ms",
    "core.train_epoch_s",
    "data.generate_s",
    "data.preprocess_s",
    "tensor.bmm.self_us_per_req",
    "tensor.bmm.flops_per_req",
    "tensor.bmm.bytes_per_req",
    "tensor.linear.self_us_per_req",
    "tensor.linear.flops_per_req",
    "tensor.linear.bytes_per_req",
    "tensor.softmax.self_us_per_req",
    "tensor.softmax.flops_per_req",
    "tensor.softmax.bytes_per_req",
    "tensor.layer_norm.self_us_per_req",
    "tensor.layer_norm.flops_per_req",
    "tensor.layer_norm.bytes_per_req",
    "tensor.gather.self_us_per_req",
    "tensor.gather.flops_per_req",
    "tensor.gather.bytes_per_req",
    "nn.checkpoint_save_ms",
    "bench.gen_lag_ms.p99",
    "bench.trace_overhead_frac",
    "bench.split_residual_us.max",
    "bench.fail_frac",
];
/// Seed of the arrival times (see [`measure`]).
const SCHEDULE_SEED: u64 = 0x5EED_A771_7A15;
/// Answers per request (the paper's top-10).
const K: u16 = 10;
/// Two-stage retrieval settings of `twostage_short`.
const TWO_STAGE: PruningPolicy = PruningPolicy::TwoStage {
    budget: 128,
    max_ring: 6,
};

/// One workload: the traffic and the serving stack it runs against.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    /// Check-in window length `n`.
    pub max_len: usize,
    pub pruning: PruningPolicy,
    pub quant: QuantLevel,
    pub conns: usize,
    /// Offered rate of the fixed-rate phase, req/s.
    pub fixed_rps: f64,
}

const SPECS: [Spec; 2] = [
    Spec {
        name: "exact_long",
        max_len: 50,
        pruning: PruningPolicy::Full,
        quant: QuantLevel::F32,
        conns: 2,
        fixed_rps: 110.0,
    },
    Spec {
        name: "twostage_short",
        max_len: 10,
        pruning: TWO_STAGE,
        quant: QuantLevel::I8,
        conns: 2,
        fixed_rps: 300.0,
    },
];

pub struct Args {
    pub spec: Spec,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub inject_us: f64,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace, mut inject_us) =
        (None, None, None, None, 0.0);
    let mut i = 0;
    while i < argv.len() {
        let val = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))?;
        let bad = || format!("bad value {val} for {}", argv[i]);
        match argv[i].as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(val.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(val.parse::<u8>().map_err(|_| bad())? == 1),
            "--inject-score-us" => inject_us = val.parse::<f64>().map_err(|_| bad())?,
            other => return Err(format!("unknown flag {other}")),
        }
        i += 2;
    }
    let workload = workload.ok_or("--workload is required")?;
    let spec = *SPECS
        .iter()
        .find(|s| s.name == workload)
        .ok_or_else(|| format!("unknown workload {workload}"))?;
    Ok(Args {
        spec,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1.0),
        trace: trace.ok_or("--trace is required")?,
        inject_us,
    })
}

/// Reference answers, computed outside every timed span.
pub struct Refs {
    /// Wire requests, one per eval instance.
    pub reqs: Vec<Request>,
    /// The instances the gateway decodes from `reqs`.
    pub insts: Vec<stisan_data::EvalInstance>,
    pub keys: Vec<u64>,
    /// `EvalInstance::target` per request.
    pub targets: Vec<u32>,
    /// The direct answer under the workload's config, per request.
    pub answers: Vec<Vec<(u32, f32)>>,
    /// Exact full-catalogue f32 top-10 ids, per request.
    pub exact: Vec<Vec<u32>>,
}

impl Refs {
    fn new<M: FrozenScorer + Sync>(data: &Processed, model: &M, cfg: ServeConfig) -> Refs {
        let reqs: Vec<Request> = data
            .eval
            .iter()
            .map(|i| request_from_instance(data, i, K, 0))
            .collect();
        let insts: Vec<_> = reqs
            .iter()
            .map(|r| request_to_instance(data, r).expect("eval instances are valid requests"))
            .collect();
        let session = InferenceSession::new(model, data, cfg);
        let exact = InferenceSession::new(model, data, ServeConfig::default());
        Refs {
            keys: insts.iter().map(inst_key).collect(),
            targets: data.eval.iter().map(|i| i.target).collect(),
            answers: insts.iter().map(|i| session.serve_one(i).items).collect(),
            exact: insts
                .iter()
                .map(|i| exact.serve_one(i).items.iter().map(|x| x.0).collect())
                .collect(),
            reqs,
            insts,
        }
    }

    /// Whether a served answer bit-matches the direct one (ids and scores).
    fn matches(&self, s: &Sample) -> bool {
        let a = &self.answers[s.idx];
        a.len() == s.items.len()
            && a.iter()
                .zip(&s.items)
                .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
    }
}

/// Answer-check tallies over a set of samples.
#[derive(Default, Clone, Copy, Debug)]
pub struct Tally {
    pub sent: u64,
    pub ok: u64,
    pub failed: u64,
    pub mismatched: u64,
    pub recall_sum: f64,
    pub hits: u64,
}

impl Tally {
    fn add(&mut self, refs: &Refs, samples: &[Sample]) {
        for s in samples {
            self.sent += 1;
            if !s.ok || !refs.matches(s) {
                self.mismatched += u64::from(s.ok);
                self.failed += 1;
                continue;
            }
            self.ok += 1;
            let exact = &refs.exact[s.idx];
            let got = s.items.iter().filter(|x| exact.contains(&x.0)).count();
            self.recall_sum += got as f64 / exact.len().max(1) as f64;
            self.hits += u64::from(s.items.iter().any(|x| x.0 == refs.targets[s.idx]));
        }
    }

    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.sent.max(1) as f64
    }
}

/// Process CPU (user + system) in µs, from `/proc/self/stat` (clock ticks
/// of 10 ms, the Linux `CLK_TCK` of 100).
fn cpu_us() -> f64 {
    let s = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let rest = s.rsplit_once(')').map(|x| x.1).unwrap_or("");
    let f: Vec<u64> = rest
        .split_whitespace()
        .map(|x| x.parse().unwrap_or(0))
        .collect();
    (f.get(11).copied().unwrap_or(0) + f.get(12).copied().unwrap_or(0)) as f64 * 1e4
}

/// A `/proc/self/status` field in kB.
fn status_kb(field: &str) -> f64 {
    let s = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    s.lines()
        .find(|l| l.starts_with(field))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(f64::NAN)
}

/// Processes created since boot, system-wide (`/proc/stat`).
pub fn processes_created() -> f64 {
    let s = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    s.lines()
        .find_map(|l| l.strip_prefix("processes "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(f64::NAN)
}

/// Client latencies (from the due time) of the answered samples, ms.
fn latencies(samples: &[Sample]) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.ok)
        .map(Sample::latency_ms)
        .collect()
}

/// What the untraced phases of every set-up collected.
#[derive(Default)]
struct Pool {
    /// Answers of the fixed-rate phases.
    fixed: Vec<Sample>,
    /// Process CPU during the fixed-rate phases, µs.
    fixed_cpu_us: f64,
    /// Closed-loop answers that passed the check, and the phases' length, s.
    closed_ok: u64,
    closed_s: f64,
    tally: Tally,
    /// Requests drawn so far from the seed's request order.
    drawn: usize,
}

impl Pool {
    fn metrics(&self, refs: &Refs) -> Metrics {
        let mut m = Metrics::default();
        let lat = latencies(&self.fixed);
        if lat.len() < 200 {
            eprintln!(
                "warning: only {} samples, fewer than ten beyond the p95",
                lat.len()
            );
        }
        // Quality over the first answer to each distinct request, so the
        // figures do not depend on which requests the phases repeated.
        let mut seen = vec![false; refs.reqs.len()];
        let distinct: Vec<Sample> = self
            .fixed
            .iter()
            .filter(|s| !std::mem::replace(&mut seen[s.idx], true))
            .cloned()
            .collect();
        let mut q = Tally::default();
        q.add(refs, &distinct);
        m.put("p50_ms", median(&lat), "ms");
        // Printed, not reported: on this shared host the tail does not
        // repeat within the largest bound a metric may have (README).
        m.put("tail.p95_ms", quantile(&lat, 0.95), "ms");
        m.put(
            "goodput_rps",
            self.closed_ok as f64 / self.closed_s.max(1e-9),
            "1/s",
        );
        m.put(
            "cpu_us_per_req",
            self.fixed_cpu_us / lat.len().max(1) as f64,
            "us",
        );
        m.put("recall_at_10", q.recall_sum / q.ok.max(1) as f64, "ratio");
        m.put("hit_rate_10", q.hits as f64 / q.ok.max(1) as f64, "ratio");
        m.put(
            "bench.gen_lag_ms.p99",
            quantile(
                &self.fixed.iter().map(Sample::lag_ms).collect::<Vec<_>>(),
                0.99,
            ),
            "ms",
        );
        m
    }
}

/// Shared context of one set-up.
pub struct Ctx<'a> {
    pub args: &'a Args,
    pub probe: &'a Arc<Probe>,
    pub data: &'a Processed,
    pub cfg: ServeConfig,
}

fn gateway_config() -> GatewayConfig {
    GatewayConfig {
        flight_dir: Some(PathBuf::from(OUT).join("flight")),
        ..GatewayConfig::default()
    }
}

fn connect(addr: std::net::SocketAddr, n: usize) -> Vec<GatewayClient> {
    (0..n)
        .map(|_| {
            let mut c = GatewayClient::connect(addr).expect("connect to the gateway");
            c.set_timeout(Some(Duration::from_secs(10)))
                .expect("client timeout");
            c
        })
        .collect()
}

/// Serves `backend` on a fresh gateway, warms it up and stamps the set-up
/// time, then runs `timed` against it.
fn drive<B: EngineBackend, T>(
    ctx: &Ctx,
    gw: Gateway,
    backend: &B,
    started: Instant,
    setup_s: &mut Vec<f64>,
    timed: impl FnOnce(&mut [GatewayClient], &GatewayHandle) -> T,
) -> T {
    let handle = gw.handle();
    let addr = gw.local_addr();
    std::thread::scope(|s| {
        let server = s.spawn(move || gw.serve(backend));
        let mut clients = connect(addr, ctx.args.spec.conns);
        for (j, inst) in ctx.data.eval.iter().cycle().take(WARMUP).enumerate() {
            let c = &mut clients[j % ctx.args.spec.conns];
            c.recommend(&request_from_instance(ctx.data, inst, K, 0))
                .expect("warm-up request");
        }
        setup_s.push(started.elapsed().as_secs_f64());
        let out = timed(&mut clients, &handle);
        drop(clients);
        handle.shutdown();
        server
            .join()
            .expect("gateway thread")
            .expect("gateway serve");
        out
    })
}

/// The untraced phases of set-up `world`: its share of the fixed-rate
/// phase, then of the closed-loop capacity phase.
///
/// `--seed` draws which request goes out at each arrival. The arrival
/// times are one fixed Poisson realization per set-up: with two
/// connections the latency quantiles follow the burst pattern of the
/// arrivals so closely that a fresh pattern per seed moved p50 by ~9% and
/// p95 by ~15% between runs, against ~2-3% for repeats of one pattern.
fn measure(ctx: &Ctx, clients: &mut [GatewayClient], refs: &Refs, world: usize, pool: &mut Pool) {
    let spec = &ctx.args.spec;
    let share = ctx.args.seconds / SETUPS as f64;
    let perm = Rng::new(ctx.args.seed).permutation(refs.reqs.len());
    let mut order = perm.iter().copied().cycle().skip(pool.drawn);
    let mut rng = Rng::new(SCHEDULE_SEED + world as u64);
    let sched = schedule(&mut rng, spec.fixed_rps, FIXED_SHARE * share, &mut order);
    let id_base = pool.tally.sent + 1;
    let cpu0 = cpu_us();
    let fixed = run_phase(clients, &refs.reqs, &refs.keys, &sched, id_base, None, None);
    pool.fixed_cpu_us += cpu_us() - cpu0;
    pool.tally.add(refs, &fixed);
    pool.fixed.extend(fixed);
    // Capacity: every connection sends its next request as soon as its
    // answer arrives, the rate above which the open loop's backlog grows.
    // Goodput counts the answers that pass the check.
    let cap_s = (1.0 - FIXED_SHARE) * share;
    let n = (MAX_RPS * cap_s) as usize;
    let closed: Vec<(u64, usize)> = order.take(n).map(|i| (0, i)).collect();
    let id_base = pool.tally.sent + 1;
    let cap = run_phase(
        clients,
        &refs.reqs,
        &refs.keys,
        &closed,
        id_base,
        None,
        Some(cap_s),
    );
    let before = pool.tally.ok;
    pool.tally.add(refs, &cap);
    pool.closed_ok += pool.tally.ok - before;
    let first = cap.iter().map(|s| s.send_ns).min().unwrap_or(0);
    let last = cap.iter().map(|s| s.recv_ns).max().unwrap_or(first);
    pool.closed_s += (last - first) as f64 / 1e9;
    // The next set-up's fixed-rate phase continues where this one's
    // stopped, so together they cover every request at least once.
    pool.drawn += sched.len();
}

/// The traced run's phases: untraced and traced replays of one fixed-rate
/// schedule, interleaved twice.
fn measure_traced(
    ctx: &Ctx,
    clients: &mut [GatewayClient],
    refs: &Refs,
    handle: &GatewayHandle,
) -> (Metrics, Tally) {
    let spec = &ctx.args.spec;
    let perm = Rng::new(ctx.args.seed).permutation(refs.reqs.len());
    let mut order = perm.iter().copied().cycle();
    let mut rng = Rng::new(SCHEDULE_SEED);
    let sched = schedule(
        &mut rng,
        spec.fixed_rps,
        0.25 * ctx.args.seconds,
        &mut order,
    );
    let mut metrics = Metrics::default();
    let mut tally = Tally::default();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut gw0, mut gw1) = (GatewayStats::default(), GatewayStats::default());
    let mut procs = 0.0;
    let mut id_base = 1;
    let mut phase = |probe: Option<&Probe>| {
        let out = run_phase(
            clients, &refs.reqs, &refs.keys, &sched, id_base, probe, None,
        );
        id_base += sched.len() as u64;
        out
    };
    for _ in 0..2 {
        plain.extend(phase(None));
        ctx.probe.clear_pending();
        stisan_obs::alloc::enable();
        stisan_obs::flame::enable();
        ctx.probe.set_on(true);
        let (s0, p0) = (handle.stats(), processes_created());
        traced.extend(phase(Some(&**ctx.probe)));
        let (s1, p1) = (handle.stats(), processes_created());
        ctx.probe.set_on(false);
        stisan_obs::flame::disable();
        stisan_obs::alloc::disable();
        gw0 = add_stats(gw0, s0);
        gw1 = add_stats(gw1, s1);
        procs += p1 - p0;
    }
    tally.add(refs, &plain);
    tally.add(refs, &traced);
    let batches = (gw1.batches - gw0.batches).max(1) as f64;
    let spans = ctx.probe.take();
    split::gateway_metrics(&mut metrics, &traced, &spans);
    metrics.put(
        "gateway.batch_fill",
        (gw1.served - gw0.served) as f64 / batches,
        "count",
    );
    let offered = (gw1.admitted + gw1.shed - gw0.admitted - gw0.shed).max(1) as f64;
    metrics.put(
        "gateway.shed_frac",
        (gw1.shed - gw0.shed) as f64 / offered,
        "ratio",
    );
    metrics.put(
        "gateway.deadline_frac",
        (gw1.deadline_exceeded - gw0.deadline_exceeded) as f64 / offered,
        "ratio",
    );
    metrics.put(
        "gateway.internal_errors",
        (gw1.internal_errors - gw0.internal_errors) as f64,
        "count",
    );
    metrics.put("os.threads_per_batch", procs / batches, "count");
    metrics.put(
        "bench.gen_lag_ms.p99",
        quantile(&plain.iter().map(Sample::lag_ms).collect::<Vec<_>>(), 0.99),
        "ms",
    );
    metrics.put(
        "bench.trace_overhead_frac",
        median(&latencies(&traced)) / median(&latencies(&plain)) - 1.0,
        "ratio",
    );
    split::write_spans(
        &format!("{OUT}/spans-{}-{}.jsonl", spec.name, ctx.args.seed),
        &traced,
        &spans,
    );
    (metrics, tally)
}

/// Field-wise sum (accumulates before/after snapshots of two phases).
fn add_stats(a: GatewayStats, b: GatewayStats) -> GatewayStats {
    GatewayStats {
        admitted: a.admitted + b.admitted,
        served: a.served + b.served,
        shed: a.shed + b.shed,
        deadline_exceeded: a.deadline_exceeded + b.deadline_exceeded,
        batches: a.batches + b.batches,
        internal_errors: a.internal_errors + b.internal_errors,
        ..a
    }
}

/// Set-up `world` of the run. Untraced runs measure on every set-up, so
/// the timed phases are spread over the whole run; traced runs measure on
/// the last one, and return its metrics.
///
/// The reference answers are computed once, on the first set-up: the
/// catalogue and the weights are the same on every set-up (fixed seeds),
/// so the later set-ups' answers are checked against them too.
fn run_world(
    args: &Args,
    probe: &Arc<Probe>,
    world: usize,
    refs: &mut Option<Refs>,
    pool: &mut Pool,
    setup_s: &mut Vec<f64>,
    times: &mut Vec<SetupTimes>,
) -> Option<(Metrics, Tally)> {
    let spec = args.spec;
    let started = Instant::now();
    let f = setup::flags(spec.max_len);
    let mut st = SetupTimes::default();
    let data = setup::dataset(&f, &mut st);
    let (trained, per_epoch) = setup::train(&data, &f, setup::WORLD_SEED);
    st.train_epoch_s = per_epoch;
    times.push(st);
    let cfg = ServeConfig {
        pruning: spec.pruning,
        quant: spec.quant,
        ..ServeConfig::default()
    };
    let ctx = Ctx {
        args,
        probe,
        data: &data,
        cfg,
    };
    let gw = Gateway::bind("127.0.0.1:0", gateway_config()).expect("bind loopback");
    let model = Probed::new(Box::new(trained), Arc::clone(probe));
    let session = InferenceSession::new(&model, &data, cfg);
    let backend = TimedBackend {
        inner: &session,
        probe,
    };
    let last = world + 1 == SETUPS;
    let traced = drive(&ctx, gw, &backend, started, setup_s, |clients, handle| {
        let refs = refs.get_or_insert_with(|| Refs::new(&data, &*model.inner, cfg));
        if !args.trace {
            measure(&ctx, clients, refs, world, pool);
            None
        } else if last {
            Some(measure_traced(&ctx, clients, refs, handle))
        } else {
            None
        }
    })?;
    let mut layer = Metrics::default();
    layers::measure(&ctx, refs.as_ref()?, &model.inner, &mut layer);
    layer.0.extend(traced.0 .0);
    Some((layer, traced.1))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <exact_long|twostage_short> --seed <n> \
                 --seconds <s> --trace <0|1> [--inject-score-us <us>]"
            );
            std::process::exit(2);
        }
    };
    now_ns();
    stisan_obs::init();
    std::fs::create_dir_all(OUT).expect("create the output directory");
    let probe = Probe::new(args.inject_us);
    let (mut setup_s, mut times) = (Vec::new(), Vec::new());
    let (mut refs, mut pool, mut traced) = (None, Pool::default(), None);
    for world in 0..SETUPS {
        traced = run_world(
            &args,
            &probe,
            world,
            &mut refs,
            &mut pool,
            &mut setup_s,
            &mut times,
        );
    }
    let refs = refs.expect("the first set-up computes the reference answers");
    let _ = std::fs::remove_dir_all(PathBuf::from(OUT).join("flight"));
    let mut m = Metrics::default();
    let t = if args.trace {
        let (layer, t) = traced.expect("the last set-up measures");
        m.0.extend(layer.0);
        let pick = |f: fn(&SetupTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
        m.put("core.train_epoch_s", pick(|t| t.train_epoch_s), "s");
        m.put("data.generate_s", pick(|t| t.generate_s), "s");
        m.put("data.preprocess_s", pick(|t| t.preprocess_s), "s");
        m.put("bench.fail_frac", t.fail_frac(), "ratio");
        t
    } else {
        m.put("setup_s", median(&setup_s), "s");
        m.0.extend(pool.metrics(&refs).0);
        m.put("peak_rss_mb", status_kb("VmHWM:") / 1024.0, "MiB");
        m.put("fail_frac", pool.tally.fail_frac(), "ratio");
        pool.tally
    };
    eprintln!("  set-ups: {setup_s:.3?} s");
    m.print_table(&format!(
        "{} seed {} trace {}",
        args.spec.name, args.seed, args.trace as u8
    ));
    eprintln!(
        "  sent {} failed {} mismatched {}",
        t.sent, t.failed, t.mismatched
    );
    let m = m.select(if args.trace { PER_LAYER } else { END_TO_END });
    let correct = t.mismatched == 0;
    println!("{}", m.result_line(correct, t.sent, t.failed));
    if !correct {
        eprintln!(
            "perfbench: answer check failed ({} mismatched)",
            t.mismatched
        );
        std::process::exit(1);
    }
}
