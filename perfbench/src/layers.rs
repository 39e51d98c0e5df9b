//! Direct calls into each layer's public functions, on the workload's own
//! requests, with nothing else running. Layers the workload's gateway path
//! does not use (retrieval on `exact_long`, replicas and reload on both)
//! are measured here the same way, so every workload reports every
//! per-layer metric.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use stisan_core::StiSan;
use stisan_eval::FrozenScorer;
use stisan_gateway::protocol::{decode, encode};
use stisan_gateway::Frame;
use stisan_nn::CheckpointManager;
use stisan_serve::{
    top_k_into, CanaryConfig, EngineBackend, InferenceSession, PruningPolicy, QuantLevel,
    Recommendation, ReloadWatcher, ReplicatedEngine, RetrievalState, ServeConfig, SharedModel,
    SupervisorConfig, TopKScratch,
};

use crate::load::Rng;
use crate::probe::{now_ns, Probed};
use crate::stats::{median, quantile, Metrics};
use crate::{processes_created, setup, Ctx, Refs, OUT};

/// Requests per direct-call loop.
const DIRECT: usize = 300;
/// Repetitions per timed protocol call (one call is below timer resolution).
const CODEC_REPS: u32 = 16;
/// Kernel kinds reported per request.
const KINDS: [&str; 5] = ["bmm", "linear", "softmax", "layer_norm", "gather"];

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

pub fn measure(ctx: &Ctx, refs: &Refs, model: &StiSan, m: &mut Metrics) {
    let spec = &ctx.args.spec;
    let data = ctx.data;
    let order = Rng::new(ctx.args.seed ^ 0x1A7E_5EED).permutation(refs.insts.len());
    let order = &order[..order.len().min(DIRECT)];

    // Protocol: encode and decode this workload's request and response
    // frames (one of each per request).
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    for &i in order {
        let resp = stisan_gateway::Response {
            pool: data.num_pois as u32,
            scored: data.num_pois as u32,
            items: refs.answers[i].clone(),
            trace: None,
        };
        let frames = [Frame::Request(refs.reqs[i].clone()), Frame::Response(resp)];
        let t = Instant::now();
        for _ in 0..CODEC_REPS {
            for f in &frames {
                black_box(encode(black_box(f)));
            }
        }
        enc.push(t.elapsed().as_nanos() as f64 / f64::from(CODEC_REPS));
        let bytes: Vec<Vec<u8>> = frames.iter().map(encode).collect();
        let t = Instant::now();
        for _ in 0..CODEC_REPS {
            for b in &bytes {
                black_box(decode(black_box(b)).expect("own frames decode"));
            }
        }
        dec.push(t.elapsed().as_nanos() as f64 / f64::from(CODEC_REPS));
    }
    m.put("protocol.encode_ns", median(&enc), "ns");
    m.put("protocol.decode_ns", median(&dec), "ns");

    // Serve: `serve_one_into` on a session with the workload's config, the
    // model behind the timing adapter, kernel profile and allocation
    // counter on; then its candidates, top-K and dequant parts one by one.
    let probed = Probed::new(model, Arc::clone(ctx.probe));
    let session = InferenceSession::new(&probed, data, ctx.cfg);
    let mut scratch = session.checkout_scratch();
    let mut rec = Recommendation::default();
    for &i in order.iter().take(16) {
        session.serve_one_into(&refs.insts[i], &mut scratch, &mut rec);
    }
    let prof = stisan_obs::serve_profiler().expect("obs is initialised");
    prof.reset();
    ctx.probe.take();
    stisan_obs::alloc::enable();
    stisan_obs::flame::enable();
    ctx.probe.set_on(true);
    let (mut one, mut allocs, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    for &i in order {
        let a0 = stisan_obs::alloc::thread_stats();
        let t = Instant::now();
        session.serve_one_into(&refs.insts[i], &mut scratch, &mut rec);
        one.push(us_since(t));
        let a1 = stisan_obs::alloc::thread_stats();
        allocs.push((a1.allocs - a0.allocs) as f64);
        bytes.push((a1.bytes - a0.bytes) as f64);
    }
    ctx.probe.set_on(false);
    stisan_obs::flame::disable();
    let kernels = prof.kernels.snapshot();
    let score: Vec<f64> = ctx
        .probe
        .take()
        .iter()
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect();

    let two_stage = match spec.pruning {
        PruningPolicy::TwoStage { .. } => None,
        _ => Some(InferenceSession::new(
            model,
            data,
            ServeConfig {
                pruning: crate::TWO_STAGE,
                ..ctx.cfg
            },
        )),
    };
    let state = match &two_stage {
        Some(s) => s.retrieval(),
        None => session.retrieval(),
    }
    .expect("two-stage sessions build retrieval state")
    .clone();
    let (mut cand, mut topk, mut deq, mut rcand) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut ids, mut ranked, mut tk, mut rows, mut buf) = (
        Vec::new(),
        Vec::new(),
        TopKScratch::default(),
        Vec::new(),
        Vec::new(),
    );
    for &i in order {
        let inst = &refs.insts[i];
        let t = Instant::now();
        session.candidates_into(inst, &mut ids);
        cand.push(us_since(t));
        let scores = model.score_frozen(data, inst, &ids);
        let t = Instant::now();
        top_k_into(&scores, ctx.cfg.top_k, &mut tk, &mut ranked);
        topk.push(us_since(t));
        if let Some(s) = &two_stage {
            let t = Instant::now();
            s.candidates_into(inst, &mut ids);
            rcand.push(us_since(t));
        }
        rows.clear();
        rows.extend(ids.iter().map(|&c| c as usize));
        buf.resize(rows.len() * state.table.dim(), 0.0);
        let t = Instant::now();
        state.table.dequant_rows_into(&rows, &mut buf);
        deq.push(us_since(t));
    }
    let quantized = two_stage.is_none() && spec.quant != QuantLevel::F32;
    let self_us: Vec<f64> = (0..one.len())
        .map(|k| {
            one[k]
                - cand[k]
                - score.get(k).copied().unwrap_or(0.0)
                - topk[k]
                - if quantized { deq[k] } else { 0.0 }
        })
        .collect();
    m.put("serve.serve_one_us.p50", median(&one), "us");
    m.put("serve.serve_one_us.p99", quantile(&one, 0.99), "us");
    m.put("serve.self_us.p50", median(&self_us), "us");
    m.put("serve.topk_us.p50", median(&topk), "us");
    m.put("serve.allocs_per_req", crate::stats::mean(&allocs), "count");
    m.put("serve.bytes_per_req", crate::stats::mean(&bytes), "bytes");
    m.put(
        "retrieval.candidates_us.p50",
        median(if rcand.is_empty() { &cand } else { &rcand }),
        "us",
    );
    m.put("retrieval.dequant_us.p50", median(&deq), "us");
    let table = model
        .export_candidate_table()
        .expect("STiSAN exports a candidate table");
    let build: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(RetrievalState::build(data, table, spec.quant));
            us_since(t) / 1e3
        })
        .collect();
    m.put("retrieval.build_ms", median(&build), "ms");
    m.put("retrieval.table_bytes", state.table_bytes() as f64, "bytes");

    // Tensor kernels: self time and FLOPs from the kernel profile, bytes
    // moved computed from the serving forward's tensor shapes.
    let n = order.len() as f64;
    let computed = kernel_bytes(
        model,
        data,
        refs,
        order,
        &ids_for(&session, refs, order),
        quantized,
    );
    for (k, kind) in KINDS.iter().enumerate() {
        let row = kernels.iter().find(|r| r.kind == *kind);
        let (ns, flops) = row.map_or((0, 0), |r| (r.stats.forward_ns, r.stats.flops));
        m.put(
            format!("tensor.{kind}.self_us_per_req"),
            ns as f64 / 1e3 / n,
            "us",
        );
        m.put(
            format!("tensor.{kind}.flops_per_req"),
            flops as f64 / n,
            "flops",
        );
        m.put(
            format!("tensor.{kind}.bytes_per_req"),
            computed[k].1 / n,
            "bytes",
        );
        if computed[k].0 != flops as f64 && *kind != "gather" {
            eprintln!(
                "warning: shape model gives {} {kind} flops, the kernel profile {flops}",
                computed[k].0
            );
        }
    }

    // Checkpoints: save, load, and the first score after a load (which
    // builds the candidate table).
    let dir = std::path::PathBuf::from(OUT).join(format!("layers-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mgr = CheckpointManager::new(&dir, 8).expect("checkpoint dir");
    let f = setup::flags(spec.max_len);
    let (mut save, mut load, mut first) = (Vec::new(), Vec::new(), Vec::new());
    let inst = &refs.insts[order[0]];
    let mut path = None;
    for e in 1..=5u64 {
        let t = Instant::now();
        path = Some(
            mgr.save(model.param_store(), None, e)
                .expect("checkpoint save"),
        );
        save.push(us_since(t) / 1e3);
        let mut fresh = StiSan::new(data, setup::model_config(&f, setup::WORLD_SEED));
        let t = Instant::now();
        fresh
            .load(path.as_ref().expect("saved"))
            .expect("checkpoint loads");
        load.push(us_since(t) / 1e3);
        let t = Instant::now();
        black_box(fresh.score_frozen(data, inst, &[1]));
        first.push(us_since(t) / 1e3);
    }
    m.put("core.load_ms", median(&load), "ms");
    m.put("core.candidate_table_ms", median(&first), "ms");

    // Replicas: `ReplicatedEngine::serve_outcomes` on batches of the
    // gateway's size (one request per connection).
    let loaded = || {
        let mut s = StiSan::new(data, setup::model_config(&f, setup::WORLD_SEED));
        s.load(path.as_ref().expect("saved"))
            .expect("checkpoint loads");
        s
    };
    let shared = SharedModel::new(loaded(), 1);
    let engine = ReplicatedEngine::new(
        shared.clone(),
        data,
        ctx.cfg,
        SupervisorConfig {
            replicas: 2,
            ..Default::default()
        },
    );
    let batch = spec.conns.max(1);
    let (mut rb, mut ra, mut threads) = (Vec::new(), Vec::new(), 0.0);
    let insts: Vec<_> = order.iter().map(|&i| refs.insts[i].clone()).collect();
    let p0 = processes_created();
    for chunk in insts.chunks(batch).take(DIRECT / batch) {
        let mut traces: Vec<_> = chunk.iter().map(|_| stisan_obs::TraceCtx::new(0)).collect();
        let a0 = stisan_obs::alloc::global_stats();
        let t = Instant::now();
        black_box(engine.serve_outcomes(chunk, 0, &mut traces));
        rb.push(us_since(t));
        ra.push((stisan_obs::alloc::global_stats().allocs - a0.allocs) as f64);
        threads += 1.0;
    }
    stisan_obs::alloc::disable();
    let spawned = (processes_created() - p0) / threads;
    m.put("serve.replica_batch_us.p50", median(&rb), "us");
    m.put("serve.replica_allocs_per_batch", median(&ra), "count");
    m.put("serve.replica_threads_per_batch", spawned, "count");

    // Reload: publish one checkpoint through a watcher and time the poll
    // that applies it.
    let watcher = ReloadWatcher::new(
        CheckpointManager::new(&dir, 8).expect("watcher manager"),
        shared.clone(),
        data,
        |p: &std::path::Path| {
            let mut s = StiSan::new(data, setup::model_config(&f, setup::WORLD_SEED));
            s.load(p).map(|_| s)
        },
        CanaryConfig::default(),
    )
    .with_retrieval(spec.quant);
    let (mut poll, mut apply) = (Vec::new(), Vec::new());
    for e in 6..=8u64 {
        mgr.save(model.param_store(), None, e)
            .expect("checkpoint save");
        let saved = now_ns();
        let t = Instant::now();
        let r = stisan_serve::Reloader::poll_now(&watcher);
        poll.push(us_since(t) / 1e3);
        if r.published == Some(e) && shared.epoch() == e {
            apply.push((now_ns() - saved) as f64 / 1e6);
        }
    }
    m.put("reload.poll_ms", median(&poll), "ms");
    m.put("reload.apply_ms", median(&apply), "ms");
    m.put("nn.checkpoint_save_ms", median(&save), "ms");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The candidate ids the workload's session scores per request.
fn ids_for<M: FrozenScorer + Sync>(
    s: &InferenceSession<'_, M>,
    refs: &Refs,
    order: &[usize],
) -> Vec<usize> {
    let mut ids = Vec::new();
    order
        .iter()
        .map(|&i| {
            s.candidates_into(&refs.insts[i], &mut ids);
            ids.len()
        })
        .collect()
}

/// `(flops, bytes)` per kernel kind in [`KINDS`] order, summed over the
/// requests, from the tensor shapes of STiSAN's serving forward (window
/// `n`, width `d`, geography half-width `h = d/2` over `t` n-gram tokens
/// per location, `u` distinct POIs in the window, `m` candidates). Bytes
/// count every f32 operand read and result written once (gather: rows read
/// and written, plus 8-byte indices). The FLOPs use the kernel profile's
/// conventions, so they cross-check the shapes against the profile.
fn kernel_bytes(
    model: &StiSan,
    data: &stisan_data::Processed,
    refs: &Refs,
    order: &[usize],
    cands: &[usize],
    rows_path: bool,
) -> [(f64, f64); 5] {
    let d = model.cfg.train.dim as f64;
    let h = d / 2.0;
    let t = stisan_geo::quadkey::tokens_per_point(16, 5) as f64;
    let n = data.max_len as f64;
    let mut acc = [(0.0, 0.0); 5];
    let mut add = |k: usize, f: f64, b: f64| {
        acc[k].0 += f;
        acc[k].1 += 4.0 * b;
    };
    // [r,k]x[k,f] (+bias); [b,m,k]x[b,k,n]; softmax / layer_norm on `e` elements.
    let lin = |r: f64, k: f64, f: f64, bias: bool| {
        (
            2.0 * r * k * f + if bias { r * f } else { 0.0 },
            r * k + k * f + r * f + if bias { f } else { 0.0 },
        )
    };
    let bmm =
        |b: f64, m: f64, k: f64, nn: f64| (b * 2.0 * m * k * nn, b * (m * k + k * nn + m * nn));
    for (&i, &m) in order.iter().zip(cands) {
        let mut ids = refs.insts[i].poi.clone();
        ids.sort_unstable();
        ids.dedup();
        let (u, m) = (ids.len() as f64, m as f64);
        // Geography encoder over the window's distinct POIs.
        for (f, b) in [
            lin(u * t, h, h, false),
            lin(u * t, h, h, false),
            lin(u * t, h, h, false),
            lin(u, h, h, true),
        ] {
            add(1, f, b);
        }
        for (f, b) in [bmm(u, t, h, t), bmm(u, t, t, h)] {
            add(0, f, b);
        }
        add(2, 5.0 * u * t * t, 2.0 * u * t * t);
        // Embedding gathers: POI half, n-gram tokens, window rows, candidates.
        let mc = if rows_path { 0.0 } else { m };
        add(
            4,
            0.0,
            2.0 * (u * h + u * t * h + n * d + mc * d) + 2.0 * (u + u * t + n + mc),
        );
        // IAAB blocks.
        for _ in 0..model.cfg.train.blocks {
            for (f, b) in [
                lin(n, d, d, false),
                lin(n, d, d, false),
                lin(n, d, d, false),
                lin(n, d, 2.0 * d, true),
                lin(n, 2.0 * d, d, true),
            ] {
                add(1, f, b);
            }
            for (f, b) in [bmm(1.0, n, d, n), bmm(1.0, n, n, d)] {
                add(0, f, b);
            }
            add(2, 5.0 * n * n, 2.0 * n * n);
            add(3, 2.0 * 8.0 * n * d, 2.0 * (2.0 * n * d + 2.0 * d));
        }
        add(3, 8.0 * n * d, 2.0 * n * d + 2.0 * d);
        // TAAD matching of the candidates against the window.
        for (f, b) in [bmm(1.0, m, d, n), bmm(1.0, m, n, d)] {
            add(0, f, b);
        }
        add(2, 5.0 * m * n, 2.0 * m * n);
    }
    acc
}
