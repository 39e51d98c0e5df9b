//! The per-request stage split of the traced gateway phase, and the span
//! file.
//!
//! Each traced answer echoes four server stamps, µs since admission:
//! enqueued `e`, batch sealed `s`, scored `c` and handoff `w` (the
//! program's `Stage::Written`, stamped when the connection handler
//! receives the reply, before the socket write). With the client's due,
//! send and receive times, a request's latency splits into
//!
//! ```text
//! lag      send − due              generator lateness
//! admit    e                       frame decoded → queued
//! queue    s − e                   coalescing window and batch wait
//! score    c − s                   batch scoring up to this request
//!   model    the request's `core.score` span (child of score)
//! handoff  w − c                   rest of the batch, reply channel
//! wire     (recv − send) − w       both socket trips, frame codecs
//! residual latency − Σ above       timer rounding only
//! ```
//!
//! `wire` is, by its definition, what the client's round trip leaves after
//! the server's admitted-to-handoff span, so the split adds up; the
//! residual exposes rounding and any stamp that runs backwards.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::load::Sample;
use crate::probe::Span;
use crate::stats::{mean, median, quantile, Metrics};

const STAGES: [&str; 7] = [
    "lag", "admit", "queue", "score", "handoff", "wire", "residual",
];

/// Stage durations of one traced answer, µs, in [`STAGES`] order.
fn stages(s: &Sample) -> Option<[f64; 7]> {
    let [e, b, c, w] = s.echo?.map(f64::from);
    let lag = s.send_ns.saturating_sub(s.due_ns) as f64 / 1e3;
    let rt = s.recv_ns.saturating_sub(s.send_ns) as f64 / 1e3;
    let total = s.latency_ms() * 1e3;
    let named = [lag, e, b - e, c - b, w - c, rt - w];
    let residual = total - named.iter().sum::<f64>();
    Some([
        named[0], named[1], named[2], named[3], named[4], named[5], residual,
    ])
}

/// Gateway-layer metrics from the traced phase, plus the spans the
/// adapters recorded during it.
pub fn gateway_metrics(m: &mut Metrics, traced: &[Sample], spans: &[Span]) {
    let ok: Vec<&Sample> = traced.iter().filter(|s| s.ok).collect();
    let rows: Vec<[f64; 7]> = ok.iter().filter_map(|s| stages(s)).collect();
    let col = |k: usize| rows.iter().map(|r| r[k]).collect::<Vec<_>>();
    m.put("gateway.admit_us.p50", median(&col(1)), "us");
    m.put("gateway.queue_us.p50", median(&col(2)), "us");
    m.put("gateway.queue_us.p99", quantile(&col(2), 0.99), "us");
    m.put("gateway.score_us.p50", median(&col(3)), "us");
    m.put("gateway.handoff_us.p50", median(&col(4)), "us");
    m.put("gateway.wire_us.p50", median(&col(5)), "us");
    let worst = col(6).iter().fold(0.0f64, |a, r| a.max(r.abs()));
    m.put("bench.split_residual_us.max", worst, "us");

    let by = |name: &str| spans.iter().filter(|s| s.name == name).collect::<Vec<_>>();
    let score: Vec<&Span> = by("core.score")
        .into_iter()
        .filter(|s| s.req != 0)
        .collect();
    m.put(
        "core.score_us.p50",
        median(
            &score
                .iter()
                .map(|s| s.dur_ns() as f64 / 1e3)
                .collect::<Vec<_>>(),
        ),
        "us",
    );
    m.put(
        "core.score_ns_per_cand",
        median(
            &score
                .iter()
                .map(|s| s.dur_ns() as f64 / s.n.max(1) as f64)
                .collect::<Vec<_>>(),
        ),
        "ns",
    );
    m.put(
        "retrieval.candidates_per_req",
        mean(&ok.iter().map(|s| f64::from(s.scored)).collect::<Vec<_>>()),
        "count",
    );
    // The split, on stderr: mean share of client latency per stage.
    let model: HashMap<u64, f64> = score
        .iter()
        .map(|s| (s.req, s.dur_ns() as f64 / 1e3))
        .collect();
    let total = mean(&ok.iter().map(|s| s.latency_ms() * 1e3).collect::<Vec<_>>());
    eprintln!(
        "  stage split over {} traced answers (mean client latency {total:.0} us):",
        rows.len()
    );
    let mut largest = ("", 0.0);
    for (k, name) in STAGES.iter().enumerate() {
        let mu = mean(&col(k));
        if mu > largest.1 {
            largest = (name, mu);
        }
        eprintln!(
            "    {name:<9} p50 {:>8.1} us  mean {mu:>8.1} us  {:>5.1}%",
            median(&col(k)),
            100.0 * mu / total
        );
    }
    let model_us: Vec<f64> = ok
        .iter()
        .filter_map(|s| model.get(&s.id).copied())
        .collect();
    eprintln!(
        "    (score ⊃ model: p50 {:.1} us over {} linked spans)",
        median(&model_us),
        model_us.len()
    );
    eprintln!("  largest stage: {}", largest.0);
}

/// Writes every traced request and its stage spans, plus the adapters'
/// spans, as JSON lines: `id`, `parent`, `req`, `name`, `start_ns`,
/// `end_ns`, `self_ns` (duration minus its children's). Server stages are
/// laid out from the send time plus half the wire time (the split of wire
/// time between the two directions is not observable); their durations
/// are exact.
pub fn write_spans(path: &str, traced: &[Sample], spans: &[Span]) {
    let model: HashMap<u64, &Span> = spans
        .iter()
        .filter(|s| s.name == "core.score" && s.req != 0)
        .map(|s| (s.req, s))
        .collect();
    let mut out = String::new();
    let mut id = 1u64 << 40;
    let line = |out: &mut String,
                id: u64,
                parent: u64,
                req: u64,
                name: &str,
                a: u64,
                b: u64,
                own: u64| {
        let _ = writeln!(
            out,
            "{{\"id\":{id},\"parent\":{parent},\"req\":{req},\"name\":\"{name}\",\"start_ns\":{a},\"end_ns\":{b},\"self_ns\":{own}}}"
        );
    };
    for s in traced {
        let latency = s.recv_ns.saturating_sub(s.due_ns);
        let Some(st) = stages(s) else {
            line(
                &mut out, s.id, 0, s.id, "request", s.due_ns, s.recv_ns, latency,
            );
            continue;
        };
        let ns = |us: f64| (us.max(0.0) * 1e3) as u64;
        line(
            &mut out,
            s.id,
            0,
            s.id,
            "request",
            s.due_ns,
            s.recv_ns,
            ns(st[6]),
        );
        let mut t = s.due_ns;
        let wire_half = ns(st[5]) / 2;
        for (k, name) in STAGES.iter().enumerate().take(6) {
            let mut d = ns(st[k]);
            if *name == "wire" {
                // Response direction; the request direction precedes admit.
                d -= wire_half;
            }
            if *name == "admit" {
                line(
                    &mut out,
                    id,
                    s.id,
                    s.id,
                    "wire_in",
                    t,
                    t + wire_half,
                    wire_half,
                );
                id += 1;
                t += wire_half;
            }
            let child = if *name == "score" {
                model.get(&s.id).map(|m| m.dur_ns())
            } else {
                None
            };
            line(
                &mut out,
                id,
                s.id,
                s.id,
                if *name == "wire" { "wire_out" } else { name },
                t,
                t + d,
                d.saturating_sub(child.unwrap_or(0)),
            );
            if let Some(mspan) = model.get(&s.id).filter(|_| *name == "score") {
                line(
                    &mut out,
                    id + 1,
                    id,
                    s.id,
                    "model",
                    mspan.start_ns,
                    mspan.end_ns,
                    mspan.dur_ns(),
                );
                id += 1;
            }
            id += 1;
            t += d;
        }
    }
    for s in spans
        .iter()
        .filter(|s| !(s.name == "core.score" && s.req != 0))
    {
        line(
            &mut out,
            id,
            0,
            s.req,
            s.name,
            s.start_ns,
            s.end_ns,
            s.dur_ns(),
        );
        id += 1;
    }
    if let Err(e) = std::fs::write(path, out) {
        eprintln!("warning: cannot write {path}: {e}");
    }
}
