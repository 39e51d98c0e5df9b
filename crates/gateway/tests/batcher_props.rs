//! Micro-batcher property suite, on a fully simulated clock — the
//! assertion path contains no sleeps and no `Instant`.
//!
//! A discrete-event simulation replays a random arrival pattern against
//! the pure [`MicroBatcher`] state machine plus a single simulated scoring
//! "device" that takes `service_us` per batch. Dispatch is work-conserving,
//! like the server's dispatcher: whenever the device is free and something
//! is pending, everything pending (up to a full batch) is emitted at once.
//! Invariants:
//!
//! * every **admitted** request lands in **exactly one** batch, exactly
//!   once, in FIFO order; shed requests land in none;
//! * no batch exceeds `max_batch_size`;
//! * with `queue_capacity <= max_batch_size` (the configuration whose
//!   bound is provable), no admitted request waits longer than one batch
//!   service time;
//! * an idle device never holds a request: when arrivals are spaced at
//!   least one service time apart, every request is emitted alone at the
//!   instant it arrives.

use proptest::prelude::*;
use stisan_gateway::batcher::{BatchPolicy, MicroBatcher};

/// One emitted batch: emission time plus `(id, arrived_us)` members.
struct EmittedBatch {
    emit_us: u64,
    members: Vec<(u32, u64)>,
}

struct SimOutcome {
    admitted: Vec<u32>,
    shed: Vec<u32>,
    batches: Vec<EmittedBatch>,
}

/// Replays `arrivals` (sorted admission timestamps, one request each)
/// against the batcher and a single device with fixed `service_us`.
/// Emission happens at the earliest instant something is pending *and* the
/// device is free; ties between an arrival and an emission resolve to the
/// emission (the dispatcher holds the lock first).
fn simulate(policy: BatchPolicy, arrivals: &[u64], service_us: u64) -> SimOutcome {
    let mut b: MicroBatcher<(u32, u64)> = MicroBatcher::new(policy);
    let mut out = SimOutcome { admitted: Vec::new(), shed: Vec::new(), batches: Vec::new() };
    let mut device_free_us = 0u64;
    let mut now = 0u64;
    let mut next = 0usize; // index of the next arrival to offer

    loop {
        // Earliest possible emission: now, or when the device frees up.
        let emit_at = (!b.is_empty()).then(|| device_free_us.max(now));
        let arrive_at = arrivals.get(next).copied();

        match (arrive_at, emit_at) {
            (Some(a), Some(e)) if e <= a => {
                now = e;
                emit(&mut b, now, service_us, &mut device_free_us, &mut out);
            }
            (Some(a), _) => {
                now = now.max(a);
                let id = next as u32;
                match b.offer((id, now), now) {
                    Ok(()) => out.admitted.push(id),
                    Err(_) => out.shed.push(id),
                }
                next += 1;
            }
            (None, Some(e)) => {
                now = now.max(e);
                emit(&mut b, now, service_us, &mut device_free_us, &mut out);
            }
            (None, None) => break,
        }
    }
    out
}

fn emit(
    b: &mut MicroBatcher<(u32, u64)>,
    now: u64,
    service_us: u64,
    device_free_us: &mut u64,
    out: &mut SimOutcome,
) {
    let mut taken = Vec::new();
    b.take_into(&mut taken);
    let members: Vec<(u32, u64)> = taken.into_iter().map(|p| p.item).collect();
    assert!(!members.is_empty(), "emitted an empty batch");
    *device_free_us = now + service_us;
    out.batches.push(EmittedBatch { emit_us: now, members });
}

fn arrivals_from_gaps(gaps: &[u64]) -> Vec<u64> {
    let mut t = 0u64;
    gaps.iter()
        .map(|&g| {
            t += g;
            t
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Exactly-once delivery and the batch-size bound, under any policy.
    #[test]
    fn admitted_answered_exactly_once_and_batches_bounded(
        max_batch in 1usize..9,
        extra_capacity in 0usize..17,
        service_us in 0u64..4_001,
        gaps in prop::collection::vec(0u64..2_501, 1..201),
    ) {
        let policy = BatchPolicy {
            max_batch_size: max_batch,
            queue_capacity: max_batch + extra_capacity,
        };
        let arrivals = arrivals_from_gaps(&gaps);
        let sim = simulate(policy, &arrivals, service_us);

        prop_assert_eq!(sim.admitted.len() + sim.shed.len(), arrivals.len());

        // Exactly once, FIFO: concatenating all batches reproduces the
        // admission order with no duplicates and no losses.
        let batched: Vec<u32> = sim
            .batches
            .iter()
            .flat_map(|eb| eb.members.iter().map(|&(id, _)| id))
            .collect();
        prop_assert_eq!(&batched, &sim.admitted);

        for eb in &sim.batches {
            prop_assert!(eb.members.len() <= max_batch,
                "batch of {} exceeds max_batch_size {}", eb.members.len(), max_batch);
            // Emission never predates a member's admission.
            for &(_, arrived) in &eb.members {
                prop_assert!(eb.emit_us >= arrived);
            }
        }
    }

    /// The wait bound: with `queue_capacity <= max_batch_size`, an admitted
    /// request is batched within one batch service time — the device is
    /// either free on arrival, or frees up within `service_us` and then
    /// takes everything pending in one batch.
    #[test]
    fn wait_is_bounded_when_capacity_fits_one_batch(
        max_batch in 1usize..9,
        service_us in 0u64..4_001,
        gaps in prop::collection::vec(0u64..2_501, 1..201),
    ) {
        let policy = BatchPolicy {
            max_batch_size: max_batch,
            queue_capacity: max_batch, // every pending request fits the next batch
        };
        let arrivals = arrivals_from_gaps(&gaps);
        let sim = simulate(policy, &arrivals, service_us);
        for eb in &sim.batches {
            for &(id, arrived) in &eb.members {
                let waited = eb.emit_us - arrived;
                prop_assert!(
                    waited <= service_us,
                    "request {id} waited {waited}us > one service time {service_us}us"
                );
            }
        }
    }

    /// Work conservation: when arrivals are spaced at least one service
    /// time apart the device is always free on arrival, so every batch has
    /// one member, emitted at the instant it arrived.
    #[test]
    fn idle_device_never_holds_a_request(
        max_batch in 1usize..9,
        extra_capacity in 0usize..17,
        service_us in 0u64..4_001,
        slack in prop::collection::vec(0u64..2_501, 1..201),
    ) {
        let policy = BatchPolicy {
            max_batch_size: max_batch,
            queue_capacity: max_batch + extra_capacity,
        };
        let gaps: Vec<u64> = slack.iter().map(|s| service_us + s).collect();
        let arrivals = arrivals_from_gaps(&gaps);
        let sim = simulate(policy, &arrivals, service_us);
        prop_assert!(sim.shed.is_empty());
        prop_assert_eq!(sim.batches.len(), arrivals.len());
        for eb in &sim.batches {
            prop_assert_eq!(eb.members.len(), 1);
            prop_assert_eq!(eb.emit_us, eb.members[0].1, "an idle device held a request");
        }
    }

    /// Determinism: the same arrival pattern replays to the same batches.
    #[test]
    fn simulation_is_deterministic(
        max_batch in 1usize..7,
        service_us in 0u64..3_001,
        gaps in prop::collection::vec(0u64..2_001, 1..81),
    ) {
        let policy = BatchPolicy { max_batch_size: max_batch, queue_capacity: max_batch * 2 };
        let arrivals = arrivals_from_gaps(&gaps);
        let a = simulate(policy, &arrivals, service_us);
        let b = simulate(policy, &arrivals, service_us);
        prop_assert_eq!(a.admitted, b.admitted);
        prop_assert_eq!(a.shed, b.shed);
        prop_assert_eq!(a.batches.len(), b.batches.len());
        for (x, y) in a.batches.iter().zip(&b.batches) {
            prop_assert_eq!(x.emit_us, y.emit_us);
            prop_assert_eq!(&x.members, &y.members);
        }
    }
}

/// A back-to-back burst at one instant sheds precisely what exceeds
/// capacity — the load-shedding contract in μs.
#[test]
fn burst_sheds_exactly_the_overflow() {
    // The first request finds the device idle and is emitted alone at t=0.
    // The device is then busy for 500 us, so the queue cannot drain during
    // the rest of the same-instant burst: of the other 9, capacity 6 admits
    // 6 and sheds exactly the 3 beyond it.
    let policy = BatchPolicy { max_batch_size: 8, queue_capacity: 6 };
    let arrivals = vec![0u64; 10]; // 10 requests in the same microsecond
    let sim = simulate(policy, &arrivals, 500);
    assert_eq!(sim.admitted.len(), 7, "1 emitted at once, then capacity 6 admits 6");
    assert_eq!(sim.shed.len(), 3, "the other 3 are shed");
    // The backlog drains as one batch the moment the device frees up.
    let sizes: Vec<usize> = sim.batches.iter().map(|b| b.members.len()).collect();
    assert_eq!(sizes, vec![1, 6]);
    let emits: Vec<u64> = sim.batches.iter().map(|b| b.emit_us).collect();
    assert_eq!(emits, vec![0, 500]);
}
