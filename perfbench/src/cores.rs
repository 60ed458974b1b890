//! Standalone-core rows: single layers driven directly through their
//! public API, each output-checked, each reported as host nanoseconds per
//! operation (the median of [`REPS`] timed repetitions).

use std::hint::black_box;
use std::time::Instant;

use anton_arbiter::{
    ArbRequest, BitsetArbiter, InverseWeightedArbiter, PortArbiter, RoundRobinArbiter,
};
use anton_fault::{FaultSchedule, LinkShim};
use anton_sim::wake::{Scheduler, HORIZON};

use crate::report::median;
use crate::workload::splitmix64;

/// Timed repetitions per row.
const REPS: usize = 5;
/// Router-like arbiter radix (mesh, skip, channel and endpoint ports).
const LANES: usize = 12;
/// Grants per arbiter repetition.
const PICKS: u64 = 200_000;
/// Components and cycles of the wake-wheel row.
const WAKE_COMPONENTS: usize = 4096;
const WAKE_CYCLES: u64 = 4_000;
/// Single-flit packets pushed through the lossy link per repetition.
const SHIM_FLITS: u64 = 50_000;

/// Runs every row, returning `(per-layer metric, ns per operation)`.
pub fn rows(seed: u64) -> Result<Vec<(String, f64)>, String> {
    let rr = timed(|| {
        arbiter_ns_per_grant(
            seed,
            BitsetArbiter::round_robin(LANES),
            Box::new(RoundRobinArbiter::new(LANES)),
        )
    })?;
    let iw = timed(|| {
        arbiter_ns_per_grant(
            seed,
            BitsetArbiter::uniform_iw(LANES, 5),
            Box::new(InverseWeightedArbiter::uniform(LANES, 5)),
        )
    })?;
    Ok(vec![
        ("arbiter.bitset_ns_per_grant.round_robin".into(), rr),
        ("arbiter.bitset_ns_per_grant.inverse_weighted".into(), iw),
        ("sim.wake_ns_per_op".into(), timed(|| wake_ns_per_op(seed))?),
        (
            "fault.shim_ns_per_flit".into(),
            timed(|| shim_ns_per_flit(seed))?,
        ),
    ])
}

/// Median of [`REPS`] runs of one row; any failed check fails the row.
fn timed(mut row: impl FnMut() -> Result<f64, String>) -> Result<f64, String> {
    let mut v = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        v.push(row()?);
    }
    Ok(median(&v))
}

/// Times [`PICKS`] grants through the bitset arbiter core on a seeded
/// request stream, and checks every grant against the boxed reference
/// arbiter fed the identical stream (the `bench_kernel` microbenchmark's
/// equivalence check). Only the bitset loop is timed.
fn arbiter_ns_per_grant(
    seed: u64,
    mut bitset: BitsetArbiter,
    mut reference: Box<dyn PortArbiter>,
) -> Result<f64, String> {
    let mask = (1u64 << LANES) - 1;
    let mut rng = seed;
    let reqs: Vec<u64> = (0..PICKS)
        .map(|_| loop {
            let r = splitmix64(&mut rng) & mask;
            if r != 0 {
                break r;
            }
        })
        .collect();
    let pattern_of = |i: u64, lane: u32| -> u8 { ((i ^ u64::from(lane)) & 3) as u8 };
    let age_of = |i: u64, lane: u32| -> u64 { (i << 6) ^ u64::from(lane).wrapping_mul(0x9e37) };

    let t = Instant::now();
    let mut grants = Vec::with_capacity(reqs.len());
    for (i, &req) in reqs.iter().enumerate() {
        let i = i as u64;
        let w = bitset.pick_mask(black_box(req), |l| pattern_of(i, l), |l| age_of(i, l));
        grants.push(w.ok_or("bitset arbiter refused a nonzero request word")?);
    }
    let ns = t.elapsed().as_nanos() as f64;

    let mut buf: Vec<ArbRequest> = Vec::with_capacity(LANES);
    for (i, (&req, &got)) in reqs.iter().zip(&grants).enumerate() {
        let i = i as u64;
        buf.clear();
        let mut rest = req;
        while rest != 0 {
            let lane = rest.trailing_zeros();
            rest &= rest - 1;
            buf.push(ArbRequest {
                input: lane as usize,
                pattern: pattern_of(i, lane),
                age: age_of(i, lane),
            });
        }
        let idx = reference.pick(&buf).ok_or("reference arbiter refused")?;
        if buf[idx].input as u32 != got {
            return Err(format!(
                "grant {i}: bitset lane {got}, reference {}",
                buf[idx].input
            ));
        }
    }
    Ok(ns / PICKS as f64)
}

/// Drives the wake wheel the way the kernel does: every component woken
/// this cycle is drained and re-scheduled a seeded 1..HORIZON cycles out.
/// One operation is one drained wake plus its re-schedule. Checks that
/// each component wakes exactly on the cycle it was scheduled for.
fn wake_ns_per_op(seed: u64) -> Result<f64, String> {
    let mut sched = Scheduler::new(WAKE_COMPONENTS);
    let mut due = vec![0u64; WAKE_COMPONENTS];
    let delays: Vec<u64> = {
        let mut rng = seed;
        (0..1024)
            .map(|_| 1 + splitmix64(&mut rng) % (HORIZON - 1))
            .collect()
    };
    let mut woken: Vec<u32> = Vec::with_capacity(WAKE_COMPONENTS);
    let mut ops = 0u64;
    let mut next_delay = 0usize;
    let t = Instant::now();
    for now in 0..WAKE_CYCLES {
        sched.begin_cycle(now);
        woken.clear();
        sched.snapshot_into(&mut woken);
        for &i in &woken {
            let i = i as usize;
            if due[i] != now {
                return Err(format!("component {i} woke at {now}, due at {}", due[i]));
            }
            let at = now + delays[next_delay];
            next_delay = (next_delay + 1) % delays.len();
            sched.schedule(i, at, now);
            due[i] = at;
        }
        ops += woken.len() as u64;
        sched.end_cycle();
    }
    let ns = t.elapsed().as_nanos() as f64;
    if ops == 0 {
        return Err("the wake wheel woke nothing".into());
    }
    Ok(ns / ops as f64)
}

/// Pushes [`SHIM_FLITS`] single-flit packets through one go-back-N shim
/// over a 1e-4 BER link at the serializer's rate, until every flit has
/// crossed. Checks exactly-once delivery and that frames were lost and
/// retransmitted.
fn shim_ns_per_flit(seed: u64) -> Result<f64, String> {
    let schedule = FaultSchedule::uniform(seed, 1e-4);
    let mut shim = LinkShim::new(44, schedule.gbn, schedule.default_ber, Vec::new(), seed);
    let (gain, cost) = (14u64, 45u64);
    let mut tokens = 0u64;
    let mut sent = 0u64;
    let mut delivered = 0u64;
    let mut now = 0u64;
    let t = Instant::now();
    while delivered < SHIM_FLITS {
        tokens = (tokens + gain).min(cost + gain - 1);
        if sent < SHIM_FLITS && tokens >= cost && shim.backlog_flits() < 64 {
            tokens -= cost;
            shim.enqueue(now, 1);
            sent += 1;
        }
        delivered += u64::from(shim.advance(now));
        now += 1;
        if now > 100 * SHIM_FLITS {
            return Err(format!(
                "shim stalled: {delivered}/{SHIM_FLITS} flits delivered"
            ));
        }
    }
    let ns = t.elapsed().as_nanos() as f64;
    let stats = shim.stats();
    if delivered != SHIM_FLITS || stats.flits_delivered != SHIM_FLITS {
        return Err(format!(
            "shim delivered {delivered} packets / {} flits of {SHIM_FLITS}",
            stats.flits_delivered
        ));
    }
    if stats.retransmissions == 0 {
        return Err("a 1e-4 BER link retransmitted nothing".into());
    }
    Ok(ns / SHIM_FLITS as f64)
}
