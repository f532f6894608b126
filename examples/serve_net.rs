//! Network serving end to end in one process: a TCP server over the
//! scheduler on a loopback socket, four concurrent clients streaming a
//! mixed adder/ALU workload built from remote MAJ-3/XOR-2 calls, and a
//! pipelined burst phase to show wire-level coalescing.
//!
//! ```text
//! cargo run --release --example serve_net
//! ```

use spinwave_parallel::core::backend::BackendChoice;
use spinwave_parallel::core::prelude::*;
use spinwave_parallel::net::{NetClient, NetServer, NetServerConfig, RemoteGateId};
use spinwave_parallel::physics::waveguide::Waveguide;
use spinwave_parallel::serve::{SchedulerBuilder, ServeConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Channel count of the served gates = lanes per data-parallel op.
const WIDTH: usize = 8;
const CLIENTS: usize = 4;
const ROUNDS: usize = 8;

/// Bit-plane packing: word `bit` carries bit `bit` of every lane value,
/// lane `l` on channel `l` — the paper's data-parallel layout, built
/// client-side from plain integers.
fn bit_plane(vals: &[u64], bit: usize) -> Word {
    let mut word = Word::zeros(vals.len()).expect("lane count within 1..=64");
    for (lane, &v) in vals.iter().enumerate() {
        word = word
            .with_bit(lane, (v >> bit) & 1 == 1)
            .expect("lane in range");
    }
    word
}

/// One client's workload: WIDTH-lane ripple-carry additions and ALU
/// ops where every bit-plane op is a remote gate call.
fn run_client(
    addr: std::net::SocketAddr,
    seed: u64,
) -> Result<(u64, spinwave_parallel::net::NetClientStats), Box<dyn std::error::Error + Send + Sync>>
{
    let mut client = NetClient::connect(addr)?;
    // Spread the clients over both served waveguides.
    let wg = seed % 2;
    let maj3 = client
        .gate(&format!("maj3_w{WIDTH}_wg{wg}"))
        .expect("advertised");
    let xor2 = client
        .gate(&format!("xor2_w{WIDTH}_wg{wg}"))
        .expect("advertised");
    let mut gate_calls = 0u64;
    let zeros = Word::zeros(WIDTH).unwrap();
    let ones = Word::ones(WIDTH).unwrap();

    for round in 0..ROUNDS as u64 {
        let a_vals: Vec<u64> = (0..WIDTH as u64)
            .map(|l| (seed * 89 + round * 37 + l * 11) % 256)
            .collect();
        let b_vals: Vec<u64> = (0..WIDTH as u64)
            .map(|l| (seed * 53 + round * 59 + l * 23) % 256)
            .collect();

        // Ripple-carry adder: every bit-plane MAJ/XOR is a remote call
        // (the carry chain serializes, so these round-trips measure
        // request latency, not throughput).
        let mut carry = zeros;
        let mut sum_planes = Vec::with_capacity(8);
        for bit in 0..8 {
            let a = bit_plane(&a_vals, bit);
            let b = bit_plane(&b_vals, bit);
            gate_calls += 3;
            let half = client.eval(xor2, &[a, b])?;
            sum_planes.push(client.eval(xor2, &[half, carry])?);
            carry = client.eval(maj3, &[a, b, carry])?;
        }
        for (lane, (&av, &bv)) in a_vals.iter().zip(&b_vals).enumerate() {
            let mut sum = 0u64;
            for (bit, plane) in sum_planes.iter().enumerate() {
                sum |= (plane.bit(lane).unwrap() as u64) << bit;
            }
            assert_eq!(sum, (av + bv) & 0xFF, "remote adder lane {lane} diverged");
        }

        // ALU ops on the same operands: AND = MAJ(a,b,0), OR =
        // MAJ(a,b,1), XOR directly — verified against plain integers.
        for bit in 0..8 {
            let a = bit_plane(&a_vals, bit);
            let b = bit_plane(&b_vals, bit);
            gate_calls += 3;
            let and = client.eval(maj3, &[a, b, zeros])?;
            let or = client.eval(maj3, &[a, b, ones])?;
            let xor = client.eval(xor2, &[a, b])?;
            for lane in 0..WIDTH {
                let (av, bv) = (a_vals[lane] >> bit & 1, b_vals[lane] >> bit & 1);
                assert_eq!(and.bit(lane).unwrap() as u64, av & bv);
                assert_eq!(or.bit(lane).unwrap() as u64, av | bv);
                assert_eq!(xor.bit(lane).unwrap() as u64, av ^ bv);
            }
        }
    }

    // Burst phase: a pipelined raw stream (submit everything, then
    // redeem) — this is where wire traffic coalesces server-side.
    let burst: Vec<(RemoteGateId, Vec<Word>)> = (0..256u64)
        .map(|i| {
            if i % 2 == 0 {
                (
                    maj3,
                    vec![
                        Word::from_u8((seed * 13 + i * 37) as u8),
                        Word::from_u8((seed * 17 + i * 59) as u8),
                        Word::from_u8((seed * 19 + i * 83) as u8),
                    ],
                )
            } else {
                (
                    xor2,
                    vec![
                        Word::from_u8((seed * 23 + i * 41) as u8),
                        Word::from_u8((seed * 29 + i * 67) as u8),
                    ],
                )
            }
        })
        .collect();
    let outputs = client.eval_many(&burst)?;
    gate_calls += outputs.len() as u64;
    Ok((gate_calls, client.stats()))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut builder = SchedulerBuilder::new(ServeConfig {
        workers: 2,
        max_batch: 256,
        linger: Duration::from_micros(100),
        queue_depth: 1024,
    });
    for wg in [0u64, 1] {
        builder.register_circuit_gates(
            Waveguide::paper_default()?,
            WaveguideId(wg),
            WIDTH,
            BackendChoice::Cached,
        )?;
    }
    let scheduler = Arc::new(builder.build()?);
    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&scheduler),
        NetServerConfig::default(),
    )?;
    let addr = server.local_addr();
    println!(
        "serving {} gates on {} shards over tcp://{addr}",
        scheduler.gate_count(),
        scheduler.worker_count(),
    );

    let start = Instant::now();
    let per_client: Vec<(u64, spinwave_parallel::net::NetClientStats)> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS as u64)
                .map(|seed| scope.spawn(move || run_client(addr, seed).expect("client stream")))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
    let elapsed = start.elapsed();

    let total_calls: u64 = per_client.iter().map(|(calls, _)| calls).sum();
    let total_retries: u64 = per_client.iter().map(|(_, s)| s.retries).sum();
    println!(
        "{CLIENTS} concurrent clients: {total_calls} remote gate calls in {elapsed:?} \
         ({:.0} req/s over loopback; adder carry chains serialize, bursts pipeline)",
        total_calls as f64 / elapsed.as_secs_f64(),
    );
    let net_stats = server.stats();
    println!(
        "server: {} submits, {} responses, {} retry-afters (client retries: {total_retries}), \
         {} request errors, {} timeouts",
        net_stats.submits,
        net_stats.responses,
        net_stats.retry_afters,
        net_stats.request_errors,
        net_stats.timeouts,
    );
    let sched_stats = scheduler.stats();
    println!(
        "scheduler: {} drain cycles, mean {:.1} requests/drain, max {}, {} cross-gate passes",
        sched_stats.drain_passes,
        sched_stats.mean_drain(),
        sched_stats.max_drain,
        sched_stats.cross_gate_passes,
    );

    server.shutdown();
    let scheduler = Arc::try_unwrap(scheduler).expect("all client handles released");
    let report = scheduler.shutdown()?;
    println!(
        "shutdown: {} of {} requests served end-to-end",
        report.stats.completed, report.stats.submitted
    );
    assert_eq!(report.stats.completed, net_stats.responses);
    Ok(())
}
