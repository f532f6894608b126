//! End-to-end tests for the TCP front-end: concurrent clients against
//! one scheduler, hostile peers, and wire-level backpressure.

use magnon_core::backend::BackendChoice;
use magnon_core::gate::{ParallelGate, WaveguideId};
use magnon_core::word::Word;
use magnon_net::{
    Frame, NetClient, NetClientConfig, NetError, NetServer, NetServerConfig, RemoteGateId,
    NET_VERSION,
};
use magnon_physics::waveguide::Waveguide;
use magnon_serve::{Scheduler, SchedulerBuilder, ServeConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// A scheduler serving the circuit gate pair (maj3 + xor2) on two
/// waveguides, shared behind an Arc for the server threads.
fn serving_scheduler(config: ServeConfig) -> Arc<Scheduler> {
    let mut builder = SchedulerBuilder::new(config);
    for wg in [0u64, 1] {
        builder
            .register_circuit_gates(
                Waveguide::paper_default().unwrap(),
                WaveguideId(wg),
                8,
                BackendChoice::Cached,
            )
            .unwrap();
    }
    Arc::new(builder.build().unwrap())
}

fn quick_serve_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        max_batch: 64,
        linger: Duration::from_micros(100),
        queue_depth: 256,
    }
}

/// Deterministic mixed-gate request stream for one client thread.
fn client_stream(seed: u64, count: usize) -> Vec<(usize, Vec<Word>)> {
    (0..count as u64)
        .map(|i| {
            let r = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i.wrapping_mul(0xD134_2543_DE82_EF95));
            // Gate indices cycle over the 4 registered gates
            // (maj/xor on each of two waveguides).
            let gate = (r % 4) as usize;
            let inputs = if gate.is_multiple_of(2) { 3 } else { 2 };
            let words = (0..inputs)
                .map(|j| Word::from_u8((r >> (8 * j)) as u8))
                .collect();
            (gate, words)
        })
        .collect()
}

#[test]
fn concurrent_clients_match_sequential_evaluation() {
    let scheduler = serving_scheduler(quick_serve_config());
    let reference: Vec<ParallelGate> = (0..scheduler.gate_count())
        .map(|i| {
            scheduler
                .gate(scheduler.gate_id(i).unwrap())
                .unwrap()
                .clone()
        })
        .collect();
    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&scheduler),
        NetServerConfig::default(),
    )
    .unwrap();
    let addr = server.local_addr();

    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 48;
    let mut all: Vec<Vec<(usize, Vec<Word>, Word)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = NetClient::connect(addr).unwrap();
                    let stream = client_stream(c as u64 + 1, PER_CLIENT);
                    // Pipeline everything, then redeem in reverse order
                    // to prove tag-matched out-of-order delivery.
                    let tags: Vec<u64> = stream
                        .iter()
                        .map(|(gate, words)| {
                            client.submit(RemoteGateId(*gate as u32), words).unwrap()
                        })
                        .collect();
                    let mut results: Vec<(usize, Vec<Word>, Word)> = tags
                        .into_iter()
                        .zip(&stream)
                        .rev()
                        .map(|(tag, (gate, words))| {
                            (*gate, words.clone(), client.wait(tag).unwrap())
                        })
                        .collect();
                    results.reverse();
                    assert_eq!(client.stats().responses, PER_CLIENT as u64);
                    results
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Every remote answer must equal the sequential in-process result.
    for results in all.drain(..) {
        for (gate, words, remote) in results {
            let expected = reference[gate].evaluate(&words).unwrap();
            assert_eq!(remote, expected.word(), "gate {gate} diverged over TCP");
        }
    }
    let stats = server.shutdown();
    assert_eq!(stats.connections_accepted, CLIENTS as u64);
    assert_eq!(stats.responses, (CLIENTS * PER_CLIENT) as u64);
    assert_eq!(stats.timeouts, 0);
    let scheduler = Arc::try_unwrap(scheduler).expect("server released its handle");
    let report = scheduler.shutdown().unwrap();
    assert_eq!(report.stats.completed, (CLIENTS * PER_CLIENT) as u64);
}

#[test]
fn hostile_peers_cannot_kill_the_server() {
    let scheduler = serving_scheduler(quick_serve_config());
    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&scheduler),
        NetServerConfig::default(),
    )
    .unwrap();
    let addr = server.local_addr();

    // 1. Plain garbage instead of a hello: the server answers one
    //    protocol error (or just closes) and drops the connection.
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(b"GET / HTTP/1.1\r\nHost: spinwave\r\n\r\n")
            .unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let mut buf = Vec::new();
        let _ = raw.read_to_end(&mut buf); // server closes after the diagnostic
    }

    // 2. A version-mismatched hello is rejected with a diagnostic.
    {
        let mut client_err = None;
        // Drive the real client but fake the version via a raw frame.
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(
            &Frame::Hello {
                version: NET_VERSION + 7,
            }
            .encode(),
        )
        .unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let mut reader = &raw;
        if let Ok(Frame::Error { message, .. }) = magnon_net::protocol::read_frame(&mut reader) {
            client_err = Some(message);
        }
        let message = client_err.expect("a version-mismatch diagnostic frame");
        assert!(
            message.contains("version"),
            "diagnostic should name the version problem: {message}"
        );
    }

    // 3. A truncated frame after a valid handshake: length prefix
    //    promises more bytes than ever arrive.
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(
            &Frame::Hello {
                version: NET_VERSION,
            }
            .encode(),
        )
        .unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let mut reader = &raw;
        assert!(matches!(
            magnon_net::protocol::read_frame(&mut reader),
            Ok(Frame::HelloAck { .. })
        ));
        raw.write_all(&200u32.to_le_bytes()).unwrap();
        raw.write_all(&[1, 2, 3]).unwrap();
        drop(raw); // close mid-frame
    }

    // 4. A frame whose checksum lies.
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(
            &Frame::Hello {
                version: NET_VERSION,
            }
            .encode(),
        )
        .unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        assert!(matches!(
            magnon_net::protocol::read_frame(&mut (&raw)),
            Ok(Frame::HelloAck { .. })
        ));
        let mut corrupt = Frame::Submit {
            tag: 1,
            gate: 0,
            lane: None,
            operands: vec![Word::from_u8(1), Word::from_u8(2), Word::from_u8(3)],
        }
        .encode();
        let k = corrupt.len() - 9;
        corrupt[k] ^= 0xFF;
        raw.write_all(&corrupt).unwrap();
        // The server answers a tag-0 protocol diagnostic and closes.
        match magnon_net::protocol::read_frame(&mut (&raw)) {
            Ok(Frame::Error { tag: 0, .. }) => {}
            other => panic!("expected a protocol diagnostic, got {other:?}"),
        }
    }

    // After all four abuses, an honest client still gets served.
    let mut client = NetClient::connect(addr).unwrap();
    assert_eq!(client.gates().len(), 4);
    let maj3 = client.gate("maj3_w8_wg0").unwrap();
    let out = client
        .eval(
            maj3,
            &[
                Word::from_u8(0x0F),
                Word::from_u8(0x33),
                Word::from_u8(0x55),
            ],
        )
        .unwrap();
    assert_eq!(out.to_u8(), 0x17);
    // An unknown gate index errors without poisoning the connection
    // (the client catches it before any bytes move)…
    let err = client
        .eval(RemoteGateId(99), &[Word::from_u8(1)])
        .unwrap_err();
    assert!(matches!(err, NetError::BadRequest { .. }));
    // …and the client-side shape check does the same.
    let xor2 = client.gate("xor2_w8_wg0").unwrap();
    assert!(matches!(
        client.eval(xor2, &[Word::from_u8(1)]),
        Err(NetError::BadRequest { .. })
    ));
    let out = client.eval(xor2, &[Word::from_u8(0xF0), Word::from_u8(0xAA)]);
    assert_eq!(out.unwrap().to_u8(), 0x5A);
    drop(client);

    // Handcrafted wrong-shape submits that really cross the wire (the
    // frame format allows 1..=16 operands of any width for any gate):
    // the scheduler refuses each at submit, the refusal must come back
    // as exactly one tagged Gate error frame, and the connection must
    // survive.
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(
            &Frame::Hello {
                version: NET_VERSION,
            }
            .encode(),
        )
        .unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        assert!(matches!(
            magnon_net::protocol::read_frame(&mut (&raw)),
            Ok(Frame::HelloAck { .. })
        ));
        // Gate 0 is a 3-input 8-bit majority: send one operand, then
        // three 4-bit operands.
        let nibble = Word::from_bits(0x7, 4).unwrap();
        for (tag, operands) in [(41, vec![Word::from_u8(0x7E)]), (43, vec![nibble; 3])] {
            raw.write_all(
                &Frame::Submit {
                    tag,
                    gate: 0,
                    lane: None,
                    operands,
                }
                .encode(),
            )
            .unwrap();
            match magnon_net::protocol::read_frame(&mut (&raw)) {
                Ok(Frame::Error { tag: t, code, .. }) if t == tag => {
                    assert_eq!(code, magnon_net::WireErrorCode::Gate)
                }
                other => panic!("expected a tagged gate error, got {other:?}"),
            }
        }
        // The same connection still serves a well-formed request, and
        // its response is the next frame: each refusal drew one frame.
        raw.write_all(
            &Frame::Submit {
                tag: 42,
                gate: 0,
                lane: None,
                operands: vec![
                    Word::from_u8(0x0F),
                    Word::from_u8(0x33),
                    Word::from_u8(0x55),
                ],
            }
            .encode(),
        )
        .unwrap();
        match magnon_net::protocol::read_frame(&mut (&raw)) {
            Ok(Frame::Response { tag: 42, word }) => assert_eq!(word.to_u8(), 0x17),
            other => panic!("expected the response, got {other:?}"),
        }
    }

    let stats = server.shutdown();
    assert!(
        stats.connections_rejected >= 3,
        "the hostile peers must be counted: {stats:?}"
    );
    assert!(stats.connections_accepted >= 3);
    Arc::try_unwrap(scheduler).unwrap().shutdown().unwrap();
}

#[test]
fn lanes_ride_the_wire_directory_pins_and_fdm_coalescing() {
    use magnon_core::gate::LaneId;
    // Two frequency lanes of ONE waveguide: the v2 directory must
    // advertise both, lane-pinned submits must validate, and remote
    // traffic hitting both lanes must coalesce into multi-lane FDM
    // drains server-side.
    let mut builder = SchedulerBuilder::new(ServeConfig {
        workers: 1,
        linger: Duration::from_millis(1),
        ..quick_serve_config()
    });
    for lane in [0u16, 1] {
        builder
            .register_circuit_gates_on_lane(
                Waveguide::paper_default().unwrap(),
                WaveguideId(0),
                LaneId(lane),
                8,
                BackendChoice::Cached,
            )
            .unwrap();
    }
    let scheduler = Arc::new(builder.build().unwrap());
    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&scheduler),
        NetServerConfig::default(),
    )
    .unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();

    // The hello-ack directory lists both lanes of waveguide 0.
    let lanes: Vec<u16> = client
        .gates_on_waveguide(0)
        .map(|(_, lane, _)| lane)
        .collect();
    assert_eq!(lanes, vec![0, 0, 1, 1], "maj+xor on each of two lanes");
    assert!(client.gates().iter().all(|g| g.waveguide == 0));
    let maj_lane0 = client.gate("maj3_w8_wg0").unwrap();
    let maj_lane1 = client.gate("maj3_w8_wg0_lane1").unwrap();

    // Lane-pinned submits: the right pin serves, the wrong pin is
    // caught client-side against the directory…
    let words = [
        Word::from_u8(0x0F),
        Word::from_u8(0x33),
        Word::from_u8(0x55),
    ];
    let tag = client.submit_on_lane(maj_lane1, 1, &words).unwrap();
    assert_eq!(client.wait(tag).unwrap().to_u8(), 0x17);
    assert!(matches!(
        client.submit_on_lane(maj_lane1, 0, &words),
        Err(NetError::BadRequest { .. })
    ));
    // …and a pin that lies on the wire is rejected by the server with
    // the v2 lane-mismatch code.
    {
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        raw.write_all(
            &Frame::Hello {
                version: NET_VERSION,
            }
            .encode(),
        )
        .unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        assert!(matches!(
            magnon_net::protocol::read_frame(&mut (&raw)),
            Ok(Frame::HelloAck { .. })
        ));
        raw.write_all(
            &Frame::Submit {
                tag: 77,
                gate: maj_lane1.index(),
                lane: Some(9),
                operands: words.to_vec(),
            }
            .encode(),
        )
        .unwrap();
        match magnon_net::protocol::read_frame(&mut (&raw)) {
            Ok(Frame::Error { tag: 77, code, .. }) => {
                assert_eq!(code, magnon_net::WireErrorCode::LaneMismatch)
            }
            other => panic!("expected a lane-mismatch error, got {other:?}"),
        }
    }

    // Interleaved remote traffic across both lanes coalesces into
    // multi-lane FDM drains on the shared waveguide.
    let requests: Vec<(RemoteGateId, Vec<Word>)> = (0..64u64)
        .map(|i| {
            let gate = if i % 2 == 0 { maj_lane0 } else { maj_lane1 };
            let words = (0..3)
                .map(|j| Word::from_u8((i.wrapping_mul(0x9E37_79B9) >> (8 * j)) as u8))
                .collect();
            (gate, words)
        })
        .collect();
    let outputs = client.eval_many(&requests).unwrap();
    let reference: Vec<ParallelGate> = (0..scheduler.gate_count())
        .map(|i| {
            scheduler
                .gate(scheduler.gate_id(i).unwrap())
                .unwrap()
                .clone()
        })
        .collect();
    for ((gate, words), output) in requests.iter().zip(&outputs) {
        assert_eq!(
            *output,
            reference[gate.index() as usize]
                .evaluate(words)
                .unwrap()
                .word()
        );
    }
    drop(client);
    server.shutdown();
    let scheduler = Arc::try_unwrap(scheduler).unwrap();
    let stats = scheduler.stats();
    assert!(
        stats.fdm_batches >= 1 && stats.fdm_lanes >= 2,
        "remote two-lane traffic must stack into FDM drains: {stats:?}"
    );
    scheduler.shutdown().unwrap();
}

#[test]
fn backpressure_surfaces_as_retry_after_and_still_completes() {
    // A tiny queue with a lingering worker: the per-connection reader
    // outruns the scheduler, so try_submit refusals must reach the
    // wire as retry-after frames — and the client's transparent
    // retries must still land every request exactly once.
    let scheduler = serving_scheduler(ServeConfig {
        workers: 1,
        max_batch: 4,
        linger: Duration::from_micros(500),
        queue_depth: 1,
    });
    let reference: Vec<ParallelGate> = (0..scheduler.gate_count())
        .map(|i| {
            scheduler
                .gate(scheduler.gate_id(i).unwrap())
                .unwrap()
                .clone()
        })
        .collect();
    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&scheduler),
        NetServerConfig {
            retry_hint: Duration::from_micros(100),
            ..NetServerConfig::default()
        },
    )
    .unwrap();
    let mut client = NetClient::connect_with(
        server.local_addr(),
        NetClientConfig {
            wait_timeout: Duration::from_secs(30),
            ..NetClientConfig::default()
        },
    )
    .unwrap();
    let stream = client_stream(42, 128);
    let requests: Vec<(RemoteGateId, Vec<Word>)> = stream
        .iter()
        .map(|(gate, words)| (RemoteGateId(*gate as u32), words.clone()))
        .collect();
    let outputs = client.eval_many(&requests).unwrap();
    for ((gate, words), output) in stream.iter().zip(&outputs) {
        assert_eq!(
            *output,
            reference[*gate].evaluate(words).unwrap().word(),
            "backpressure retries must not duplicate or reorder results"
        );
    }
    let client_stats = client.stats();
    drop(client);
    let server_stats = server.shutdown();
    assert!(
        server_stats.retry_afters > 0,
        "a depth-1 queue under a pipelined flood must push back: {server_stats:?}"
    );
    assert_eq!(client_stats.retries, server_stats.retry_afters);
    assert_eq!(client_stats.responses, 128);
    let report = Arc::try_unwrap(scheduler).unwrap().shutdown().unwrap();
    assert_eq!(report.stats.completed, 128);
}
