//! The TCP serving front-end over [`magnon_serve::Scheduler`].
//!
//! # Architecture
//!
//! ```text
//!            accept loop (one thread, non-blocking + stop flag)
//!                 │ spawns per connection
//!      ┌──────────┴─────────────┐
//!      ▼                        ▼
//!  reader thread            writer pump (one per connection)
//!  read_frame →             owns the outbound half: answers arrive
//!  Scheduler::try_submit →  out of order by tag as tickets complete
//!  ticket to writer pump    (Ticket::try_wait poll + per-ticket
//!                           deadline — never parks forever on a
//!                           lost completion)
//! ```
//!
//! Backpressure: the reader uses [`Scheduler::try_submit`], so a full
//! shard queue becomes a [`Frame::RetryAfter`] on the wire instead of a
//! blocked reader — the client re-submits after the hint and the TCP
//! connection keeps draining completions the whole time.
//!
//! Failure isolation: a malformed frame, a bad hello or a version
//! mismatch draws one diagnostic [`Frame::Error`] and closes *that*
//! connection; the listener and every other connection keep serving.

use crate::error::{NetError, WireErrorCode};
use crate::protocol::{write_frame, Frame, FrameReader, GateInfo, NET_VERSION};
use magnon_core::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use magnon_core::sync::mpsc::{self, RecvTimeoutError};
use magnon_core::sync::thread::{self, JoinHandle};
use magnon_core::sync::time::{Duration, Instant};
use magnon_core::sync::{Arc, Mutex};
use magnon_serve::{Scheduler, ServeError, Ticket};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// How long the writer pump waits for a submitted request's
    /// completion before answering a timeout error — the bound that
    /// keeps a lost completion from wedging the connection.
    pub completion_timeout: Duration,
    /// Backoff hint carried on retry-after frames.
    pub retry_hint: Duration,
    /// Writer-pump poll cadence while completions are pending. On Linux
    /// the real cadence is the interval plus the thread's timer slack
    /// (50 µs by default; ~157 µs at 100 µs).
    pub poll_interval: Duration,
    /// Socket read timeout on connection readers, so they notice the
    /// stop flag while idle.
    pub read_timeout: Duration,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            completion_timeout: Duration::from_secs(5),
            retry_hint: Duration::from_micros(200),
            poll_interval: Duration::from_micros(100),
            read_timeout: Duration::from_millis(25),
        }
    }
}

/// Lock-free counters shared by all connection threads.
#[derive(Debug, Default)]
struct SharedNetStats {
    connections_accepted: AtomicU64,
    connections_rejected: AtomicU64,
    submits: AtomicU64,
    responses: AtomicU64,
    retry_afters: AtomicU64,
    request_errors: AtomicU64,
    timeouts: AtomicU64,
}

/// A point-in-time snapshot of the server's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetServerStats {
    /// Connections that completed the hello handshake.
    pub connections_accepted: u64,
    /// Connections dropped for a bad hello, version mismatch or a
    /// framing violation mid-stream.
    pub connections_rejected: u64,
    /// Submit frames decoded.
    pub submits: u64,
    /// Response frames written.
    pub responses: u64,
    /// Retry-after frames written (scheduler backpressure reaching the
    /// wire).
    pub retry_afters: u64,
    /// Error frames written for per-request failures.
    pub request_errors: u64,
    /// Completions that missed the writer pump's deadline.
    pub timeouts: u64,
}

impl SharedNetStats {
    fn snapshot(&self) -> NetServerStats {
        NetServerStats {
            // ordering: Relaxed throughout — point-in-time stats
            // snapshot; each counter is read independently, nothing
            // synchronizes through them.
            connections_accepted: self.connections_accepted.load(Ordering::Relaxed),
            connections_rejected: self.connections_rejected.load(Ordering::Relaxed),
            submits: self.submits.load(Ordering::Relaxed),
            responses: self.responses.load(Ordering::Relaxed),
            retry_afters: self.retry_afters.load(Ordering::Relaxed),
            request_errors: self.request_errors.load(Ordering::Relaxed),
            // ordering: Relaxed — same snapshot contract as above.
            timeouts: self.timeouts.load(Ordering::Relaxed),
        }
    }
}

/// Bound of the per-connection reader → writer-pump queue. When a
/// client stops reading its responses the pump stalls, this fills, and
/// the reader blocks instead of buffering unboundedly.
const OUTBOUND_QUEUE_DEPTH: usize = 1024;

/// A submitted request awaiting its completion in the writer pump.
struct PendingReply {
    tag: u64,
    ticket: Ticket,
    deadline: Instant,
}

/// What the reader hands the writer pump.
enum Outbound {
    /// Write this frame now (retry-after, immediate errors).
    Ready(Frame),
    /// A submitted request: deliver its completion when it lands.
    Pending(PendingReply),
}

/// The running TCP front-end. Bind with [`NetServer::bind`], stop with
/// [`NetServer::shutdown`] (dropping also stops it, less gracefully).
///
/// The server shares the scheduler through an [`Arc`]: shut the server
/// down first, then recover the scheduler (e.g. via
/// [`Arc::try_unwrap`]) for its joining shutdown.
pub struct NetServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
    stats: Arc<SharedNetStats>,
}

impl NetServer {
    /// Binds `addr` (use port 0 for an ephemeral port — see
    /// [`NetServer::local_addr`]) and starts the accept loop over
    /// `scheduler`.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] when binding or configuring the listener fails.
    pub fn bind(
        addr: impl ToSocketAddrs,
        scheduler: Arc<Scheduler>,
        config: NetServerConfig,
    ) -> Result<Self, NetError> {
        let listener = TcpListener::bind(addr).map_err(|e| NetError::io("bind listener", e))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| NetError::io("read bound address", e))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| NetError::io("configure listener", e))?;
        let stop = Arc::new(AtomicBool::new(false));
        let connections: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let stats = Arc::new(SharedNetStats::default());
        // The gate directory is immutable after the scheduler builds:
        // encode the hello-ack once and every handshake just writes the
        // bytes.
        let gates: Vec<GateInfo> = (0..scheduler.gate_count())
            .map(|index| {
                let id = scheduler.gate_id(index).expect("index < gate_count");
                let gate = scheduler.gate(id).expect("registered gate");
                GateInfo {
                    name: scheduler.gate_name(id).unwrap_or("?").to_string(),
                    input_count: gate.input_count() as u8,
                    word_width: gate.word_width() as u8,
                    waveguide: gate.waveguide_id().0,
                    lane: gate.lane_id().0,
                }
            })
            .collect();
        let hello_ack: Arc<Vec<u8>> = Arc::new(
            Frame::HelloAck {
                version: NET_VERSION,
                gates,
            }
            .encode(),
        );
        let accept_handle = {
            let stop = Arc::clone(&stop);
            let connections = Arc::clone(&connections);
            let stats = Arc::clone(&stats);
            thread::Builder::new()
                .name("magnon-net-accept".into())
                .spawn(move || {
                    accept_loop(
                        listener,
                        scheduler,
                        config,
                        hello_ack,
                        stop,
                        connections,
                        stats,
                    )
                })
                .map_err(|e| NetError::io("spawn accept thread", std::io::Error::other(e)))?
        };
        Ok(NetServer {
            local_addr,
            stop,
            accept_handle: Some(accept_handle),
            connections,
            stats,
        })
    }

    /// The address the listener actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> NetServerStats {
        self.stats.snapshot()
    }

    /// Stops accepting, waits for every connection to finish its
    /// in-flight work, and returns the final counters.
    pub fn shutdown(mut self) -> NetServerStats {
        self.stop_and_join();
        self.stats.snapshot()
    }

    fn stop_and_join(&mut self) {
        // ordering: Release pairs with the Acquire loads in the accept
        // and reader loops; whatever the closer wrote before stopping
        // is visible to a thread that observes the flag.
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        let handles =
            std::mem::take(&mut *self.connections.lock().unwrap_or_else(|e| e.into_inner()));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("local_addr", &self.local_addr)
            .field("stats", &self.stats.snapshot())
            .finish()
    }
}

fn accept_loop(
    listener: TcpListener,
    scheduler: Arc<Scheduler>,
    config: NetServerConfig,
    hello_ack: Arc<Vec<u8>>,
    stop: Arc<AtomicBool>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
    stats: Arc<SharedNetStats>,
) {
    let mut next_conn = 0u64;
    // ordering: Acquire pairs with the Release store in stop_and_join.
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let scheduler = Arc::clone(&scheduler);
                let config = config.clone();
                let hello_ack = Arc::clone(&hello_ack);
                let stop = Arc::clone(&stop);
                let stats = Arc::clone(&stats);
                let conn_id = next_conn;
                next_conn += 1;
                let handle = thread::Builder::new()
                    .name(format!("magnon-net-conn-{conn_id}"))
                    .spawn(move || {
                        serve_connection(stream, scheduler, config, hello_ack, stop, stats)
                    });
                // Reap finished connections as churn comes in, so a
                // long-running server does not accumulate one dead
                // JoinHandle per client it ever served. The handles are
                // collected under the registry lock but joined after it
                // is released: join() can block on a connection that is
                // mid-teardown, and holding `conn_registry` there would
                // stall shutdown's take() behind an arbitrary client.
                let finished = {
                    let mut registry = connections.lock().unwrap_or_else(|e| e.into_inner());
                    let finished = reap_finished(&mut registry);
                    // A spawn failure (out of threads) simply sheds the
                    // connection: the stream moved into the closure
                    // either way and drops with the failed builder.
                    if let Ok(handle) = handle {
                        registry.push(handle);
                    }
                    finished
                };
                for handle in finished {
                    let _ = handle.join();
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_micros(500));
            }
            Err(_) => thread::sleep(Duration::from_millis(1)),
        }
    }
}

/// Removes every finished connection handle from the registry and
/// returns them for the caller to join. Joining must happen *after*
/// the registry guard is dropped — `join()` blocks on the connection
/// thread's teardown, and holding the registry lock there would stall
/// every new accept and the shutdown path behind one slow client. The
/// lock-order pass (`cargo run -p magnon-analyze`) enforces that split;
/// `magnon-check`'s `net_reap_outside_lock` scenario exercises it.
pub fn reap_finished(registry: &mut Vec<JoinHandle<()>>) -> Vec<JoinHandle<()>> {
    let mut finished = Vec::new();
    let mut i = 0;
    while i < registry.len() {
        if registry[i].is_finished() {
            finished.push(registry.swap_remove(i));
        } else {
            i += 1;
        }
    }
    finished
}

/// `true` for the error kinds a socket read timeout produces.
fn is_timeout(e: &NetError) -> bool {
    matches!(
        e,
        NetError::Io { source, .. } if matches!(
            source.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        )
    )
}

/// `true` when the peer closed the socket cleanly (EOF at a frame
/// boundary).
fn is_eof(e: &NetError) -> bool {
    matches!(
        e,
        NetError::Io { source, .. } if source.kind() == std::io::ErrorKind::UnexpectedEof
    )
}

fn serve_connection(
    mut stream: TcpStream,
    scheduler: Arc<Scheduler>,
    config: NetServerConfig,
    hello_ack: Arc<Vec<u8>>,
    stop: Arc<AtomicBool>,
    stats: Arc<SharedNetStats>,
) {
    let _ = stream.set_nodelay(true);
    // The read timeout doubles as the stop-flag poll cadence. A timeout
    // that fires mid-frame is harmless: the FrameReader buffers
    // partial frames, so the next call resumes where the bytes
    // stopped. The write timeout bounds how long a stuck client (one
    // that stops reading its responses) can park the writer pump.
    let _ = stream.set_read_timeout(Some(config.read_timeout));
    let _ = stream.set_write_timeout(Some(config.completion_timeout));
    let mut frames = FrameReader::new();

    // Handshake: first frame must be a version-matched hello.
    let hello = loop {
        // ordering: Acquire pairs with the Release in stop_and_join.
        if stop.load(Ordering::Acquire) {
            return;
        }
        match frames.read_frame(&mut stream) {
            Ok(frame) => break frame,
            Err(ref e) if is_timeout(e) => {}
            Err(ref e) if is_eof(e) => return, // probe connect, no bytes
            Err(e) => {
                // ordering: Relaxed — monotonic stat counter.
                stats.connections_rejected.fetch_add(1, Ordering::Relaxed);
                reject(&mut stream, format!("handshake failed: {e}"));
                return;
            }
        }
    };
    match hello {
        Frame::Hello { version } if version == NET_VERSION => {}
        Frame::Hello { version } => {
            // ordering: Relaxed — monotonic stat counter.
            stats.connections_rejected.fetch_add(1, Ordering::Relaxed);
            reject(
                &mut stream,
                format!("unsupported protocol version {version} (server speaks {NET_VERSION})"),
            );
            return;
        }
        other => {
            // ordering: Relaxed — monotonic stat counter.
            stats.connections_rejected.fetch_add(1, Ordering::Relaxed);
            reject(
                &mut stream,
                format!("expected a hello frame, got {other:?}"),
            );
            return;
        }
    }
    // The directory was encoded once at bind time.
    if stream.write_all(&hello_ack).is_err() {
        return;
    }
    // ordering: Relaxed — monotonic stat counter.
    stats.connections_accepted.fetch_add(1, Ordering::Relaxed);

    // Split the connection: this thread keeps reading, a writer pump
    // owns the outbound half and delivers completions by tag.
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    // Bounded: a client that submits without ever reading its
    // responses blocks the reader here (natural TCP backpressure —
    // we stop reading from it) instead of growing server memory
    // without limit. The pump's socket write timeout bounds the worst
    // case before the channel disconnects and unblocks the reader.
    let (out_tx, out_rx) = mpsc::sync_channel::<Outbound>(OUTBOUND_QUEUE_DEPTH);
    let pump = {
        let stats = Arc::clone(&stats);
        let config = config.clone();
        thread::Builder::new()
            .name("magnon-net-writer".into())
            .spawn(move || writer_pump(write_half, out_rx, config, stats))
    };

    // Reader loop: decode submits, route backpressure to the wire.
    // The stop flag is checked once per frame as well as on idle
    // timeouts, so shutdown is not held hostage by a client that keeps
    // frames flowing.
    loop {
        // ordering: Acquire pairs with the Release in stop_and_join.
        if stop.load(Ordering::Acquire) {
            break;
        }
        let frame = match frames.read_frame(&mut stream) {
            Ok(frame) => frame,
            Err(ref e) if is_timeout(e) => continue,
            // A clean close at a frame boundary; an EOF mid-frame is a
            // Protocol error (truncated frame) and takes the arm below.
            Err(ref e) if is_eof(e) => break,
            Err(e) => {
                // Framing is lost: one diagnostic, then close. The
                // listener and other connections are unaffected.
                // ordering: Relaxed — monotonic stat counter.
                stats.connections_rejected.fetch_add(1, Ordering::Relaxed);
                let _ = out_tx.send(Outbound::Ready(Frame::Error {
                    tag: 0,
                    code: WireErrorCode::Protocol,
                    message: e.to_string(),
                }));
                break;
            }
        };
        let Frame::Submit {
            tag,
            gate,
            lane,
            operands,
        } = frame
        else {
            // ordering: Relaxed — monotonic stat counter.
            stats.connections_rejected.fetch_add(1, Ordering::Relaxed);
            let _ = out_tx.send(Outbound::Ready(Frame::Error {
                tag: 0,
                code: WireErrorCode::Protocol,
                message: "only submit frames are valid after the handshake".into(),
            }));
            break;
        };
        // ordering: Relaxed — monotonic stat counters (here and the
        // error bump below); the scheduler channel is the handoff.
        stats.submits.fetch_add(1, Ordering::Relaxed);
        let Some(id) = scheduler.gate_id(gate as usize) else {
            stats.request_errors.fetch_add(1, Ordering::Relaxed);
            let _ = out_tx.send(Outbound::Ready(Frame::Error {
                tag,
                code: WireErrorCode::UnknownGate,
                message: format!("gate index {gate} is not in the directory"),
            }));
            continue;
        };
        // A lane-pinned submit (v2) only serves when the directory slot
        // still occupies that frequency lane.
        if let Some(expected) = lane {
            let actual = scheduler.gate(id).map(|g| g.lane_id().0);
            if actual != Some(expected) {
                // ordering: Relaxed — monotonic stat counter.
                stats.request_errors.fetch_add(1, Ordering::Relaxed);
                let _ = out_tx.send(Outbound::Ready(Frame::Error {
                    tag,
                    code: WireErrorCode::LaneMismatch,
                    message: format!(
                        "gate {gate} rides lane {}, not the pinned lane {expected}",
                        actual.unwrap_or_default()
                    ),
                }));
                continue;
            }
        }
        match scheduler.try_submit(id, magnon_core::backend::OperandSet::new(operands)) {
            Ok(ticket) => {
                let pending = Outbound::Pending(PendingReply {
                    tag,
                    ticket,
                    deadline: Instant::now() + config.completion_timeout,
                });
                if out_tx.send(pending).is_err() {
                    break; // writer died (client hung up)
                }
            }
            Err(ServeError::QueueFull { shard }) => {
                // ordering: Relaxed — monotonic stat counter.
                stats.retry_afters.fetch_add(1, Ordering::Relaxed);
                let _ = out_tx.send(Outbound::Ready(Frame::RetryAfter {
                    tag,
                    shard: shard as u32,
                    hint: config.retry_hint,
                }));
            }
            Err(ServeError::Shutdown) => {
                // ordering: Relaxed — monotonic stat counter.
                stats.request_errors.fetch_add(1, Ordering::Relaxed);
                let _ = out_tx.send(Outbound::Ready(Frame::Error {
                    tag,
                    code: WireErrorCode::Shutdown,
                    message: "the serving runtime has shut down".into(),
                }));
                break;
            }
            Err(e) => {
                // ordering: Relaxed — monotonic stat counter.
                stats.request_errors.fetch_add(1, Ordering::Relaxed);
                let _ = out_tx.send(Outbound::Ready(Frame::Error {
                    tag,
                    code: WireErrorCode::Gate,
                    message: e.to_string(),
                }));
            }
        }
    }
    // Closing the channel lets the pump drain its pendings and exit.
    drop(out_tx);
    if let Ok(handle) = pump {
        let _ = handle.join();
    }
}

/// Best-effort diagnostic before closing a rejected connection.
fn reject(stream: &mut TcpStream, message: String) {
    let _ = write_frame(
        stream,
        &Frame::Error {
            tag: 0,
            code: WireErrorCode::Protocol,
            message,
        },
    );
    let _ = stream.flush();
}

/// The per-connection writer pump: delivers completions out of order
/// by tag as their tickets resolve, bounded by per-ticket deadlines so
/// a lost completion can never park the pump forever.
fn writer_pump(
    stream: TcpStream,
    rx: mpsc::Receiver<Outbound>,
    config: NetServerConfig,
    stats: Arc<SharedNetStats>,
) {
    // Buffer the outbound half: a sweep answering N tickets becomes
    // one syscall (and, with nodelay set, one segment) at the
    // per-iteration flush instead of N.
    let mut stream = std::io::BufWriter::new(stream);
    let mut pending: Vec<PendingReply> = Vec::new();
    let mut reader_gone = false;
    'pump: loop {
        if reader_gone {
            // No more inbound work can arrive: just pace the sweep.
            // (recv_timeout on a disconnected channel returns
            // immediately — polling it here would busy-spin and starve
            // the workers producing the very completions we wait for.)
            thread::sleep(config.poll_interval);
        } else {
            // Pull new work. With nothing pending we can block until
            // the reader sends more; otherwise poll so completions
            // keep moving.
            let first = if pending.is_empty() {
                rx.recv().map_err(|_| RecvTimeoutError::Disconnected)
            } else {
                rx.recv_timeout(config.poll_interval)
            };
            match first {
                Ok(msg) => {
                    let mut queue = vec![msg];
                    while let Ok(more) = rx.try_recv() {
                        queue.push(more);
                    }
                    for msg in queue {
                        match msg {
                            Outbound::Ready(frame) => {
                                if write_frame(&mut stream, &frame).is_err() {
                                    break 'pump;
                                }
                            }
                            Outbound::Pending(reply) => pending.push(reply),
                        }
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    if pending.is_empty() {
                        break;
                    }
                    reader_gone = true;
                }
            }
        }
        // Sweep: answer every resolved ticket, time out the expired.
        let now = Instant::now();
        let mut write_failed = false;
        pending.retain(|entry| {
            if write_failed {
                return false;
            }
            let frame = match entry.ticket.try_wait() {
                Ok(None) => {
                    if now < entry.deadline {
                        return true; // still in flight
                    }
                    // ordering: Relaxed — monotonic stat counters
                    // (these and the arms below); the ticket channel
                    // already delivered the result.
                    stats.timeouts.fetch_add(1, Ordering::Relaxed);
                    Frame::Error {
                        tag: entry.tag,
                        code: WireErrorCode::Timeout,
                        message: format!("no completion within {:?}", config.completion_timeout),
                    }
                }
                Ok(Some(output)) => {
                    // ordering: Relaxed — monotonic stat counter.
                    stats.responses.fetch_add(1, Ordering::Relaxed);
                    Frame::Response {
                        tag: entry.tag,
                        word: output.word(),
                    }
                }
                Err(ServeError::Gate(e)) => {
                    // ordering: Relaxed — monotonic stat counter.
                    stats.request_errors.fetch_add(1, Ordering::Relaxed);
                    Frame::Error {
                        tag: entry.tag,
                        code: WireErrorCode::Gate,
                        message: e.to_string(),
                    }
                }
                Err(_) => {
                    // ordering: Relaxed — monotonic stat counter.
                    stats.request_errors.fetch_add(1, Ordering::Relaxed);
                    Frame::Error {
                        tag: entry.tag,
                        code: WireErrorCode::Shutdown,
                        message: "the worker owning this request went away".into(),
                    }
                }
            };
            write_failed = write_frame(&mut stream, &frame).is_err();
            false
        });
        if write_failed {
            break;
        }
        let _ = stream.flush();
        if reader_gone && pending.is_empty() {
            break;
        }
    }
    let _ = stream.flush();
}
