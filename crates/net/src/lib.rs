//! TCP serving front-end for the spin-wave scheduler.
//!
//! The paper's `n`-bit data-parallel gate pays off at scale when many
//! *independent* clients stream operand words into one shared waveguide
//! batch. `magnon-serve` already coalesces in-process traffic; this
//! crate opens [`magnon_serve::Scheduler::submit`] to the network so
//! remote request streams join the same drain cycles:
//!
//! * [`protocol`] — a hand-rolled, versioned, checksummed,
//!   length-prefixed binary frame format (submit / response / error /
//!   retry-after / hello), little-endian with an FNV-1a checksum,
//!   written by hand since the workspace's serde shim is a no-op;
//! * [`NetServer`] — an accept loop plus per-connection reader threads
//!   and writer pumps over plain `std::net` (the container vendors no
//!   tokio/mio); completions are delivered out of order by tag, and
//!   scheduler backpressure ([`magnon_serve::ServeError::QueueFull`])
//!   becomes a retry-after frame instead of a stalled reader;
//! * [`NetClient`] — a blocking client with pipelined submits,
//!   tag-matched waits and transparent bounded retry on backpressure.
//!
//! # Example
//!
//! ```
//! use magnon_core::backend::BackendChoice;
//! use magnon_core::gate::WaveguideId;
//! use magnon_core::word::Word;
//! use magnon_net::{NetClient, NetServer, NetServerConfig};
//! use magnon_physics::waveguide::Waveguide;
//! use magnon_serve::{SchedulerBuilder, ServeConfig};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut builder = SchedulerBuilder::new(ServeConfig::default());
//! builder.register_circuit_gates(
//!     Waveguide::paper_default()?,
//!     WaveguideId(0),
//!     8,
//!     BackendChoice::Cached,
//! )?;
//! let scheduler = Arc::new(builder.build()?);
//! let server = NetServer::bind(
//!     "127.0.0.1:0",
//!     Arc::clone(&scheduler),
//!     NetServerConfig::default(),
//! )?;
//!
//! let mut client = NetClient::connect(server.local_addr())?;
//! let maj3 = client.gate("maj3_w8_wg0").expect("advertised in the hello-ack");
//! let out = client.eval(
//!     maj3,
//!     &[Word::from_u8(0x0F), Word::from_u8(0x33), Word::from_u8(0x55)],
//! )?;
//! assert_eq!(out.to_u8(), 0x17);
//!
//! drop(client);
//! server.shutdown();
//! Arc::try_unwrap(scheduler).expect("no clients left").shutdown()?;
//! # Ok(())
//! # }
//! ```

pub mod client;
pub mod error;
pub mod protocol;
pub mod server;

pub use client::{NetClient, NetClientConfig, NetClientStats, RemoteGateId};
pub use error::{NetError, WireErrorCode};
pub use protocol::{Frame, GateInfo, MAX_FRAME_BYTES, NET_MAGIC, NET_VERSION};
pub use server::{NetServer, NetServerConfig, NetServerStats};
