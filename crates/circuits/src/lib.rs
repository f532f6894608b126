//! Word-level circuits composed from data-parallel spin-wave gates.
//!
//! The paper's paradigm processes `n` independent data sets per gate.
//! This crate scales that from one gate to circuits: every wire carries
//! an `n`-bit [`Word`](magnon_core::word::Word) (one bit per frequency
//! channel), and every gate is a data-parallel majority or XOR. A
//! W-bit ripple-carry adder built this way adds `n` *pairs of numbers*
//! simultaneously with zero hardware replication — the circuit-level
//! payoff of the paper's Fig. 1.
//!
//! * [`netlist`] — a small word-level netlist with topological
//!   evaluation; its [`netlist::GateBank`] routes every MAJ/XOR node
//!   through a physical spin-wave gate on any
//!   [`magnon_core::backend::SpinWaveBackend`] (analytic, truth table,
//!   or full LLG), switchable with one
//!   [`magnon_core::backend::BackendChoice`] argument,
//! * [`adder`] — full adders and ripple-carry adders (MAJ for carry,
//!   XOR for sum, exactly the magnonic-logic textbook construction),
//! * [`parity`] — XOR reduction trees,
//! * [`cost`] — circuit-level area roll-up on top of `magnon-cost`.
//!
//! # Examples
//!
//! Add eight pairs of 4-bit numbers at once:
//!
//! ```
//! use magnon_circuits::adder::RippleCarryAdder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let adder = RippleCarryAdder::new(4, 8)?;
//! let a = [1u64, 2, 3, 4, 5, 6, 7, 8];
//! let b = [8u64, 7, 6, 5, 4, 3, 2, 1];
//! let sums = adder.add_many(&a, &b)?;
//! assert!(sums.iter().all(|&s| s == 9));
//! # Ok(())
//! # }
//! ```

pub mod adder;
pub mod alu;
pub mod cost;
pub mod netlist;
pub mod parity;
