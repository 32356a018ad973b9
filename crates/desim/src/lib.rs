//! Deterministic discrete-event simulation kernel.
//!
//! The IC-Cache evaluation replays request traces against a simulated GPU
//! cluster (`ic-serving`). This crate provides the timing substrate: a
//! microsecond-resolution simulated clock ([`SimTime`] / [`SimDuration`])
//! and a deterministic event queue ([`Simulator`]) with stable FIFO ordering
//! for simultaneous events, so that a given seed always produces an
//! identical execution.
//!
//! The serving layer runs on this kernel at iteration (token-step)
//! granularity: each busy model pool has exactly one pending step
//! boundary, whose handling advances the pool's running batch by one
//! token step and arms the next one — queued as an event
//! (`ic_serving::ClusterSim`) or held outside the queue under a
//! reserved sequence number ([`Simulator::reserve_seq`],
//! [`Simulator::peek_key`]; `ic-engine`). Events are scheduled in
//! whole microseconds ([`SimTime::from_secs_f64`] rounds), which keeps
//! long event chains — hundreds of thousands of token steps — exactly
//! reproducible across runs and platforms.
//!
//! The kernel is deliberately minimal — events are plain values handed back
//! to a caller-supplied handler — which keeps the serving simulator easy to
//! audit and keeps this crate free of `unsafe` and of any dependency.
//!
//! # Examples
//!
//! ```
//! use ic_desim::{SimTime, Simulator};
//!
//! let mut sim: Simulator<&str> = Simulator::new();
//! sim.schedule(SimTime::from_secs_f64(1.0), "first");
//! sim.schedule(SimTime::from_secs_f64(0.5), "earlier");
//!
//! let mut order = Vec::new();
//! sim.run(|_, ev| order.push(ev));
//! assert_eq!(order, ["earlier", "first"]);
//! ```

pub mod periodic;
pub mod sim;
pub mod time;

pub use periodic::Periodic;
pub use sim::Simulator;
pub use time::{SimDuration, SimTime};
