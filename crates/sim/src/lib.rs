//! # pascal-sim — discrete-event simulation substrate
//!
//! The foundation of the PASCAL reproduction: an exact-integer virtual clock
//! ([`SimTime`], [`SimDuration`]), a deterministic future-event list
//! ([`EventQueue`], a binary heap ordered by `(time, shard, sequence)`), and
//! a seeded random source ([`SimRng`]) with the samplers the paper's
//! workloads need (uniform, normal, log-normal, exponential).
//!
//! Everything above this crate — the GPU performance model, the serving
//! instances, the schedulers and the experiment harness — is deterministic
//! given a trace and a seed, because all nondeterminism is funnelled through
//! these types.
//!
//! # Examples
//!
//! A minimal simulation loop with one scheduling domain (shard 0):
//!
//! ```
//! use pascal_sim::{EventQueue, SimDuration, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev {
//!     Tick(u32),
//! }
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_millis(5), 0, Ev::Tick(0));
//! let mut fired = Vec::new();
//! while let Some((t, _, ev)) = q.pop() {
//!     match ev {
//!         Ev::Tick(n) if n < 3 => {
//!             fired.push(n);
//!             q.schedule(t + SimDuration::from_millis(5), 0, Ev::Tick(n + 1));
//!         }
//!         Ev::Tick(n) => fired.push(n),
//!     }
//! }
//! assert_eq!(fired, vec![0, 1, 2, 3]);
//! assert_eq!(q.now(), SimTime::from_nanos(20_000_000));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod rng;
mod time;

pub use event::EventQueue;
pub use rng::{log_normal_mu_for_mean, SimRng};
pub use time::{SimDuration, SimTime};
