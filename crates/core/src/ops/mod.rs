//! Availability-based management operations over the AVMEM overlay
//! (§3.2 of the paper): threshold-/range-anycast and
//! threshold-/range-multicast.
//!
//! * [`target`] — the availability region an operation addresses;
//! * [`world`] — the read-only system interface operations execute
//!   against;
//! * [`anycast`] — greedy / retried-greedy / simulated-annealing
//!   forwarding (§3.2-I);
//! * [`multicast`] — two-stage multicast: anycast into the range, then
//!   flooding or gossip within it (§3.2-II).

pub mod anycast;
pub mod multicast;
#[cfg(test)]
mod reference;
pub mod target;
pub mod world;

pub use anycast::{run_anycast, AnycastConfig, AnycastDrop, AnycastOutcome, ForwardPolicy};
pub use multicast::{run_multicast, MulticastConfig, MulticastOutcome, MulticastStrategy};
pub use target::AvailabilityTarget;
pub use world::OverlayWorld;
