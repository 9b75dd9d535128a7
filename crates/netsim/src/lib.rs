//! # netsim — a deterministic simulated IPv4 internet
//!
//! This crate is the measurement substrate for the Hobbit reproduction
//! (Lee & Spring, *Identifying and Aggregating Homogeneous IPv4 /24 Blocks
//! with Hobbit*, IMC 2016). The paper probes the live internet from a
//! vantage point at UMD; this crate replaces the live internet with a
//! synthetic one that produces the same *observable* phenomena:
//!
//! * longest-prefix-match route tables whose entries are hierarchical
//!   (pairwise disjoint or nested) — the invariant Hobbit exploits;
//! * ECMP load balancing — per-flow, per-destination, per-source/dest and
//!   per-packet — that makes naive route comparison useless;
//! * ICMP semantics: echo request/reply with OS default TTLs, Time Exceeded
//!   from routers (or silence: anonymous routers, rate limiting);
//! * host populations with density, availability churn, and latency
//!   personalities (including cellular radio wake-up delays).
//!
//! The only interface measurement code gets is [`topology::Network::exchange`]
//! (or its `Bytes` wrapper [`topology::Network::send`]): ICMP bytes in,
//! optional ICMP bytes out, plus an RTT — the same information a raw socket
//! would give a real prober. Scenario builders in
//! [`build`] additionally return ground truth so tests can score inferences.
//!
//! ```
//! use netsim::build::{build, ScenarioConfig};
//! use netsim::forward::encode_probe;
//!
//! let mut scenario = build(ScenarioConfig::tiny(42));
//! let vantage = scenario.network.vantage_addr();
//! let dst = scenario.network.allocated_blocks()[0].addr(10);
//! let probe = encode_probe(vantage, dst, 64, 1, 1, 0xBEEF, 0);
//! let outcome = scenario.network.send(probe).unwrap();
//! // `outcome.response` is an echo reply, a Time Exceeded, or None.
//! ```

#![warn(missing_docs)]

pub mod addr;
pub mod build;
pub mod concurrent;
pub mod dynamics;
pub mod fault;
pub mod forward;
pub mod hash;
pub mod host;
mod plane;
pub mod roster;
pub mod route;
pub mod rtt;
pub mod stats;
pub mod topology;
pub mod wire;

pub use addr::{Addr, Block24, Prefix};
pub use build::{build, try_build, BuildError, GroundTruth, Scenario, ScenarioConfig};
pub use concurrent::WarmedSet;
pub use dynamics::{DynamicsConfig, DynamicsEvent, NetemSpec};
pub use fault::{FaultConfig, NetworkStats, SilenceStats};
pub use forward::{
    encode_probe, probe_packet, Delivery, Packet, Reply, SendError, PROBE_LEN, TIMEOUT_US,
};
pub use host::{HostKind, HostProfile};
pub use route::{LbPolicy, RouterId};
pub use topology::Network;
