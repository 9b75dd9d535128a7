//! # probe — measurement tools over the simulated internet
//!
//! Implements the probing machinery the Hobbit paper builds on, driven
//! against [`netsim`]'s wire-level interface:
//!
//! * [`zmap`] — an internet-wide ICMP echo scan producing the active-address
//!   snapshot Hobbit selects destinations from;
//! * [`ping`] — RTT series (the Section 5.2 cellular wake-up test);
//! * [`traceroute`] — Paris traceroute: fixed flow identifiers defeat
//!   per-flow load balancing;
//! * [`mda`] — the Multipath Detection Algorithm with its hypothesis-test
//!   stopping rule (`n(1) = 6` probes for 95% single-interface confidence);
//!   [`enumerate_hop`] is the one node-level loop, classic or MDA-Lite;
//! * [`lasthop`] — the Section 3.4 efficient last-hop prober: a
//!   [`LasthopWalker`] walks one /24's destinations, inferring the first
//!   hop count from the reply TTL (with the halving fallback) and seeding
//!   the rest of the block with it.

#![warn(missing_docs)]

pub mod cancel;
pub mod error;
pub mod lasthop;
pub mod mda;
pub mod ping;
pub mod prober;
pub mod traceroute;
pub mod types;
pub mod zmap;

pub use cancel::CancelToken;
pub use error::ProbeError;
pub use lasthop::{LasthopOutcome, LasthopProbe, LasthopWalker};
pub use mda::{
    detect_diamonds, enumerate_hop, enumerate_paths, Diamond, MdaLiteState, MdaMode, MdaPaths,
    StoppingRule,
};
pub use ping::{ping_series, PingSeries};
pub use prober::{backoff_delay, ProbeLedger, ProbeObs, ProbeReply, ProbeResult, Prober};
pub use traceroute::{paris_traceroute, Traceroute};
pub use types::{route_sets_identical, Hop, Path};
pub use zmap::{scan, scan_all, ZmapSnapshot};
