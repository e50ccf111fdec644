//! # horus
//!
//! A from-scratch Rust reproduction of *"A Framework for Protocol
//! Composition in Horus"* (van Renesse, Birman, Friedman, Hayden, Karr —
//! PODC 1995): protocols as stackable abstract data types, the Horus
//! Common Protocol Interface, a thirty-odd-layer protocol library,
//! virtually synchronous process groups, and the Table 3/4 property
//! algebra with automatic minimal-stack construction.
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`horus_core`] | endpoints, views, messages (aligned & compact headers), HCPI events, the [`horus_core::Layer`] trait, the stack runtime |
//! | [`horus_net`] | deterministic simulated network; in-process threaded transport |
//! | [`horus_layers`] | the layer library: COM, NAK, FRAG, MBRSHIP, TOTAL, CAUSAL, SAFE, STABLE, PINWHEEL, MERGE, BMS/VSS/FLUSH, reference twins, the Figure 1 utility catalogue, and the run-time [`horus_layers::registry`] |
//! | [`horus_props`] | Table 3/4 property algebra, well-formedness checking, minimal-stack planning |
//! | [`horus_sim`] | discrete-event world, virtual-synchrony invariant checkers, workloads, the real-time shard executor |
//!
//! ## Quickstart
//!
//! ```
//! use horus::prelude::*;
//! use horus::layers::registry::build_stack;
//! use horus::sim::SimWorld;
//! use horus_net::NetConfig;
//! use std::time::Duration;
//!
//! let mut world = SimWorld::new(42, NetConfig::reliable());
//! for i in 1..=3 {
//!     let ep = EndpointAddr::new(i);
//!     let stack = build_stack(
//!         ep,
//!         "TOTAL:MBRSHIP:FRAG:NAK:COM(promiscuous=true)",
//!         StackConfig::default(),
//!     )?;
//!     world.add_endpoint(stack);
//!     world.join(ep, GroupAddr::new(1));
//! }
//! for i in 2..=3 {
//!     world.down(EndpointAddr::new(i), Down::Merge { contact: EndpointAddr::new(1) });
//! }
//! world.run_for(Duration::from_secs(2));
//! world.cast_bytes(EndpointAddr::new(1), &b"hello group"[..]);
//! world.run_for(Duration::from_millis(100));
//! assert_eq!(world.delivered_casts(EndpointAddr::new(3)).len(), 1);
//! # Ok::<(), HorusError>(())
//! ```

#![forbid(unsafe_code)]

pub use horus_core as core;
pub use horus_layers as layers;
pub use horus_net as net;
pub use horus_props as props;
pub use horus_sim as sim;
pub use horus_trace as trace;

pub mod socket;

/// One-stop imports for applications.
pub mod prelude {
    pub use horus_core::prelude::*;
}
