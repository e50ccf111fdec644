//! # horus-layers
//!
//! The Horus protocol-layer library: every layer named in the paper's
//! Table 3, the §5 membership protocol, the §7 example stack, reference
//! implementations (§8), and a catalogue of utility layers from Figure 1.
//!
//! All layers implement [`horus_core::Layer`] and speak only the HCPI, so
//! they can be stacked in any order at run time (subject to the property
//! requirements checked by `horus-props`).  The canonical composition from
//! §7 of the paper is
//!
//! ```text
//! TOTAL : MBRSHIP : FRAG : NAK : COM          (over a best-effort network)
//! ```
//!
//! built either programmatically or from that very string via
//! [`registry::build_stack`]:
//!
//! ```
//! use horus_layers::registry;
//! use horus_core::prelude::*;
//!
//! let stack = registry::build_stack(
//!     EndpointAddr::new(1),
//!     "TOTAL:MBRSHIP:FRAG:NAK:COM",
//!     StackConfig::default(),
//! )?;
//! assert_eq!(stack.layer_names(), vec!["TOTAL", "MBRSHIP", "FRAG", "NAK", "COM"]);
//! # Ok::<(), HorusError>(())
//! ```
//!
//! ## Layer inventory
//!
//! | module | layers | paper |
//! |---|---|---|
//! | [`com`] | COM | §7 bottom adapter |
//! | [`nak`] | NAK | §7 FIFO via negative acks |
//! | [`fd`] | FD | §5 adaptive heartbeat failure detector |
//! | [`nnak`] | NNAK | Table 3, prioritized unicast FIFO |
//! | [`frag`] | FRAG, NFRAG | §7 fragmentation |
//! | [`pack`] | PACK | §10 message packing |
//! | [`mbrship`] | MBRSHIP | §5 membership/flush |
//! | [`membership_parts`] | BMS, VSS, FLUSH | §6/§8 reference decomposition |
//! | [`total`] | TOTAL | §7 token total order |
//! | [`causal`] | TS, CAUSAL | Table 3 causal order |
//! | [`safe`] | SAFE | Table 3 safe (stable) delivery |
//! | [`stable`] | STABLE | §9 stability matrix |
//! | [`pinwheel`] | PINWHEEL | §10 rotating stability token |
//! | [`merge`] | MERGE | §5/§9 automatic view merging |
//! | [`mod@reference`] | NAK_REF, TOTAL_REF | §8 reference implementations |
//! | [`util`] | CHKSUM, SIGN, ENCRYPT, COMPRESS, FLOW, TRACE, ACCT, LOGGER, RATE, PRIO, DROP, NOP, SEQNO | Figure 1 catalogue |

#![forbid(unsafe_code)]

pub mod causal;
pub mod com;
pub mod fd;
pub mod frag;
pub mod mbrship;
pub mod membership_parts;
pub mod merge;
pub mod nak;
pub mod nnak;
pub mod pack;
pub mod pinwheel;
pub mod reference;
pub mod registry;
pub mod safe;
pub mod services;
pub mod stable;
pub mod total;
pub mod util;

pub use com::Com;
pub use fd::Fd;
pub use frag::{Frag, NFrag};
pub use mbrship::{Mbrship, MbrshipConfig};
pub use nak::{Nak, NakConfig};
pub use pack::Pack;
pub use registry::{build_stack, parse_stack};
pub use total::Total;
