//! # horus-props
//!
//! The protocol property algebra of the paper's §6 and Tables 3–4: "a
//! formal way to describe what a layer requires from the layers above and
//! below it, and what it guarantees in return".
//!
//! * [`Prop`] / [`PropSet`] — the sixteen properties of Table 4.
//! * [`matrix`] — the requires/inherits/provides matrix of Table 3 (one
//!   [`matrix::LayerMeta`] per layer), with per-layer costs.
//! * [`check`] — stack well-formedness: "a stack is well-formed if, for
//!   each layer, all its required properties are guaranteed by the stack
//!   underneath it", and the derivation of what a well-formed stack
//!   provides.
//! * [`planner`] — the constructive direction: "given a set of network
//!   properties and required properties for an application, it is
//!   possible to figure out if a stack exists that can implement the
//!   requirements.  If we can associate a cost with each of the
//!   properties ... we can even create a minimal stack."  Implemented as
//!   a Dijkstra search over property-set states; an unsatisfiable request
//!   returns an error, the paper's real-time-admission analogy.
//!
//! The matrix is a *reconstruction*: the surviving copy of Table 3 is
//! OCR-degraded, so this crate encodes the coherent matrix documented in
//! DESIGN.md, validated by the one fully-specified derivation in the
//! paper (§7): `TOTAL:MBRSHIP:FRAG:NAK:COM` over a P1 network yields
//! exactly {P3, P4, P6, P8, P9, P10, P11, P12, P15} — see
//! [`check::section7`] and the E3 tests.

#![forbid(unsafe_code)]

pub mod check;
pub mod matrix;
pub mod planner;
pub mod props;

pub use check::{derive_stack, StackError};
pub use matrix::{layer_meta, matrix_names, LayerMeta};
pub use planner::{plan_minimal_stack, PlanError};
pub use props::{Prop, PropSet};
