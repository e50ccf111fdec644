//! Run-time protocol composition: the layer registry and the stack-string
//! parser.
//!
//! "When creating an endpoint, a process describes, **at run-time**, what
//! stack of protocols it needs" (§4) — unlike the x-kernel, where
//! "configuration is done at compile-time, not at run-time" (§12).  A
//! stack description is a colon-separated list of layer names, top first,
//! optionally parameterized:
//!
//! ```text
//! TOTAL:MBRSHIP:FRAG(size=512):NAK(window=64):COM
//! ```
//!
//! The registry holds "a library of about thirty different protocols, each
//! providing a particular communication feature" (§1) — 37 layer
//! types in this reproduction; [`layer_names`] enumerates them.
//!
//! The parameter vocabulary is closed: a key its layer does not read, or a
//! key given twice, is an error rather than a silently ignored typo.

use crate::causal::{Causal, Ts};
use crate::com::Com;
use crate::fd::Fd;
use crate::frag::{Frag, NFrag};
use crate::mbrship::{Mbrship, MbrshipConfig};
use crate::membership_parts::{Bms, FlushLayer, Vss};
use crate::merge::Merge;
use crate::nak::{Nak, NakConfig};
use crate::nnak::Nnak;
use crate::pack::Pack;
use crate::pinwheel::Pinwheel;
use crate::reference::{NakRef, TotalRef};
use crate::safe::Safe;
use crate::services::{ClockSync, Mux, Rpc, Secure};
use crate::stable::Stable;
use crate::total::Total;
use crate::util::{
    Acct, Chksum, Compress, DropEvery, Encrypt, Flow, Logger, Nop, NopOpaque, Prio, Seqno, Sign,
    Trace,
};
use horus_core::prelude::*;
use std::collections::BTreeMap;
use std::time::Duration;

/// Parsed layer parameters: `key=value` pairs from the stack string.
#[derive(Debug, Clone, Default)]
pub struct Params(BTreeMap<String, String>);

impl Params {
    /// Takes a parameter out and parses it.  What no read takes out is a
    /// key its layer does not read, which [`build_layer`] refuses.
    ///
    /// # Errors
    ///
    /// Fails if the value does not parse as `T`.
    pub fn get<T: std::str::FromStr>(&mut self, key: &str) -> Result<Option<T>, HorusError> {
        match self.0.remove(key) {
            None => Ok(None),
            Some(v) => v.parse::<T>().map(Some).map_err(|_| {
                HorusError::BadParam(format!("parameter {key}={v} is not a valid value"))
            }),
        }
    }

    /// Like [`Params::get`] with a default.
    pub fn get_or<T: std::str::FromStr>(&mut self, key: &str, default: T) -> Result<T, HorusError> {
        Ok(self.get(key)?.unwrap_or(default))
    }

    /// Like [`Params::get_or`] for a count or size that must not be zero.
    ///
    /// # Errors
    ///
    /// Fails if the value does not parse as `T` or is zero.
    pub fn positive_or<T: std::str::FromStr + Default + PartialEq>(
        &mut self,
        key: &str,
        default: T,
    ) -> Result<T, HorusError> {
        let v = self.get_or(key, default)?;
        if v == T::default() {
            return Err(HorusError::BadParam(format!("parameter {key} must be positive")));
        }
        Ok(v)
    }

    /// A `Duration` parameter expressed in milliseconds.
    pub fn millis_or(&mut self, key: &str, default: Duration) -> Result<Duration, HorusError> {
        Ok(self.get::<u64>(key)?.map(Duration::from_millis).unwrap_or(default))
    }

    /// Sets a parameter (used by composition-aware defaults).
    pub fn set(&mut self, key: &str, value: &str) {
        self.0.insert(key.to_string(), value.to_string());
    }
}

/// One parsed element of a stack description.
#[derive(Debug, Clone)]
pub struct LayerSpec {
    /// Upper-cased layer name.
    pub name: String,
    /// Its parameters.
    pub params: Params,
}

/// Parses `"TOTAL:MBRSHIP:FRAG(size=512):NAK:COM"` into layer specs,
/// top first.
///
/// # Errors
///
/// Fails on empty input, unbalanced parentheses, malformed `key=value`
/// pairs, or a key given twice to one layer.
pub fn parse_stack(desc: &str) -> Result<Vec<LayerSpec>, HorusError> {
    let desc = desc.trim();
    if desc.is_empty() {
        return Err(HorusError::BadStack("empty stack description".into()));
    }
    // Split on ':' outside parentheses.
    let mut specs = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    let bytes = desc.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'(' => depth += 1,
            b')' => {
                depth = depth
                    .checked_sub(1)
                    .ok_or_else(|| HorusError::BadStack(format!("unbalanced ')' in {desc:?}")))?;
            }
            b':' if depth == 0 => {
                specs.push(parse_one(&desc[start..i])?);
                start = i + 1;
            }
            _ => {}
        }
    }
    if depth != 0 {
        return Err(HorusError::BadStack(format!("unbalanced '(' in {desc:?}")));
    }
    specs.push(parse_one(&desc[start..])?);
    Ok(specs)
}

fn parse_one(part: &str) -> Result<LayerSpec, HorusError> {
    let part = part.trim();
    if part.is_empty() {
        return Err(HorusError::BadStack("empty layer name in stack description".into()));
    }
    let (name, args) = match part.find('(') {
        None => (part, ""),
        Some(i) => {
            let rest = &part[i + 1..];
            let inner = rest
                .strip_suffix(')')
                .ok_or_else(|| HorusError::BadStack(format!("missing ')' after {part:?}")))?;
            (&part[..i], inner)
        }
    };
    let name = name.trim().to_uppercase();
    let mut params = BTreeMap::new();
    for pair in args.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let (k, v) = pair
            .split_once('=')
            .ok_or_else(|| HorusError::BadParam(format!("expected key=value, got {pair:?}")))?;
        let k = k.trim();
        if params.insert(k.to_string(), v.trim().to_string()).is_some() {
            return Err(HorusError::BadParam(format!("{name}: parameter {k} given twice")));
        }
    }
    Ok(LayerSpec { name, params: Params(params) })
}

/// Instantiates a single layer from its spec.
///
/// # Errors
///
/// Fails on unknown names, unparseable parameters, a key the layer does not
/// read, or a zero size or count (`FRAG(size=0)`, `PACK(msgs=0)`) that the
/// layer cannot work with.
pub fn build_layer(spec: &LayerSpec) -> Result<Box<dyn Layer>, HorusError> {
    new_layer(&spec.name, spec.params.clone())
}

/// Builds the layer called `name`, taking out of `p` every key it reads;
/// a key left over is one the layer does not read.
fn new_layer(name: &str, mut p: Params) -> Result<Box<dyn Layer>, HorusError> {
    let layer: Box<dyn Layer> = match name {
        "COM" => Box::new(match p.get_or("promiscuous", false)? {
            true => Com::promiscuous(),
            false => Com::new(),
        }),
        "NAK" => {
            let d = NakConfig::default();
            Box::new(Nak::new(NakConfig {
                fail_timeout: p.millis_or("fail_timeout", d.fail_timeout)?,
                window: p.get_or("window", d.window)?,
                buffer_cap: p.get_or("buffer", d.buffer_cap)?,
                rto: p.millis_or("rto", d.rto)?,
                retransmit: p.get_or("retransmit", d.retransmit)?,
            }))
        }
        "FD" => Box::new(Fd::default()),
        "NNAK" => Box::new(Nnak::new(p.get_or("window", 8)?)),
        "NAK_REF" => Box::new(NakRef::new()),
        "FRAG" => Box::new(Frag::new(p.positive_or("size", 1024)?)),
        "PACK" => Box::new(Pack::new(
            p.positive_or("msgs", 16)?,
            p.positive_or("bytes", 1200)?,
            p.millis_or("delay", Duration::from_millis(1))?,
        )),
        "NFRAG" => Box::new(NFrag::new(
            p.positive_or("size", 1024)?,
            p.millis_or("timeout", Duration::from_secs(2))?,
        )),
        "MBRSHIP" => {
            let d = MbrshipConfig::default();
            Box::new(Mbrship::new(MbrshipConfig {
                auto_merge: p.get_or("auto_merge", d.auto_merge)?,
                primary_partition: p.get_or("primary", d.primary_partition)?,
                tick: p.millis_or("tick", d.tick)?,
                flush_timeout: p.millis_or("flush_timeout", d.flush_timeout)?,
            }))
        }
        "BMS" => Box::new(Bms::new(p.get_or("auto_ok", false)?)),
        "VSS" => Box::new(Vss::new(p.get_or("auto_ok", true)?)),
        "FLUSH" => Box::new(FlushLayer::new()),
        "TOTAL" => Box::new(Total::new()),
        "TOTAL_REF" => Box::new(TotalRef::new()),
        "CAUSAL" => Box::new(Causal::new()),
        "TS" => Box::new(Ts::new()),
        "SAFE" => Box::new(Safe::new()),
        "STABLE" => Box::new(Stable::new(p.get_or("auto_ack", true)?)),
        "PINWHEEL" => Box::new(Pinwheel::new(p.get_or("auto_ack", true)?)),
        "MERGE" => {
            let contacts: Vec<EndpointAddr> = match p.get::<String>("contacts")? {
                Some(list) => list
                    .split('+')
                    .map(|s| {
                        s.trim()
                            .parse::<u64>()
                            .map(EndpointAddr::new)
                            .map_err(|_| HorusError::BadParam(format!("bad contact id {s:?}")))
                    })
                    .collect::<Result<_, _>>()?,
                None => Vec::new(),
            };
            Box::new(Merge::new(contacts, p.millis_or("period", Duration::from_millis(50))?))
        }
        "CHKSUM" => Box::new(Chksum::default()),
        "SIGN" => Box::new(Sign::new(p.get_or("key", 0)?)),
        "ENCRYPT" => Box::new(Encrypt::new(p.get_or("key", 0)?)),
        "COMPRESS" => Box::new(Compress::default()),
        "FLOW" => Box::new(Flow::new(p.get_or("rate", 100)?)),
        "PRIO" => Box::new(Prio::new(p.millis_or("window", Duration::from_millis(1))?)),
        "TRACE" => Box::new(Trace::new()),
        "ACCT" => Box::new(Acct::new()),
        "LOGGER" => Box::new(Logger::new()),
        "DROP" => Box::new(DropEvery::new(p.positive_or("nth", 2)?)),
        "SEQNO" => Box::new(Seqno::default()),
        "RPC" => Box::new(Rpc::new(
            p.millis_or("timeout", Duration::from_millis(100))?,
            p.get_or("retries", 3)?,
        )),
        "CLOCKSYNC" => Box::new(ClockSync::new(
            p.get_or("skew_us", 0)?,
            p.millis_or("period", Duration::from_millis(50))?,
        )),
        "SECURE" => Box::new(Secure::new(p.get_or("master", 0)?)),
        "MUX" => Box::new(Mux::new()),
        "NOP" => Box::new(Nop),
        "NOP_OPAQUE" => Box::new(NopOpaque),
        other => return Err(HorusError::UnknownLayer(other.to_string())),
    };
    match p.0.keys().next() {
        Some(key) => Err(HorusError::BadParam(format!("{name} reads no parameter {key}"))),
        None => Ok(layer),
    }
}

/// Every layer name the registry can instantiate — the protocol library
/// of §1's "about thirty different protocols".
pub fn layer_names() -> Vec<&'static str> {
    vec![
        "COM",
        "NAK",
        "NNAK",
        "NAK_REF",
        "FD",
        "FRAG",
        "NFRAG",
        "PACK",
        "MBRSHIP",
        "BMS",
        "VSS",
        "FLUSH",
        "TOTAL",
        "TOTAL_REF",
        "CAUSAL",
        "TS",
        "SAFE",
        "STABLE",
        "PINWHEEL",
        "MERGE",
        "CHKSUM",
        "SIGN",
        "ENCRYPT",
        "COMPRESS",
        "FLOW",
        "PRIO",
        "TRACE",
        "ACCT",
        "LOGGER",
        "DROP",
        "SEQNO",
        "NOP",
        "NOP_OPAQUE",
        "RPC",
        "CLOCKSYNC",
        "SECURE",
        "MUX",
    ]
}

/// Builds a full stack for `local` from a stack description string.
///
/// # Errors
///
/// Fails on parse errors, unknown layers, or invalid compositions.
///
/// ```
/// use horus_layers::registry::build_stack;
/// use horus_core::prelude::*;
/// let s = build_stack(EndpointAddr::new(9), "CHKSUM:NAK:COM", StackConfig::default())?;
/// assert_eq!(s.layer_names(), vec!["CHKSUM", "NAK", "COM"]);
/// # Ok::<(), HorusError>(())
/// ```
pub fn build_stack(
    local: EndpointAddr,
    desc: &str,
    config: StackConfig,
) -> Result<Stack, HorusError> {
    let mut specs = parse_stack(desc)?;
    // Composition-aware flush_ok defaults (Table 1's `flush`/`flush_ok`
    // contract): the *topmost* flush participant answers.  A FLUSH layer
    // does real recovery; otherwise VSS answers immediately; a bare BMS
    // answers itself.  Explicit `auto_ok=...` parameters always win; the
    // layers read them, and every other key, in `build_layer`.
    let mut flush_above = false;
    let mut responder_above = false;
    for spec in specs.iter_mut() {
        if spec.name == "FLUSH" {
            flush_above = true;
            responder_above = true;
        }
        let explicit = spec.params.0.contains_key("auto_ok");
        if spec.name == "VSS" {
            if !explicit {
                spec.params.set("auto_ok", if flush_above { "false" } else { "true" });
            }
            responder_above = true;
        }
        if spec.name == "BMS" && !explicit {
            spec.params.set("auto_ok", if responder_above { "false" } else { "true" });
        }
    }
    let mut b = StackBuilder::new(local).config(config);
    for spec in specs {
        b = b.push(new_layer(&spec.name, spec.params)?);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn parses_names_and_params() {
        let mut specs =
            parse_stack("total:MBRSHIP:FRAG(size=512):NAK(window=64, rto=10):COM").unwrap();
        let names: Vec<_> = specs.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["TOTAL", "MBRSHIP", "FRAG", "NAK", "COM"]);
        assert_eq!(specs[2].params.get::<usize>("size").unwrap(), Some(512));
        assert_eq!(specs[3].params.get::<u32>("window").unwrap(), Some(64));
    }

    #[test]
    fn rejects_malformed_descriptions() {
        assert!(parse_stack("").is_err());
        assert!(parse_stack("NAK:").is_err());
        assert!(parse_stack("FRAG(size=512").is_err());
        assert!(parse_stack("FRAG size=512)").is_err());
        assert!(parse_stack("FRAG(size)").is_err());
        assert!(parse_stack("NO_SUCH").map(|s| build_layer(&s[0])).unwrap().is_err());
    }

    #[test]
    fn every_registered_layer_instantiates() {
        for name in layer_names() {
            let spec = parse_stack(name).unwrap().remove(0);
            let layer = build_layer(&spec).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(layer.name(), name, "constructed layer reports its own name");
        }
        assert!(layer_names().len() >= 30, "the paper's ~thirty protocols");
    }

    /// `Down::Dump` has one answer per layer, its name and its state
    /// report: every registered layer gives it over COM, fresh and after
    /// a two-member group has formed and cast.
    #[test]
    fn every_registered_layer_answers_a_dump() {
        use horus_net::NetConfig;
        use horus_sim::SimWorld;
        let dumped = |w: &mut SimWorld, at: EndpointAddr| -> Vec<&'static str> {
            w.take_upcalls(at);
            w.down(at, Down::Dump);
            w.run_for(std::time::Duration::ZERO);
            let ups = w.take_upcalls(at).into_iter();
            ups.filter_map(
                |(_, up)| if let Up::DumpInfo { layer, .. } = up { Some(layer) } else { None },
            )
            .collect()
        };
        for name in layer_names() {
            let desc = if name == "COM" { "COM".to_string() } else { format!("{name}:COM") };
            let mut w = SimWorld::new(1, NetConfig::reliable());
            let eps = [EndpointAddr::new(1), EndpointAddr::new(2)];
            for ep in eps {
                w.add_endpoint(build_stack(ep, &desc, StackConfig::default()).expect(name));
            }
            assert_eq!(dumped(&mut w, eps[1])[0], name, "{desc}, fresh");
            for ep in eps {
                w.join(ep, GroupAddr::new(1));
            }
            w.down(eps[1], Down::Merge { contact: eps[0] });
            w.run_for(std::time::Duration::from_millis(200));
            for k in 0..4u8 {
                w.cast_bytes(eps[usize::from(k % 2)], vec![k; 32]);
            }
            w.run_for(std::time::Duration::from_millis(200));
            for ep in eps {
                let layers = dumped(&mut w, ep);
                assert_eq!(layers.len(), desc.split(':').count(), "{desc}");
                assert_eq!(layers[0], name, "{desc}, after casts");
            }
        }
    }

    #[test]
    fn parameterless_layers_take_their_config_defaults() {
        let built = |name: &str| build_layer(&parse_stack(name).unwrap().remove(0)).unwrap().dump();
        assert_eq!(built("NAK"), Nak::new(NakConfig::default()).dump());
        assert_eq!(built("FD"), Fd::default().dump());
        assert_eq!(built("MBRSHIP"), Mbrship::new(MbrshipConfig::default()).dump());
    }

    #[test]
    fn canonical_stack_builds() {
        let s = build_stack(
            EndpointAddr::new(1),
            "TOTAL:MBRSHIP:FRAG:NAK:COM(promiscuous=true)",
            StackConfig::default(),
        )
        .unwrap();
        assert_eq!(s.layer_names(), vec!["TOTAL", "MBRSHIP", "FRAG", "NAK", "COM"]);
    }

    #[test]
    fn bad_param_value_is_reported() {
        let e = build_stack(EndpointAddr::new(1), "FRAG(size=many)", StackConfig::default());
        assert!(matches!(e, Err(HorusError::BadParam(_))));
    }

    #[test]
    fn run_time_composition_two_apps_one_process() {
        // §1: "Horus can support many applications concurrently, each of
        // which can be configured individually."  Two endpoints with
        // different stacks run in one world (one "process").
        use horus_net::NetConfig;
        use horus_sim::SimWorld;
        let mut w = SimWorld::new(1, NetConfig::reliable());
        let a =
            build_stack(EndpointAddr::new(1), "CHKSUM:NAK:COM", StackConfig::default()).unwrap();
        let b = build_stack(EndpointAddr::new(2), "COMPRESS:SEQNO:COM", StackConfig::default())
            .unwrap();
        w.add_endpoint(a);
        w.add_endpoint(b);
        w.join(EndpointAddr::new(1), GroupAddr::new(1));
        w.join(EndpointAddr::new(2), GroupAddr::new(2));
        w.cast_bytes(EndpointAddr::new(1), &b"x"[..]);
        w.cast_bytes(EndpointAddr::new(2), &b"y"[..]);
        w.run_for(std::time::Duration::from_millis(50));
        // Each talks only to its own group and stack.
        assert_eq!(w.delivered_casts(EndpointAddr::new(1)).len(), 1);
        assert_eq!(w.delivered_casts(EndpointAddr::new(2)).len(), 1);
    }

    /// The layers' own notes, in order — all but a downcall falling off
    /// the bottom, which a passive layer there changes.
    #[derive(Debug, Default)]
    struct Notes(std::sync::Mutex<Vec<String>>);

    impl TraceSink for Notes {
        fn record(&self, ev: TraceEvent) {
            if let TraceKind::Note(text) = ev.kind {
                if !text.contains("fell off the bottom") {
                    self.0.lock().unwrap().push(text);
                }
            }
        }
    }

    /// A pair of stacks of one composition, driven by hand: what either
    /// sends the other receives, for a few rounds, and every timer armed on
    /// the way fires once.  Returns, per input, what the stack asked for —
    /// what left by the bottom, what left by the top, what a layer asked
    /// for itself and the notes its layers traced, each in its order — and
    /// per stack its counters with the number of downcalls fed to it.
    fn drive_pair(desc: &str, skip_passive: bool) -> (Vec<String>, [(StackStats, u64); 2]) {
        let eps = [EndpointAddr::new(1), EndpointAddr::new(2)];
        let config = StackConfig { skip_passive, ..StackConfig::default() };
        let mut stacks = eps.map(|ep| build_stack(ep, desc, config.clone()).expect(desc));
        let notes = eps.map(|_| Arc::new(Notes::default()));
        for (stack, notes) in stacks.iter_mut().zip(&notes) {
            stack.set_tracer(notes.clone());
        }
        let mut downcalls = [0u64; 2];
        let mut log = Vec::new();
        let mut todo: std::collections::VecDeque<(usize, StackInput)> = Default::default();
        let mut now = SimTime::ZERO;
        let mut perform = |at: usize, fx: Vec<Effect>, todo: &mut std::collections::VecDeque<_>| {
            let (mut bottom, mut top, mut own) = (Vec::new(), Vec::new(), Vec::new());
            for effect in &fx {
                match effect {
                    Effect::Deliver(_) => top.push(effect),
                    Effect::SetTimer { .. } => own.push(effect),
                    _ => bottom.push(effect),
                }
            }
            let traced = std::mem::take(&mut *notes[at].0.lock().unwrap());
            log.push(format!("{at} {bottom:?} {top:?} {own:?} {traced:?}"));
            for effect in bottom.into_iter().chain(own) {
                match effect.clone() {
                    Effect::NetCast { wire } | Effect::NetSend { wire, .. } => {
                        let from = eps[at];
                        todo.push_back((1 - at, StackInput::FromNet { from, cast: true, wire }));
                    }
                    Effect::SetTimer { layer, token, delay } => {
                        now += delay;
                        todo.push_back((at, StackInput::Timer { layer, token, now }));
                    }
                    _ => {}
                }
            }
        };
        for (at, stack) in stacks.iter_mut().enumerate() {
            let fx = stack.init();
            perform(at, fx, &mut todo);
            let cast = Down::Cast(stack.new_message(vec![at as u8; 48]));
            todo.push_back((at, StackInput::FromApp(Down::Join { group: GroupAddr::new(1) })));
            todo.push_back((at, StackInput::FromApp(Down::Merge { contact: eps[0] })));
            todo.push_back((at, StackInput::FromApp(cast)));
        }
        for _ in 0..64 {
            let Some((at, input)) = todo.pop_front() else { break };
            downcalls[at] += u64::from(matches!(input, StackInput::FromApp(_)));
            let fx = stacks[at].handle(input);
            perform(at, fx, &mut todo);
        }
        let [a, b] = stacks;
        (log, [(a.stats().clone(), downcalls[0]), (b.stats().clone(), downcalls[1])])
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Over compositions drawn from the registry, with passive layers
        /// at the top, at the bottom, in runs and alone in the stack:
        /// routing around them changes nothing a stack sends, delivers or
        /// arms, and `skipped` counts exactly the dispatches a stack
        /// that visits every layer makes on top — emitted events only, as
        /// ever: a downcall entering past passive layers at the top, or a
        /// frame past passive layers at the bottom, is not counted.
        #[test]
        fn skipping_passive_layers_is_invisible_over_the_registry(
            picks in proptest::collection::vec((any::<bool>(), 0usize..37), 1..=6),
        ) {
            let names = layer_names();
            let layers: Vec<&str> =
                picks.iter().map(|&(nop, i)| if nop { "NOP" } else { names[i] }).collect();
            let desc = layers.join(":");
            let on_top = layers.iter().take_while(|&&l| l == "NOP").count() as u64;
            let at_bottom = layers.iter().rev().take_while(|&&l| l == "NOP").count() as u64;

            let (skipping, skipping_stats) = drive_pair(&desc, true);
            let (visiting, visiting_stats) = drive_pair(&desc, false);
            prop_assert_eq!(skipping, visiting, "{}", &desc);
            for ((skip, downcalls), (visit, _)) in skipping_stats.iter().zip(&visiting_stats) {
                prop_assert_eq!(visit.skipped, 0);
                prop_assert_eq!(
                    visit.dispatches,
                    skip.dispatches
                        + skip.skipped
                        + on_top * downcalls
                        + at_bottom * skip.msgs_received,
                    "{}: {:?}", &desc, skip
                );
            }
        }
    }
}
