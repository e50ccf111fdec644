//! Binary trace format **v2** — the one encoding trace files are written
//! and read in (the v1 text format it replaced is recognised only to say
//! so; E29 measured v2 at roughly a quarter of its bytes).
//!
//! Layout after the `# horus-trace v2` header line:
//!
//! ```text
//! varint meta_count, then per pair:  str key, str value
//! varint record_count, then per record:
//!   varint body_len                  (length prefix; skippable)
//!   body:
//!     u8     tag                     (TraceKind::id)
//!     varint zigzag(at_ns ⊖ prev)    (wrapping timestamp delta vs previous)
//!     varint ep
//!     varint clock_len, then per entry: varint actor, varint count
//!     fields, in the kind's field-list order:
//!       number -> varint             (`cast` as 0/1)
//!       digest -> 8-byte little-endian u64
//!       name   -> str                (layer, up/downcall kind, drop reason)
//!       text   -> str                (view, note: stored escaped, as it renders)
//! ```
//!
//! `varint` is LEB128 (7 bits per byte, high bit = continue), little-endian
//! like everything else here.  `str` is interned: a back-reference
//! `varint(index)` for a string the file already carried, or `varint(0)`
//! followed by `varint(len)` + raw UTF-8 bytes for a first occurrence —
//! layer names and kind-name strings appear thousands of times per trace
//! and collapse to one byte each.  Digests get fixed 8-byte slots because
//! they are hashes: uniformly distributed, so varints would *cost* bytes.
//!
//! The encoder writes each record's typed fields (`crate::with_fields`)
//! and the decoder's `match` on the tag rebuilds the [`TraceRecord`] the
//! hook emitted, so `parse(serialize(r)) == r` — the proptests and the
//! golden 19-kind bytes in `tests/trace_format.rs` hold it there, and hold
//! [`parse_trace_v2`] to `Err`, never a panic, on anything else.  Free
//! text is unescaped on read; names go through `intern`.

use crate::{escape, unescape, with_fields, Field, ParsedTrace, TraceRecord};
use horus_core::addr::EndpointAddr;
use horus_core::lock;
use horus_core::time::SimTime;
use horus_core::trace::{DropReason, TraceKind};
use std::collections::{HashMap, HashSet};
use std::sync::{LazyLock, Mutex};

/// The v2 header line (without the newline that terminates it).
pub const TRACE_HEADER_V2: &str = "# horus-trace v2";

/// How a file in the retired text encoding starts.
const TRACE_HEADER_V1: &str = "# horus-trace v1";

/// Every name the reader has handed out as `&'static str`.
static NAMES: LazyLock<Mutex<HashSet<&'static str>>> = LazyLock::new(Mutex::default);

/// A `&'static str` equal to `s`: the name seen before, or `s` leaked on
/// first sight.  [`TraceKind`] keeps `&'static str` layer and kind names
/// (the hook takes them from the registry for free), so a decoded record
/// needs them too.  Each distinct name is leaked once per process, so the
/// memory is bounded by the distinct names one process ever reads — the
/// layer and upcall/downcall vocabulary for any trace this repository
/// writes, and at most the bytes of the files read for a forged one.
pub(crate) fn intern(s: &str) -> &'static str {
    let mut names = lock(&NAMES);
    match names.get(s) {
        Some(&name) => name,
        None => {
            let name: &'static str = Box::leak(s.into());
            names.insert(name);
            name
        }
    }
}

// ---------------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------------

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

fn zigzag(d: i64) -> u64 {
    ((d << 1) ^ (d >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// A bounds-checked reader over the binary body.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// The file's string table, in first-occurrence order.
    strings: Vec<&'a str>,
    /// Per table entry, its `intern`ed copy once a name field used it.
    names: Vec<Option<&'static str>>,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0, strings: Vec::new(), names: Vec::new() }
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn byte(&mut self) -> Result<u8, String> {
        let b = *self.buf.get(self.pos).ok_or("truncated record body")?;
        self.pos += 1;
        Ok(b)
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        let end = end.ok_or("truncated byte run")?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn varint(&mut self) -> Result<u64, String> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err("varint overruns 64 bits".into())
    }

    fn digest(&mut self) -> Result<u64, String> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes(b.try_into().unwrap()))
    }

    /// A string-table entry: a back-reference, or a first occurrence.
    fn str_index(&mut self) -> Result<usize, String> {
        let r = self.varint()?;
        if r == 0 {
            let len = self.varint()? as usize;
            let s = std::str::from_utf8(self.bytes(len)?)
                .map_err(|_| "interned string is not UTF-8")?;
            self.strings.push(s);
            self.names.push(None);
            Ok(self.strings.len() - 1)
        } else {
            usize::try_from(r - 1)
                .ok()
                .filter(|&i| i < self.strings.len())
                .ok_or_else(|| format!("string back-reference {r} out of range"))
        }
    }

    fn str(&mut self) -> Result<&'a str, String> {
        let i = self.str_index()?;
        Ok(self.strings[i])
    }

    fn name(&mut self) -> Result<&'static str, String> {
        let i = self.str_index()?;
        Ok(*self.names[i].get_or_insert_with(|| intern(self.strings[i])))
    }

    fn text(&mut self) -> Result<String, String> {
        Ok(unescape(self.str()?))
    }

    fn ep(&mut self) -> Result<EndpointAddr, String> {
        Ok(match self.varint()? {
            0 => EndpointAddr::NULL,
            raw => EndpointAddr::new(raw),
        })
    }

    fn usize(&mut self, what: &str) -> Result<usize, String> {
        let v = self.varint()?;
        usize::try_from(v).map_err(|_| format!("{what} {v} does not fit usize"))
    }

    fn cast(&mut self) -> Result<bool, String> {
        match self.varint()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(format!("cast {v} is not 0 or 1")),
        }
    }

    fn reason(&mut self) -> Result<DropReason, String> {
        let name = self.str()?;
        DropReason::by_name(name).ok_or_else(|| format!("unknown drop reason {name:?}"))
    }
}

/// The string-interning writer side.
#[derive(Default)]
struct Interner {
    ids: HashMap<String, u64>,
}

impl Interner {
    fn put_str(&mut self, out: &mut Vec<u8>, s: &str) {
        if let Some(&id) = self.ids.get(s) {
            put_varint(out, id);
        } else {
            put_varint(out, 0);
            put_varint(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
            self.ids.insert(s.to_string(), self.ids.len() as u64 + 1);
        }
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn encode_record(out: &mut Vec<u8>, intern: &mut Interner, rec: &TraceRecord, prev_ns: u64) {
    let mut body = Vec::with_capacity(32);
    body.push(rec.kind.id());
    // Wrapping difference: lossless for ANY pair of u64 timestamps (the
    // zigzag varint stays short for the small forward/backward steps real
    // traces take), and the decoder's wrapping add inverts it exactly.
    put_varint(&mut body, zigzag(rec.at.as_nanos().wrapping_sub(prev_ns) as i64));
    put_varint(&mut body, rec.ep.raw());
    put_varint(&mut body, rec.clock.len() as u64);
    for &(actor, count) in &rec.clock {
        put_varint(&mut body, actor);
        put_varint(&mut body, count);
    }
    with_fields(&rec.kind, |fields| {
        for (_, field) in fields {
            match *field {
                Field::U64(v) => put_varint(&mut body, v),
                Field::Digest(v) => body.extend_from_slice(&v.to_le_bytes()),
                Field::Name(s) => intern.put_str(&mut body, s),
                Field::Text(s) => intern.put_str(&mut body, &escape(s)),
            }
        }
    });
    put_varint(out, body.len() as u64);
    out.extend_from_slice(&body);
}

/// Serializes collected records as a v2 binary trace (meta pairs keep the
/// given order).
pub fn serialize_trace_v2(meta: &[(String, String)], records: &[TraceRecord]) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + records.len() * 16);
    out.extend_from_slice(TRACE_HEADER_V2.as_bytes());
    out.push(b'\n');
    let mut intern = Interner::default();
    put_varint(&mut out, meta.len() as u64);
    for (k, v) in meta {
        intern.put_str(&mut out, k);
        intern.put_str(&mut out, v);
    }
    put_varint(&mut out, records.len() as u64);
    let mut prev_ns = 0;
    for rec in records {
        encode_record(&mut out, &mut intern, rec, prev_ns);
        prev_ns = rec.at.as_nanos();
    }
    out
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Parses a v2 binary trace — the one entry point every reader of trace
/// bytes (the CLIs, the trace→schedule bridge) loads through.
///
/// # Errors
///
/// On a missing header, any truncated/malformed structure, or a field a
/// typed record cannot hold (a `cast` outside {0, 1}, an unknown drop
/// reason, a layer index or byte count past `usize`) — with enough context
/// to say which record and what was being read; never a panic, whatever
/// the bytes.
pub fn parse_trace_v2(bytes: &[u8]) -> Result<ParsedTrace, String> {
    let header_len = TRACE_HEADER_V2.len() + 1;
    if bytes.starts_with(TRACE_HEADER_V1.as_bytes()) {
        return Err("v1 text traces are no longer read; re-capture".into());
    }
    if bytes.len() < header_len
        || &bytes[..header_len - 1] != TRACE_HEADER_V2.as_bytes()
        || bytes[header_len - 1] != b'\n'
    {
        return Err("bad v2 trace header".into());
    }
    let mut r = Reader::new(&bytes[header_len..]);
    let mut out = ParsedTrace::default();
    let meta_count = r.varint().map_err(|e| format!("meta count: {e}"))?;
    for i in 0..meta_count {
        let k = r.str().map_err(|e| format!("meta {i} key: {e}"))?;
        let v = r.str().map_err(|e| format!("meta {i} value: {e}"))?;
        out.meta.insert(k.to_string(), v.to_string());
    }
    let record_count = r.varint().map_err(|e| format!("record count: {e}"))?;
    let mut prev_ns = 0u64;
    for i in 0..record_count {
        let rec = decode_record(&mut r, prev_ns).map_err(|e| format!("record {i}: {e}"))?;
        prev_ns = rec.at.as_nanos();
        out.records.push(rec);
    }
    if !r.done() {
        return Err(format!("{} trailing bytes after the last record", r.buf.len() - r.pos));
    }
    Ok(out)
}

/// One record: the inverse of `encode_record`, field for field in the
/// order `crate::with_fields` lists them (struct fields evaluate in the order
/// written).
fn decode_record(r: &mut Reader<'_>, prev_ns: u64) -> Result<TraceRecord, String> {
    let body_len = r.varint()? as usize;
    let body_end = r.pos.checked_add(body_len).filter(|&e| e <= r.buf.len());
    let body_end = body_end.ok_or("record length prefix overruns the file")?;
    let tag = r.byte()?;
    let at = SimTime::from_nanos(prev_ns.wrapping_add(unzigzag(r.varint()?) as u64));
    let ep = r.ep()?;
    let clock_len = r.varint()? as usize;
    let mut clock = Vec::with_capacity(clock_len.min(64));
    for _ in 0..clock_len {
        clock.push((r.varint()?, r.varint()?));
    }
    let kind = match tag {
        0 => TraceKind::LayerDown { layer: r.name()? },
        1 => TraceKind::LayerUp { layer: r.name()? },
        2 => TraceKind::LayerTimer { layer: r.name()?, token: r.varint()? },
        3 => TraceKind::FrameSend { cast: r.cast()?, bytes: r.usize("bytes")? },
        4 => TraceKind::FrameDeliver {
            from: r.ep()?,
            cast: r.cast()?,
            bytes: r.usize("bytes")?,
            digest: r.digest()?,
            seq: r.varint()?,
        },
        5 => TraceKind::FrameDrop { digest: r.digest()?, seq: r.varint()?, reason: r.reason()? },
        6 => TraceKind::TimerArm {
            layer: r.usize("layer index")?,
            token: r.varint()?,
            delay_us: r.varint()?,
        },
        7 => TraceKind::TimerFire {
            layer: r.usize("layer index")?,
            token: r.varint()?,
            digest: r.digest()?,
            seq: r.varint()?,
        },
        8 => TraceKind::AppDown { kind: r.name()?, digest: r.digest()?, seq: r.varint()? },
        9 => TraceKind::Deliver { kind: r.name()?, src: r.varint()?, digest: r.digest()? },
        10 => TraceKind::ViewInstall { view: r.text()? },
        11 => TraceKind::Crash { digest: r.digest()?, seq: r.varint()? },
        12 => TraceKind::Suspect { target: r.ep()?, digest: r.digest()?, seq: r.varint()? },
        13 => TraceKind::InjectCrash,
        14 => TraceKind::InjectSuspect { observer: r.ep()?, target: r.ep()? },
        15 => TraceKind::Partition { digest: r.digest()?, seq: r.varint()? },
        16 => TraceKind::Heal { digest: r.digest()?, seq: r.varint()? },
        17 => TraceKind::Fault { digest: r.digest()?, seq: r.varint()? },
        18 => TraceKind::Note(r.text()?),
        _ => return Err(format!("unknown record tag {tag}")),
    };
    if r.pos != body_end {
        return Err("record body length mismatch".into());
    }
    Ok(TraceRecord { at, ep, clock, kind })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_leaked_once() {
        let a = intern(&String::from("NAK"));
        let b = intern(&String::from("NAK"));
        assert!(std::ptr::eq(a, b));
    }
}
