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
//!     fields, per the kind's schema, in canonical order:
//!       U64    -> varint
//!       Digest -> 8-byte little-endian u64
//!       Str    -> str                (stored escaped, as it renders)
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
//! The encoder writes the fields [`crate::parsed_from_record`] shows
//! ([`ParsedRecord`]) and the decoder rebuilds exactly that view, so the
//! round trip is lossless by construction — the proptests in
//! `tests/trace_format.rs` hold it there, and hold [`parse_trace_v2`] to
//! `Err`, never a panic, on anything else.

use crate::{kind_fields, ParsedRecord, ParsedTrace, TraceRecord};
use horus_core::trace::{kind_id_by_name, KIND_NAMES};
use std::collections::BTreeMap;
use std::collections::HashMap;

/// The v2 header line (without the newline that terminates it).
pub const TRACE_HEADER_V2: &str = "# horus-trace v2";

/// How a file in the retired text encoding starts.
const TRACE_HEADER_V1: &str = "# horus-trace v1";

/// Field encodings.
#[derive(Clone, Copy, PartialEq, Eq)]
enum FType {
    /// Canonical-decimal u64, varint-encoded.
    U64,
    /// A content digest: fixed 8-byte little-endian (hash-uniform values
    /// make varints counterproductive).
    Digest,
    /// Escaped text, interned.
    Str,
}

/// Per-kind field schemas, indexed by [`TraceKind::id`]; the tuple order is
/// the wire order and matches `kind_fields`' canonical rendering order.
///
/// [`TraceKind::id`]: horus_core::trace::TraceKind::id
const SCHEMAS: [&[(&str, FType)]; 19] = [
    &[("layer", FType::Str)],
    &[("layer", FType::Str)],
    &[("layer", FType::Str), ("token", FType::U64)],
    &[("cast", FType::U64), ("bytes", FType::U64)],
    &[
        ("from", FType::U64),
        ("cast", FType::U64),
        ("bytes", FType::U64),
        ("digest", FType::Digest),
        ("seq", FType::U64),
    ],
    &[("digest", FType::Digest), ("seq", FType::U64), ("reason", FType::Str)],
    &[("layer", FType::U64), ("token", FType::U64), ("delay_us", FType::U64)],
    &[("layer", FType::U64), ("token", FType::U64), ("digest", FType::Digest), ("seq", FType::U64)],
    &[("kind", FType::Str), ("digest", FType::Digest), ("seq", FType::U64)],
    &[("kind", FType::Str), ("src", FType::U64), ("digest", FType::Digest)],
    &[("view", FType::Str)],
    &[("digest", FType::Digest), ("seq", FType::U64)],
    &[("target", FType::U64), ("digest", FType::Digest), ("seq", FType::U64)],
    &[],
    &[("observer", FType::U64), ("target", FType::U64)],
    &[("digest", FType::Digest), ("seq", FType::U64)],
    &[("digest", FType::Digest), ("seq", FType::U64)],
    &[("digest", FType::Digest), ("seq", FType::U64)],
    &[("text", FType::Str)],
];

/// The canonical field order for a kind name, when it is in the vocabulary
/// (the text rendering and the wire schema agree on it).
pub(crate) fn schema_keys(kind: &str) -> Option<Vec<&'static str>> {
    let id = kind_id_by_name(kind)?;
    Some(SCHEMAS[id as usize].iter().map(|(k, _)| *k).collect())
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
    strings: Vec<String>,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0, strings: Vec::new() }
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

    fn fixed_u64(&mut self) -> Result<u64, String> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes(b.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String, String> {
        let r = self.varint()?;
        if r == 0 {
            let len = self.varint()? as usize;
            let s = std::str::from_utf8(self.bytes(len)?)
                .map_err(|_| "interned string is not UTF-8")?
                .to_string();
            self.strings.push(s.clone());
            Ok(s)
        } else {
            self.strings
                .get(r as usize - 1)
                .cloned()
                .ok_or_else(|| format!("string back-reference {r} out of range"))
        }
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
    let tag = rec.kind.id();
    body.push(tag);
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
    // `kind_fields` is the view's one source (`parsed_from_record` reads
    // it too) and yields the schema's keys in the schema's order.
    let number = |v: &str| v.parse::<u64>().expect("kind_fields renders numbers as decimal u64");
    for (&(key, ty), (k, v)) in SCHEMAS[tag as usize].iter().zip(kind_fields(&rec.kind)) {
        debug_assert_eq!(key, k, "schema and kind_fields disagree for tag {tag}");
        match ty {
            FType::U64 => put_varint(&mut body, number(&v)),
            FType::Digest => body.extend_from_slice(&number(&v).to_le_bytes()),
            FType::Str => intern.put_str(&mut body, &v),
        }
    }
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
/// On a missing header or any truncated/malformed structure — with enough
/// context to say what was being read; never a panic, whatever the bytes.
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
        out.meta.insert(k, v);
    }
    let record_count = r.varint().map_err(|e| format!("record count: {e}"))?;
    let mut prev_ns = 0u64;
    for i in 0..record_count {
        let rec = decode_record(&mut r, prev_ns).map_err(|e| format!("record {i}: {e}"))?;
        prev_ns = rec.at_ns;
        out.records.push(rec);
    }
    if !r.done() {
        return Err(format!("{} trailing bytes after the last record", r.buf.len() - r.pos));
    }
    Ok(out)
}

fn decode_record(r: &mut Reader<'_>, prev_ns: u64) -> Result<ParsedRecord, String> {
    let body_len = r.varint()? as usize;
    let body_end = r.pos.checked_add(body_len).filter(|&e| e <= r.buf.len());
    let body_end = body_end.ok_or("record length prefix overruns the file")?;
    let tag = r.byte()?;
    let at_ns = prev_ns.wrapping_add(unzigzag(r.varint()?) as u64);
    let ep = r.varint()?;
    let clock_len = r.varint()? as usize;
    let mut clock = Vec::with_capacity(clock_len.min(64));
    for _ in 0..clock_len {
        clock.push((r.varint()?, r.varint()?));
    }
    let schema = SCHEMAS.get(tag as usize).ok_or_else(|| format!("unknown record tag {tag}"))?;
    let mut fields = BTreeMap::new();
    for &(key, ty) in *schema {
        let v = match ty {
            FType::U64 => r.varint()?.to_string(),
            FType::Digest => r.fixed_u64()?.to_string(),
            FType::Str => r.str()?,
        };
        fields.insert(key.to_string(), v);
    }
    if r.pos != body_end {
        return Err("record body length mismatch".into());
    }
    Ok(ParsedRecord { at_ns, ep, clock, kind: KIND_NAMES[tag as usize].to_string(), fields })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parsed_from_record;
    use horus_core::addr::EndpointAddr;
    use horus_core::time::SimTime;
    use horus_core::trace::TraceKind;

    fn rec(at_ns: u64, ep: u64, kind: TraceKind) -> TraceRecord {
        TraceRecord {
            at: SimTime::from_nanos(at_ns),
            ep: EndpointAddr::new(ep),
            clock: vec![(1, 2), (2, 1)],
            kind,
        }
    }

    fn sample_records() -> Vec<TraceRecord> {
        vec![
            rec(1000, 1, TraceKind::LayerDown { layer: "NAK" }),
            rec(
                1500,
                2,
                TraceKind::FrameDeliver {
                    from: EndpointAddr::new(1),
                    cast: true,
                    bytes: 64,
                    digest: u64::MAX - 7,
                    seq: 17,
                },
            ),
            rec(900, 2, TraceKind::ViewInstall { view: "g:1[v2@ep:1 ep:1 ep:2]".into() }),
            rec(2000, 1, TraceKind::Note("hello world\n100%\té".into())),
            rec(2000, 1, TraceKind::InjectCrash),
        ]
    }

    #[test]
    fn v2_roundtrips_the_record_view() {
        let meta = vec![("scenario".to_string(), "wedge".to_string())];
        let records = sample_records();
        let v2 = serialize_trace_v2(&meta, &records);
        let parsed = parse_trace_v2(&v2).unwrap();
        assert_eq!(parsed.meta, meta.iter().cloned().collect());
        assert_eq!(parsed.records, records.iter().map(parsed_from_record).collect::<Vec<_>>());
        // Same records, same bytes.
        assert_eq!(serialize_trace_v2(&meta, &records), v2);
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let v2 = serialize_trace_v2(&[], &sample_records());
        for cut in [TRACE_HEADER_V2.len() + 1, v2.len() / 2, v2.len() - 1] {
            assert!(parse_trace_v2(&v2[..cut]).is_err(), "cut at {cut} must fail");
        }
        // Trailing garbage is rejected too.
        let mut padded = v2.clone();
        padded.push(0);
        assert!(parse_trace_v2(&padded).is_err());
        // A tag outside the vocabulary (the first record's tag byte follows
        // the header, two counts and the body length).
        let mut forged = v2.clone();
        forged[TRACE_HEADER_V2.len() + 4] = SCHEMAS.len() as u8;
        assert!(parse_trace_v2(&forged).unwrap_err().contains("unknown record tag"));
        // The retired text encoding gets told so.
        let err = parse_trace_v2(b"# horus-trace v1\nt=1 ep=1 vc=- inject-crash\n").unwrap_err();
        assert_eq!(err, "v1 text traces are no longer read; re-capture");
    }
}
