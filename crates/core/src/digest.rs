//! State digests for model checking.
//!
//! The bounded schedule explorer (`horus-check`) prunes its search when it
//! reaches a world state it has already visited.  "Same state" is decided by
//! a 64-bit digest: every layer feeds its delivery-relevant state into a
//! [`StateDigest`] through [`crate::layer::Layer::digest_state`], and the
//! executor combines the per-stack digests with its pending-event multiset.
//!
//! The digest is FNV-1a over the fed bytes — not cryptographic, just cheap
//! and stable.  A collision makes the explorer skip a subtree it should have
//! searched (missed coverage, never a false alarm), which is the right
//! failure direction for a bug-finding tool.

/// An incremental 64-bit FNV-1a digest of protocol state.
#[derive(Debug, Clone)]
pub struct StateDigest {
    h: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

impl StateDigest {
    /// A fresh digest at the FNV offset basis.
    pub fn new() -> Self {
        StateDigest { h: FNV_OFFSET }
    }

    /// Feeds raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.h ^= b as u64;
            self.h = self.h.wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds a string (with a terminator so `"ab" + "c"` ≠ `"a" + "bc"`).
    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
        self.write_bytes(&[0xff]);
    }

    /// Feeds a little-endian `u64`.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// The digest of everything fed so far.
    pub fn finish(&self) -> u64 {
        // Final avalanche (splitmix-style) so short inputs still spread.
        let mut z = self.h;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

impl Default for StateDigest {
    fn default() -> Self {
        StateDigest::new()
    }
}

/// Formatting straight into the digest: the bytes a `write!` would have put
/// in a `String`, fed as they are produced and with **no** terminator (the
/// inherent [`StateDigest::write_str`] appends one; a formatter calls this
/// once per fragment, so it cannot).  FNV-1a is byte-serial, so
/// `write!(d, ..)` followed by `write_bytes(&[0xff])` equals
/// `d.write_str(&format!(..))` bit for bit.
impl std::fmt::Write for StateDigest {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.write_bytes(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_order_sensitive() {
        let digest = |parts: &[&str]| {
            let mut d = StateDigest::new();
            for p in parts {
                d.write_str(p);
            }
            d.finish()
        };
        assert_eq!(digest(&["a", "b"]), digest(&["a", "b"]));
        assert_ne!(digest(&["a", "b"]), digest(&["b", "a"]));
        assert_ne!(digest(&["ab", "c"]), digest(&["a", "bc"]), "framing matters");
    }

    #[test]
    fn formatting_into_the_digest_equals_digesting_the_string() {
        use std::fmt::Write;
        let mut streamed = StateDigest::new();
        write!(streamed, "seq={} peers={:?} ", 7, [Some(1u8), None]).unwrap();
        write!(streamed, "tail={:>4}", "x").unwrap();
        streamed.write_bytes(&[0xff]);
        let mut whole = StateDigest::new();
        whole.write_str(&format!("seq={} peers={:?} tail={:>4}", 7, [Some(1u8), None], "x"));
        assert_eq!(streamed.finish(), whole.finish());
    }

    #[test]
    fn u64_and_bytes_feed() {
        let mut a = StateDigest::new();
        a.write_u64(7);
        let mut b = StateDigest::new();
        b.write_u64(8);
        assert_ne!(a.finish(), b.finish());
        let mut c = StateDigest::new();
        c.write_bytes(&7u64.to_le_bytes());
        assert_eq!(a.finish(), c.finish());
    }
}
