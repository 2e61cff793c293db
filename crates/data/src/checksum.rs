//! FNV-1a/64 — the workspace's shared integrity checksum.
//!
//! The `SAFEARTIFACT` serving bundle and the `SAFECKPT` training
//! checkpoint carry a `CHECKSUM` line with this hash of everything below
//! it, written by [`crate::record::seal`]. Plans and boosters carry none:
//! a bare `.safeplan` file is unchecked, and a booster is only ever stored
//! inside an artifact. FNV-1a is not cryptographic; it exists to catch
//! truncation, torn writes, and accidental edits, and it is trivially
//! dependency-free.

/// FNV-1a 64-bit hash of `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_fnv1a64_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn single_byte_flip_changes_the_hash() {
        let a = fnv1a64(b"SAFECKPT body");
        let b = fnv1a64(b"SAFECKPT bodz");
        assert_ne!(a, b);
    }
}
