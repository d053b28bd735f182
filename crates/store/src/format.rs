//! The on-disk record format: framing, checksums, and the recovery scan
//! primitive.
//!
//! A store file is an 8-byte magic header followed by back-to-back
//! records. Every record is self-describing and self-checking:
//!
//! ```text
//! ┌────────────┬──────────────┬──────────────────────────────────────┐
//! │ body_len   │ checksum     │ body (body_len bytes)                │
//! │ u32 LE     │ u64 LE       │ ┌──────┬────────┬─────────┬────────┐ │
//! │            │ fnv1a(body)  │ │ key  │ schema │ config  │ payload│ │
//! │            │              │ │ u64  │ u32 LE │ fprint  │ bytes  │ │
//! │            │              │ │ LE   │        │ u64 LE  │        │ │
//! └────────────┴──────────────┴─┴──────┴────────┴─────────┴────────┘─┘
//! ```
//!
//! The layout makes three recovery judgements mechanical:
//!
//! * **Torn tail** — the file ends inside a record header or body
//!   (a crash mid-append). Everything before the tear is intact; the tear
//!   itself is dropped and the file truncated back to the last boundary.
//! * **Corrupt record** — the framing is plausible but the checksum does
//!   not match (bit rot, or a tear whose length field survived). The
//!   record is skipped as dead bytes; scanning continues at the next
//!   frame.
//! * **Stale record** — the checksum matches but `schema_version` is not
//!   ours. The record is well-formed under some other format revision;
//!   it is ignored rather than mis-decoded.

/// File magic: identifies a store log and its container revision. A file
/// that does not start with these bytes is not ours (or predates us) and
/// is recycled wholesale.
pub const MAGIC: [u8; 8] = *b"OPTSTOR1";

/// Version of the *record body* layout plus the payload encoding the
/// owning layer writes. Bump on any incompatible change; recovery drops
/// records carrying any other version.
///
/// Also bumped when the allocator's *results* change under unchanged
/// cache keys: version 2 retires allocations made before dead parameters
/// joined the entry clique, some of which clobbered a live parameter.
pub const SCHEMA_VERSION: u32 = 2;

/// Bytes of framing before the body: `u32` body length + `u64` checksum.
pub const RECORD_HEADER_LEN: usize = 4 + 8;

/// Fixed bytes at the start of every body: key, schema version, config
/// fingerprint. The payload is whatever follows.
pub const BODY_PREFIX_LEN: usize = 8 + 4 + 8;

/// FNV-1a over `bytes`: the record checksum. Stable across processes,
/// dependency-free, and plenty for detecting torn writes and bit rot
/// (this is an integrity check, not an adversarial MAC).
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Serialize one record. `schema_version` is a parameter (rather than
/// always [`SCHEMA_VERSION`]) so tests can fabricate stale records with
/// valid checksums.
pub fn encode_record(key: u64, schema_version: u32, fingerprint: u64, payload: &[u8]) -> Vec<u8> {
    let body_len = BODY_PREFIX_LEN + payload.len();
    let mut out = Vec::with_capacity(RECORD_HEADER_LEN + body_len);
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    out.extend_from_slice(&[0u8; 8]); // checksum backpatched below
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&schema_version.to_le_bytes());
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(payload);
    let sum = checksum(&out[RECORD_HEADER_LEN..]);
    out[4..12].copy_from_slice(&sum.to_le_bytes());
    out
}

/// One record as judged by the recovery scan.
#[derive(Debug, PartialEq, Eq)]
pub enum ScannedRecord<'a> {
    /// Checksum verified; fields decoded. `record_len` covers header +
    /// body, i.e. the distance to the next record.
    Valid {
        /// Content address of the entry.
        key: u64,
        /// The [`SCHEMA_VERSION`] the writer stamped (callers decide
        /// whether it is current).
        schema_version: u32,
        /// The allocator-configuration fingerprint stamped at write time.
        fingerprint: u64,
        /// The opaque payload.
        payload: &'a [u8],
        /// Total on-disk footprint of this record.
        record_len: usize,
    },
    /// Framing plausible but checksum mismatch; skip `record_len` bytes.
    Corrupt {
        /// Total on-disk footprint of the bad record.
        record_len: usize,
    },
    /// The file ends mid-record (or the length field is nonsense): nothing
    /// at or after this offset can be trusted. Truncate here.
    Torn,
}

/// Judge the record starting at `offset` inside `bytes`.
pub fn scan_record(bytes: &[u8], offset: usize) -> ScannedRecord<'_> {
    let rest = &bytes[offset..];
    if rest.len() < RECORD_HEADER_LEN {
        return ScannedRecord::Torn;
    }
    let body_len = u32::from_le_bytes(rest[0..4].try_into().expect("4 bytes")) as usize;
    if body_len < BODY_PREFIX_LEN || rest.len() < RECORD_HEADER_LEN + body_len {
        // Either the write tore inside the body, or the length field
        // itself is garbage. Both destroy framing: there is no trustworthy
        // way to find the next record boundary.
        return ScannedRecord::Torn;
    }
    let record_len = RECORD_HEADER_LEN + body_len;
    let stored = u64::from_le_bytes(rest[4..12].try_into().expect("8 bytes"));
    let body = &rest[RECORD_HEADER_LEN..record_len];
    if checksum(body) != stored {
        return ScannedRecord::Corrupt { record_len };
    }
    ScannedRecord::Valid {
        key: u64::from_le_bytes(body[0..8].try_into().expect("8 bytes")),
        schema_version: u32::from_le_bytes(body[8..12].try_into().expect("4 bytes")),
        fingerprint: u64::from_le_bytes(body[12..20].try_into().expect("8 bytes")),
        payload: &body[BODY_PREFIX_LEN..],
        record_len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_then_scan_round_trips() {
        let rec = encode_record(0xfeed, SCHEMA_VERSION, 0xbeef, b"payload");
        match scan_record(&rec, 0) {
            ScannedRecord::Valid {
                key,
                schema_version,
                fingerprint,
                payload,
                record_len,
            } => {
                assert_eq!(key, 0xfeed);
                assert_eq!(schema_version, SCHEMA_VERSION);
                assert_eq!(fingerprint, 0xbeef);
                assert_eq!(payload, b"payload");
                assert_eq!(record_len, rec.len());
            }
            other => panic!("expected valid, got {other:?}"),
        }
    }

    #[test]
    fn flipped_payload_byte_is_corrupt_not_torn() {
        let mut rec = encode_record(1, SCHEMA_VERSION, 2, b"abcdef");
        let last = rec.len() - 1;
        rec[last] ^= 0x40;
        assert_eq!(
            scan_record(&rec, 0),
            ScannedRecord::Corrupt {
                record_len: rec.len()
            }
        );
    }

    #[test]
    fn short_reads_are_torn() {
        let rec = encode_record(1, SCHEMA_VERSION, 2, b"abcdef");
        for cut in [
            0,
            RECORD_HEADER_LEN - 1,
            RECORD_HEADER_LEN + 3,
            rec.len() - 1,
        ] {
            assert_eq!(
                scan_record(&rec[..cut], 0),
                ScannedRecord::Torn,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn garbage_length_field_is_torn() {
        let mut rec = encode_record(1, SCHEMA_VERSION, 2, b"abcdef");
        rec[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(scan_record(&rec, 0), ScannedRecord::Torn);
        // A length too small to even hold the body prefix is equally fatal.
        rec[0..4].copy_from_slice(&3u32.to_le_bytes());
        assert_eq!(scan_record(&rec, 0), ScannedRecord::Torn);
    }

    #[test]
    fn checksum_is_stable_across_processes() {
        // Pinned: on-disk data written by one build must verify in the next.
        assert_eq!(checksum(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(checksum(b"optimist-store"), {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for &b in b"optimist-store" {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            h
        });
    }
}
