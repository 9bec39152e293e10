//! The on-disk entry container: a one-line versioned header carrying the
//! payload length and an FNV-1a checksum, followed by the raw payload.
//!
//! ```text
//! wwt-store 1 <payload-len> <fnv1a-16-hex>\n
//! <payload bytes>
//! ```
//!
//! The header makes every read self-validating: a torn write (short
//! payload), a flipped bit (checksum mismatch), a foreign or pre-store
//! file (bad magic), and version skew are all distinguishable from a
//! healthy entry *before* any caller tries to parse the payload. The
//! payload itself is opaque bytes — the store never interprets it.

/// Magic token opening every entry header.
pub const ENTRY_MAGIC: &str = "wwt-store";

/// Container version. Bump when the header layout changes; old entries
/// then decode as [`DecodeError::Version`] instead of misparsing.
pub const ENTRY_VERSION: u32 = 1;

/// 64-bit FNV-1a — the one implementation behind the run-cache key,
/// `ArchParams::stable_hash`, and the payload checksum: fast,
/// dependency-free, and more than strong enough to catch torn writes and
/// bit rot (this is an integrity check against accident, not an
/// adversary).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Why an entry's bytes failed to decode. The variants matter only for
/// diagnostics (fsck reports, corrupt-entry warnings); every one of them
/// means "treat as corrupt".
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// No `wwt-store` magic: a foreign file, or an entry written before
    /// the store existed.
    Magic,
    /// A future (or unparseable) container version.
    Version,
    /// The header line itself is malformed.
    Header,
    /// The payload is shorter than the header promised (torn write).
    Truncated {
        /// Bytes the header declared.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// The payload checksum does not match the header (bit rot, or a
    /// partially overwritten entry).
    Checksum,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Magic => f.write_str("not a wwt-store entry (bad magic)"),
            DecodeError::Version => f.write_str("unknown wwt-store container version"),
            DecodeError::Header => f.write_str("malformed wwt-store header"),
            DecodeError::Truncated { expected, actual } if actual < expected => {
                write!(f, "truncated payload ({actual} of {expected} bytes)")
            }
            DecodeError::Truncated { expected, actual } => {
                write!(
                    f,
                    "payload length mismatch ({actual} bytes, header says {expected})"
                )
            }
            DecodeError::Checksum => f.write_str("payload checksum mismatch"),
        }
    }
}

/// Wraps a payload in the checksummed container.
pub fn encode(payload: &[u8]) -> Vec<u8> {
    let header = format!(
        "{ENTRY_MAGIC} {ENTRY_VERSION} {} {:016x}\n",
        payload.len(),
        fnv1a(payload)
    );
    let mut out = Vec::with_capacity(header.len() + payload.len());
    out.extend_from_slice(header.as_bytes());
    out.extend_from_slice(payload);
    out
}

/// Unwraps and verifies a container, returning the payload bytes.
pub fn decode(bytes: &[u8]) -> Result<Vec<u8>, DecodeError> {
    let nl = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or(DecodeError::Magic)?;
    let header = std::str::from_utf8(&bytes[..nl]).map_err(|_| DecodeError::Magic)?;
    let mut fields = header.split(' ');
    if fields.next() != Some(ENTRY_MAGIC) {
        return Err(DecodeError::Magic);
    }
    let version: u32 = fields
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or(DecodeError::Version)?;
    if version != ENTRY_VERSION {
        return Err(DecodeError::Version);
    }
    let len: usize = fields
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or(DecodeError::Header)?;
    let sum = fields
        .next()
        .filter(|s| s.len() == 16)
        .and_then(|v| u64::from_str_radix(v, 16).ok())
        .ok_or(DecodeError::Header)?;
    if fields.next().is_some() {
        return Err(DecodeError::Header);
    }
    let payload = &bytes[nl + 1..];
    if payload.len() != len {
        return Err(DecodeError::Truncated {
            expected: len,
            actual: payload.len(),
        });
    }
    if fnv1a(payload) != sum {
        return Err(DecodeError::Checksum);
    }
    Ok(payload.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trips_arbitrary_bytes() {
        for payload in [
            &b""[..],
            b"hello",
            b"line\nline\nline",
            &[0u8, 255, 1, 254, 10, 13],
        ] {
            let enc = encode(payload);
            assert_eq!(decode(&enc).unwrap(), payload, "{payload:?}");
        }
    }

    #[test]
    fn truncation_anywhere_is_detected() {
        let enc = encode(b"a payload long enough to truncate at many points");
        for cut in 0..enc.len() {
            assert!(decode(&enc[..cut]).is_err(), "cut at {cut} must not decode");
        }
    }

    #[test]
    fn single_bit_flips_are_detected() {
        let enc = encode(b"checksums catch bit rot");
        for i in 0..enc.len() {
            let mut bad = enc.clone();
            bad[i] ^= 0x10;
            assert_ne!(
                decode(&bad).ok().as_deref(),
                Some(&b"checksums catch bit rot"[..]),
                "flip at byte {i}"
            );
        }
    }

    #[test]
    fn foreign_and_legacy_files_fail_with_magic() {
        assert_eq!(
            decode(b"wwt-run-cache 2\nexperiment x\n"),
            Err(DecodeError::Magic)
        );
        assert_eq!(
            decode(b"\x00\xff\x01garbage\nmore"),
            Err(DecodeError::Magic)
        );
        assert_eq!(decode(b"no newline at all"), Err(DecodeError::Magic));
    }

    #[test]
    fn future_versions_fail_with_version() {
        let mut enc = encode(b"x");
        let text = String::from_utf8(enc.clone()).unwrap();
        enc = text
            .replacen("wwt-store 1 ", "wwt-store 2 ", 1)
            .into_bytes();
        assert_eq!(decode(&enc), Err(DecodeError::Version));
    }

    #[test]
    fn header_field_damage_is_malformed_not_a_panic() {
        assert_eq!(decode(b"wwt-store 1\n"), Err(DecodeError::Header));
        assert_eq!(
            decode(b"wwt-store 1 notanum 0123456789abcdef\n"),
            Err(DecodeError::Header)
        );
        assert_eq!(decode(b"wwt-store 1 0 short\n"), Err(DecodeError::Header));
        assert_eq!(
            decode(b"wwt-store 1 0 0123456789abcdef extra\n"),
            Err(DecodeError::Header)
        );
    }
}
