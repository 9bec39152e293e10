//! The run cache's file handling: the checksummed entry container and
//! atomic publication.
//!
//! ```text
//! wwt-store 1 <payload-len> <fnv1a-16-hex>\n
//! <payload bytes>
//! ```
//!
//! The header makes every read self-validating: a torn write (short
//! payload), a flipped bit (checksum mismatch), a foreign file (bad
//! magic), and version skew are all told apart from a healthy entry
//! *before* anything parses the payload. The payload itself is opaque
//! bytes here; the parent module (de)serializes it.
//!
//! There are no locks. Entries are deterministic (one key, one set of
//! bytes) and [`atomic_write`] publishes by rename, so two writers racing
//! one key both leave a correct entry and a reader sees either no entry
//! or a whole one. A temp file a crash leaves behind never matches an
//! entry name, so it is inert and never read.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use wwt_sim::hash::fnv1a;

/// Magic token opening every entry header.
const ENTRY_MAGIC: &str = "wwt-store";

/// Container version. Bump when the header layout changes; old entries
/// then decode as [`DecodeError::Version`] instead of misparsing.
const ENTRY_VERSION: u32 = 1;

/// Why an entry's bytes failed to decode. The variants matter only for
/// the corrupt-entry warning; every one of them means "treat as corrupt".
#[derive(Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// No `wwt-store` magic: a foreign file, or an entry written before
    /// the container existed.
    Magic,
    /// A future (or unparseable) container version.
    Version,
    /// The header line itself is malformed.
    Header,
    /// The payload length differs from the header's (a torn write or
    /// appended bytes).
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

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
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

/// Why [`read`] returned no payload.
#[derive(Debug)]
pub enum ReadError {
    /// No file at that path: a plain miss.
    NotFound,
    /// The file exists but could not be read.
    Unreadable(io::Error),
    /// The file was read but failed validation.
    Corrupt(DecodeError),
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::NotFound => f.write_str("not found"),
            ReadError::Unreadable(err) => write!(f, "unreadable ({err})"),
            ReadError::Corrupt(why) => write!(f, "damaged ({why})"),
        }
    }
}

/// Reads and verifies the entry at `path`, returning its payload.
pub fn read(path: &Path) -> Result<Vec<u8>, ReadError> {
    let bytes = fs::read(path).map_err(|err| match err.kind() {
        io::ErrorKind::NotFound => ReadError::NotFound,
        _ => ReadError::Unreadable(err),
    })?;
    decode(&bytes).map_err(ReadError::Corrupt)
}

/// Per-process uniquifier for temp-file names, so two threads writing
/// the same path can never collide on one temp file.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Atomically replaces `path` with `bytes`: temp-file write + rename +
/// directory fsync, removing the temp file on failure. The run cache
/// publishes entries through it, and the bench log shares it.
pub fn atomic_write(path: impl AsRef<Path>, bytes: &[u8]) -> io::Result<()> {
    let path = path.as_ref();
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    if let Some(dir) = dir {
        fs::create_dir_all(dir)?;
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(
        ".tmp.{}.{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = PathBuf::from(tmp);
    if let Err(err) = fs::write(&tmp, bytes).and_then(|()| fs::rename(&tmp, path)) {
        let _ = fs::remove_file(&tmp);
        return Err(err);
    }
    // Make the rename durable. Best-effort: some filesystems refuse
    // directory fsync, and an entry that merely *might* vanish on power
    // loss is still a safe cache miss.
    if let Some(dir) = dir {
        let _ = fs::File::open(dir).and_then(|d| d.sync_all());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wwt-container-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

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
    fn header_layout_is_pinned() {
        assert_eq!(
            encode(b"hello"),
            format!("wwt-store 1 5 {:016x}\nhello", fnv1a(b"hello")).into_bytes()
        );
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
        let text = String::from_utf8(encode(b"x")).unwrap();
        let enc = text
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

    #[test]
    fn write_then_read_round_trips() {
        let dir = scratch("roundtrip");
        let path = dir.join("a.run");
        assert!(matches!(read(&path), Err(ReadError::NotFound)));
        atomic_write(&path, &encode(b"payload bytes")).unwrap();
        assert_eq!(read(&path).unwrap(), b"payload bytes");
        // Overwrite is atomic replacement.
        atomic_write(&path, &encode(b"new bytes")).unwrap();
        assert_eq!(read(&path).unwrap(), b"new bytes");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn hand_damage_reads_as_corrupt_not_garbage() {
        let dir = scratch("damage");
        let path = dir.join("a.run");
        atomic_write(&path, &encode(b"some healthy payload")).unwrap();
        let bytes = fs::read(&path).unwrap();
        // Truncate.
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert!(matches!(read(&path), Err(ReadError::Corrupt(_))));
        // Flip one payload bit.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        fs::write(&path, &flipped).unwrap();
        assert!(matches!(
            read(&path),
            Err(ReadError::Corrupt(DecodeError::Checksum))
        ));
        // Not a container at all.
        fs::write(&path, b"not a container").unwrap();
        assert!(matches!(
            read(&path),
            Err(ReadError::Corrupt(DecodeError::Magic))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_replaces_and_cleans_up() {
        let dir = scratch("atomic");
        let path = dir.join("sub").join("file.json");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        let siblings: Vec<_> = fs::read_dir(path.parent().unwrap())
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name())
            .collect();
        assert_eq!(siblings.len(), 1, "no temp leftovers: {siblings:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_atomic_write_leaves_no_temp_file() {
        let dir = scratch("atomic-fail");
        // Renaming a file over a non-empty directory fails.
        let path = dir.join("occupied");
        fs::create_dir_all(path.join("inside")).unwrap();
        assert!(atomic_write(&path, b"never lands").is_err());
        let names: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name())
            .collect();
        assert_eq!(names, ["occupied"], "leaked: {names:?}");
        let _ = fs::remove_dir_all(&dir);
    }
}
