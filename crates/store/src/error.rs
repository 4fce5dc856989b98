//! Typed storage errors.
//!
//! The recovery contract of the crate hinges on the distinction between
//! two failure shapes at the tail of the write-ahead log:
//!
//! * a **torn tail** — the process died mid-append, leaving a record
//!   whose frame runs past end-of-file. That is the *expected* crash
//!   artifact of an interrupted write; recovery silently truncates the
//!   log back to its last complete, checksummed record and reports the
//!   dropped byte count (the never-acknowledged suffix).
//! * **corruption** — a fully present record whose checksum does not
//!   match, a non-monotone LSN, or an undecodable payload. That is bit
//!   rot or foul play, not a crash; recovery refuses to open rather
//!   than guess, surfacing a typed [`StoreError::WalCorrupt`] /
//!   [`StoreError::SnapshotCorrupt`] so the operator decides. Partial
//!   state is never served.

use std::fmt;
use std::io;
use std::path::PathBuf;

/// Errors from the durable store.
#[derive(Debug)]
pub enum StoreError {
    /// An operating-system I/O failure (open, write, fsync, rename, …).
    Io {
        /// The file or directory the operation touched.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// A snapshot file is present but fails validation (bad magic,
    /// truncated body, checksum mismatch, undecodable payload). The
    /// store refuses to open: serving a half-read snapshot would
    /// silently drop committed state.
    SnapshotCorrupt {
        /// The offending snapshot file.
        path: PathBuf,
        /// What failed.
        detail: String,
    },
    /// A fully present WAL record fails validation (checksum mismatch,
    /// non-monotone LSN, undecodable payload). Distinct from a torn
    /// tail, which is auto-recovered; see the module docs.
    WalCorrupt {
        /// Byte offset of the offending record's frame in the log.
        offset: u64,
        /// What failed.
        detail: String,
    },
    /// The log is internally consistent but does not replay over the
    /// snapshot (e.g. an `AppendRow` for a table no snapshot or earlier
    /// record established).
    Replay {
        /// What failed.
        detail: String,
    },
    /// A CRC-valid payload that does not decode — shared by the WAL and
    /// snapshot decoders, wrapped into their typed errors at the call
    /// site.
    Malformed {
        /// What failed.
        detail: String,
    },
    /// A previous append failed, so the log's no-gaps invariant can no
    /// longer be guaranteed; the store refuses further appends
    /// (fail-stop) until reopened.
    Poisoned,
}

impl StoreError {
    /// Shorthand for [`StoreError::Malformed`].
    pub fn malformed(detail: impl Into<String>) -> Self {
        StoreError::Malformed {
            detail: detail.into(),
        }
    }
}

/// A decode failure of the shared byte codec is a malformed payload.
impl From<paq_relational::codec::CodecError> for StoreError {
    fn from(e: paq_relational::codec::CodecError) -> Self {
        StoreError::malformed(e.0)
    }
}

/// What to say about a file that does not open with `want`: an older
/// format of ours (same family, different version digits — refused, not
/// migrated) or not our file at all.
pub(crate) fn bad_magic(what: &str, got: &[u8], want: &[u8; 8]) -> String {
    let want = String::from_utf8_lossy(want);
    if got[..6] == want.as_bytes()[..6] {
        format!(
            "unsupported {what} format {} (this build reads only {want})",
            String::from_utf8_lossy(got)
        )
    } else {
        format!("bad magic (not a PAQ {what} file)")
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, source } => {
                write!(f, "storage I/O error on {}: {source}", path.display())
            }
            StoreError::SnapshotCorrupt { path, detail } => {
                write!(f, "corrupt snapshot {}: {detail}", path.display())
            }
            StoreError::WalCorrupt { offset, detail } => {
                write!(f, "corrupt WAL record at offset {offset}: {detail}")
            }
            StoreError::Replay { detail } => write!(f, "WAL replay failed: {detail}"),
            StoreError::Malformed { detail } => write!(f, "malformed stored payload: {detail}"),
            StoreError::Poisoned => write!(
                f,
                "store is poisoned by an earlier append failure; reopen to recover"
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Result alias for the storage layer.
pub type StoreResult<T> = Result<T, StoreError>;
