//! Snapshot files: a single checksummed image of the full
//! [`StoreState`], written atomically.
//!
//! # File layout
//!
//! ```text
//! [8-byte magic "PAQSNAP3"][u64 body_len][u32 crc32(body)][body]
//! body = encode_state(StoreState)
//! ```
//!
//! Snapshots are named `snap-<lsn as 16 hex digits>.paq`, so the file
//! name alone orders them and identifies the LSN up to which the
//! snapshot subsumes the WAL. Writes go to a `.tmp` sibling, fsync,
//! then rename over — a crash mid-snapshot leaves only a stray `.tmp`
//! the next open deletes, never a half-written `.paq`.
//!
//! Any validation failure on a present snapshot is fatal
//! ([`StoreError::SnapshotCorrupt`]): falling back to an older snapshot
//! would silently resurrect dropped state, so the store refuses to
//! open instead.

use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use paq_relational::codec::{crc32, put_u32, put_u64, Cursor};

use crate::error::{StoreError, StoreResult};
use crate::fault::{FaultDecision, FaultInjector, FaultSite};
use crate::image::{decode_state, encode_state, StoreState};

/// Magic bytes opening every snapshot file. The trailing digit
/// versions the body encoding: `2` added per-table `main_rows` and the
/// acked-token list, `3` adopted the shared [`paq_relational::codec`]
/// layout; older snapshots fail with a typed unsupported-format error
/// rather than misdecoding.
pub const SNAP_MAGIC: &[u8; 8] = b"PAQSNAP3";

/// File name for the snapshot taken at `lsn`.
pub fn snapshot_file_name(lsn: u64) -> String {
    format!("snap-{lsn:016x}.paq")
}

/// Parse a snapshot file name back to its LSN; `None` for other files.
pub fn parse_snapshot_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("snap-")?.strip_suffix(".paq")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

fn io_err(path: &Path, source: std::io::Error) -> StoreError {
    StoreError::Io {
        path: path.to_path_buf(),
        source,
    }
}

/// Serialize `state` to `dir/snap-<state.last_version>.paq` atomically
/// (tmp + fsync + rename + dir fsync), then delete any older snapshots
/// and stray `.tmp` files. Returns the final path and the encoded size.
pub fn write_snapshot(dir: &Path, state: &StoreState) -> StoreResult<(PathBuf, u64)> {
    write_snapshot_with(dir, state, None)
}

/// [`write_snapshot`] with an optional fault injector gating the write,
/// fsync, and rename steps. A failure at any step leaves the final
/// snapshot path untouched (at worst a stray `.tmp` the next open
/// deletes) — the caller's WAL stays authoritative.
pub fn write_snapshot_with(
    dir: &Path,
    state: &StoreState,
    injector: Option<&Arc<dyn FaultInjector>>,
) -> StoreResult<(PathBuf, u64)> {
    let mut body = Vec::new();
    encode_state(&mut body, state);
    let mut bytes = Vec::with_capacity(body.len() + 20);
    bytes.extend_from_slice(SNAP_MAGIC);
    put_u64(&mut bytes, body.len() as u64);
    put_u32(&mut bytes, crc32(&body));
    bytes.extend_from_slice(&body);

    let final_path = dir.join(snapshot_file_name(state.last_version));
    let tmp_path = final_path.with_extension("paq.tmp");
    {
        let mut f = File::create(&tmp_path).map_err(|e| io_err(&tmp_path, e))?;
        match injector {
            None => f.write_all(&bytes).map_err(|e| io_err(&tmp_path, e))?,
            Some(inj) => match inj.decide(FaultSite::SnapshotWrite, bytes.len()) {
                FaultDecision::Pass => f.write_all(&bytes).map_err(|e| io_err(&tmp_path, e))?,
                FaultDecision::Fail(e) => return Err(io_err(&tmp_path, e)),
                FaultDecision::ShortWrite { len, error } => {
                    let n = len.min(bytes.len());
                    let _ = f.write_all(&bytes[..n]).and_then(|()| f.sync_data());
                    return Err(io_err(&tmp_path, error));
                }
            },
        }
        crate::fault::gate(injector, FaultSite::SnapshotSync).map_err(|e| io_err(&tmp_path, e))?;
        f.sync_data().map_err(|e| io_err(&tmp_path, e))?;
    }
    crate::fault::gate(injector, FaultSite::SnapshotRename).map_err(|e| io_err(&final_path, e))?;
    fs::rename(&tmp_path, &final_path).map_err(|e| io_err(&final_path, e))?;
    // Persist the rename itself (directory metadata).
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    // Older snapshots and any stray temporaries are now garbage.
    for entry in fs::read_dir(dir).map_err(|e| io_err(dir, e))? {
        let entry = entry.map_err(|e| io_err(dir, e))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let stale_snap = parse_snapshot_name(&name).is_some_and(|lsn| lsn < state.last_version);
        // Our own tmp file was just renamed away, so any .paq.tmp left
        // is a stray from an earlier crash.
        let stray_tmp = name.ends_with(".paq.tmp");
        if stale_snap || stray_tmp {
            let _ = fs::remove_file(entry.path());
        }
    }
    let size = bytes.len() as u64;
    Ok((final_path, size))
}

/// Locate the newest snapshot in `dir` (by LSN in the file name),
/// deleting stray `.tmp` files along the way. Returns `None` for a
/// directory with no snapshot.
pub fn find_latest_snapshot(dir: &Path) -> StoreResult<Option<PathBuf>> {
    let mut best: Option<(u64, PathBuf)> = None;
    for entry in fs::read_dir(dir).map_err(|e| io_err(dir, e))? {
        let entry = entry.map_err(|e| io_err(dir, e))?;
        let name = entry.file_name();
        let name = name.to_string_lossy().into_owned();
        if name.ends_with(".paq.tmp") {
            // A crash mid-snapshot-write; the rename never happened.
            let _ = fs::remove_file(entry.path());
            continue;
        }
        if let Some(lsn) = parse_snapshot_name(&name) {
            if best.as_ref().is_none_or(|(b, _)| lsn > *b) {
                best = Some((lsn, entry.path()));
            }
        }
    }
    Ok(best.map(|(_, p)| p))
}

/// Read and validate the snapshot at `path`.
pub fn read_snapshot(path: &Path) -> StoreResult<StoreState> {
    let corrupt = |detail: String| StoreError::SnapshotCorrupt {
        path: path.to_path_buf(),
        detail,
    };
    let bytes = fs::read(path).map_err(|e| io_err(path, e))?;
    if bytes.len() < SNAP_MAGIC.len() + 12 {
        return Err(corrupt(format!("file is only {} bytes", bytes.len())));
    }
    if &bytes[..SNAP_MAGIC.len()] != SNAP_MAGIC {
        return Err(corrupt(crate::error::bad_magic(
            "snapshot",
            &bytes[..SNAP_MAGIC.len()],
            SNAP_MAGIC,
        )));
    }
    let mut header = Cursor::new(&bytes[SNAP_MAGIC.len()..SNAP_MAGIC.len() + 12]);
    let body_len = header.u64().map_err(|e| corrupt(e.to_string()))? as usize;
    let crc = header.u32().map_err(|e| corrupt(e.to_string()))?;
    let body_start = SNAP_MAGIC.len() + 12;
    if bytes.len() - body_start != body_len {
        return Err(corrupt(format!(
            "body is {} bytes, header says {body_len}",
            bytes.len() - body_start
        )));
    }
    let body = &bytes[body_start..];
    if crc32(body) != crc {
        return Err(corrupt("body checksum mismatch".into()));
    }
    let mut cur = Cursor::new(body);
    let state = decode_state(&mut cur).map_err(|e| corrupt(e.to_string()))?;
    cur.finish().map_err(|e| corrupt(e.to_string()))?;
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::TableImage;
    use paq_relational::{DataType, Schema, Table, Value};
    use std::sync::Arc;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("paq-store-snap-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_state(last_version: u64) -> StoreState {
        let mut t = Table::new(Schema::from_pairs(&[("x", DataType::Int)]));
        t.push_row(vec![Value::Int(3)]).unwrap();
        StoreState {
            last_version,
            tables: vec![TableImage {
                name: "T".into(),
                version: last_version,
                table: Arc::new(t),
                main_rows: 1,
            }],
            partitionings: Vec::new(),
            telemetry: Vec::new(),
            acked_tokens: Vec::new(),
        }
    }

    #[test]
    fn snapshot_round_trips_and_prunes_older() {
        let dir = temp_dir("roundtrip");
        write_snapshot(&dir, &sample_state(3)).unwrap();
        let (path, size) = write_snapshot(&dir, &sample_state(7)).unwrap();
        assert!(size > 0);
        assert_eq!(find_latest_snapshot(&dir).unwrap().unwrap(), path);
        // The older snapshot is gone.
        assert!(!dir.join(snapshot_file_name(3)).exists());
        let state = read_snapshot(&path).unwrap();
        assert_eq!(state.last_version, 7);
        assert_eq!(state.tables[0].name, "T");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stray_tmp_is_cleaned_and_ignored() {
        let dir = temp_dir("tmp");
        write_snapshot(&dir, &sample_state(2)).unwrap();
        let stray = dir.join("snap-00000000000000ff.paq.tmp");
        fs::write(&stray, b"half-written").unwrap();
        let latest = find_latest_snapshot(&dir).unwrap().unwrap();
        assert_eq!(latest, dir.join(snapshot_file_name(2)));
        assert!(!stray.exists(), "stray tmp should be deleted");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_snapshot_is_typed_corruption() {
        let dir = temp_dir("trunc");
        let (path, _) = write_snapshot(&dir, &sample_state(5)).unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let err = read_snapshot(&path).unwrap_err();
        assert!(matches!(err, StoreError::SnapshotCorrupt { .. }), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flipped_snapshot_is_typed_corruption() {
        let dir = temp_dir("flip");
        let (path, _) = write_snapshot(&dir, &sample_state(5)).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        fs::write(&path, &bytes).unwrap();
        let err = read_snapshot(&path).unwrap_err();
        assert!(matches!(err, StoreError::SnapshotCorrupt { .. }), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn names_parse_and_order() {
        assert_eq!(parse_snapshot_name(&snapshot_file_name(0x2a)), Some(0x2a));
        assert_eq!(parse_snapshot_name("snap-zz.paq"), None);
        assert_eq!(parse_snapshot_name("other.txt"), None);
    }
}
