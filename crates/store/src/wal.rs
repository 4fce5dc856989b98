//! The write-ahead log: an append-only file of checksummed catalog
//! mutations.
//!
//! # File layout
//!
//! ```text
//! [8-byte magic "PAQWAL03"]
//! repeated records:
//!   [u32 payload_len][u32 crc32(payload)][payload]
//!   payload = [u64 lsn][u8 kind][kind-specific body]
//! ```
//!
//! Bodies are written with [`paq_relational::codec`] — the byte layout
//! the wire protocol uses: tables in crc-guarded column chunks, rows as
//! tagged values, names as `u64`-length strings.
//!
//! LSNs are the catalog versions stamped by the engine, strictly
//! increasing within the file. Because the engine appends while holding
//! its catalog write lock, file order equals LSN order with no gaps —
//! [`scan`] enforces strict monotonicity and treats a violation as
//! corruption, not a crash artifact.
//!
//! # Tail handling
//!
//! A record whose frame runs past end-of-file is a *torn tail* (the
//! process died mid-append): [`scan`] reports the valid prefix length
//! so the opener can truncate and continue. A fully present record that
//! fails its checksum or does not decode is *corruption* and aborts the
//! scan with a typed error — see [`crate::error`].

use paq_relational::{Table, Value};
use std::sync::Arc;

use paq_relational::codec::{
    crc32, decode_table, encode_table, get_opt_u64, get_values, put_opt_u64, put_string, put_u32,
    put_u64, put_values, Cursor,
};

use crate::error::{StoreError, StoreResult};

/// Magic bytes opening every WAL file; the trailing digits version the
/// record format (02 added the idempotency-token byte to mutation
/// records, 03 adopted the shared [`paq_relational::codec`] layout).
/// Logs of an older format are refused, not migrated.
pub const WAL_MAGIC: &[u8; 8] = b"PAQWAL03";

/// Upper bound on a single record's payload (1 GiB). A fully present
/// record claiming more is corruption, not a big table.
pub const MAX_RECORD: u32 = 1 << 30;

/// One logged catalog mutation.
#[derive(Debug, Clone)]
pub enum WalOp {
    /// A table was registered (or re-registered) under `name`.
    RegisterTable {
        /// Display name as registered.
        name: String,
        /// Full table contents at registration.
        table: Arc<Table>,
        /// Client idempotency token acked for this mutation, if any —
        /// persisted so a retry that straddles a crash+recover is still
        /// deduplicated instead of applied twice.
        token: Option<u64>,
    },
    /// A single row was appended to `name` — the common small-delta
    /// case, logged as the row alone rather than a full after-image.
    AppendRow {
        /// Display name of the target table.
        name: String,
        /// The appended row.
        row: Vec<Value>,
        /// Client idempotency token acked for this mutation, if any.
        token: Option<u64>,
    },
    /// A general mutation of `name`, logged as the full after-image.
    MutateTable {
        /// Display name of the target table.
        name: String,
        /// Complete table contents after the mutation.
        table: Arc<Table>,
    },
    /// The table `name` was dropped.
    DropTable {
        /// Display name of the dropped table.
        name: String,
    },
}

impl WalOp {
    /// The table name the operation targets.
    pub fn name(&self) -> &str {
        match self {
            WalOp::RegisterTable { name, .. }
            | WalOp::AppendRow { name, .. }
            | WalOp::MutateTable { name, .. }
            | WalOp::DropTable { name } => name,
        }
    }

    /// The idempotency token acked for this mutation, if one was
    /// carried (only register/append mutations carry tokens).
    pub fn token(&self) -> Option<u64> {
        match self {
            WalOp::RegisterTable { token, .. } | WalOp::AppendRow { token, .. } => *token,
            _ => None,
        }
    }
}

/// One WAL record: a log sequence number (the catalog version the
/// mutation produced) and the mutation itself.
#[derive(Debug, Clone)]
pub struct WalRecord {
    /// The catalog version stamped by this mutation.
    pub lsn: u64,
    /// The mutation.
    pub op: WalOp,
}

/// Encode `record` as a complete frame (length + checksum + payload),
/// ready to append to the log.
pub fn encode_record(record: &WalRecord) -> Vec<u8> {
    let mut payload = Vec::new();
    put_u64(&mut payload, record.lsn);
    match &record.op {
        WalOp::RegisterTable { name, table, token } => {
            payload.push(1);
            put_string(&mut payload, name);
            encode_table(&mut payload, table);
            put_opt_u64(&mut payload, *token);
        }
        WalOp::AppendRow { name, row, token } => {
            payload.push(2);
            put_string(&mut payload, name);
            put_values(&mut payload, row);
            put_opt_u64(&mut payload, *token);
        }
        WalOp::MutateTable { name, table } => {
            payload.push(3);
            put_string(&mut payload, name);
            encode_table(&mut payload, table);
        }
        WalOp::DropTable { name } => {
            payload.push(4);
            put_string(&mut payload, name);
        }
    }
    let mut frame = Vec::with_capacity(payload.len() + 8);
    put_u32(&mut frame, payload.len() as u32);
    put_u32(&mut frame, crc32(&payload));
    frame.extend_from_slice(&payload);
    frame
}

/// Decode a record payload (the bytes after the length/crc frame).
pub fn decode_payload(payload: &[u8]) -> StoreResult<WalRecord> {
    let mut cur = Cursor::new(payload);
    let lsn = cur.u64()?;
    let kind = cur.u8()?;
    let op = match kind {
        1 => WalOp::RegisterTable {
            name: cur.string()?,
            table: Arc::new(decode_table(&mut cur)?),
            token: get_opt_u64(&mut cur)?,
        },
        2 => WalOp::AppendRow {
            name: cur.string()?,
            row: get_values(&mut cur)?,
            token: get_opt_u64(&mut cur)?,
        },
        3 => WalOp::MutateTable {
            name: cur.string()?,
            table: Arc::new(decode_table(&mut cur)?),
        },
        4 => WalOp::DropTable {
            name: cur.string()?,
        },
        other => {
            return Err(StoreError::malformed(format!(
                "unknown WAL record kind {other}"
            )))
        }
    };
    cur.finish()?;
    Ok(WalRecord { lsn, op })
}

/// The result of scanning a WAL file's bytes.
#[derive(Debug)]
pub struct WalScan {
    /// All valid records, in file (= LSN) order.
    pub records: Vec<WalRecord>,
    /// Length of the valid prefix (magic + complete records). The
    /// opener truncates the file to this length.
    pub valid_len: u64,
    /// Bytes of torn tail dropped past `valid_len` (zero on a clean
    /// shutdown).
    pub dropped_bytes: u64,
}

/// Scan a full WAL file image, validating magic, framing, checksums,
/// payloads, and LSN monotonicity.
///
/// An empty file scans as a fresh log (the opener writes the magic). A
/// torn tail is reported via `valid_len`/`dropped_bytes`; corruption in
/// a fully present record aborts with [`StoreError::WalCorrupt`].
pub fn scan(bytes: &[u8]) -> StoreResult<WalScan> {
    if bytes.is_empty() {
        return Ok(WalScan {
            records: Vec::new(),
            valid_len: 0,
            dropped_bytes: 0,
        });
    }
    if bytes.len() < WAL_MAGIC.len() {
        // Died while writing the magic itself: the whole file is a torn
        // tail of a log that never held a record.
        return Ok(WalScan {
            records: Vec::new(),
            valid_len: 0,
            dropped_bytes: bytes.len() as u64,
        });
    }
    if &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Err(StoreError::WalCorrupt {
            offset: 0,
            detail: crate::error::bad_magic("WAL", &bytes[..WAL_MAGIC.len()], WAL_MAGIC),
        });
    }
    let mut records = Vec::new();
    let mut pos = WAL_MAGIC.len();
    let mut last_lsn: Option<u64> = None;
    loop {
        let remaining = bytes.len() - pos;
        if remaining == 0 {
            break;
        }
        if remaining < 8 {
            // Torn frame header.
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        if remaining - 8 < len {
            // The payload runs past EOF: torn tail, even if the claimed
            // length is absurd — a torn length field is still a crash
            // artifact as long as the record is not fully present.
            break;
        }
        if len as u32 > MAX_RECORD {
            return Err(StoreError::WalCorrupt {
                offset: pos as u64,
                detail: format!("record length {len} exceeds the {MAX_RECORD}-byte cap"),
            });
        }
        let payload = &bytes[pos + 8..pos + 8 + len];
        if crc32(payload) != crc {
            return Err(StoreError::WalCorrupt {
                offset: pos as u64,
                detail: "checksum mismatch".into(),
            });
        }
        let record = decode_payload(payload).map_err(|e| StoreError::WalCorrupt {
            offset: pos as u64,
            detail: e.to_string(),
        })?;
        if let Some(prev) = last_lsn {
            if record.lsn <= prev {
                return Err(StoreError::WalCorrupt {
                    offset: pos as u64,
                    detail: format!("LSN {} not greater than predecessor {prev}", record.lsn),
                });
            }
        }
        last_lsn = Some(record.lsn);
        records.push(record);
        pos += 8 + len;
    }
    Ok(WalScan {
        records,
        valid_len: pos as u64,
        dropped_bytes: (bytes.len() - pos) as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use paq_relational::{DataType, Schema};

    fn tiny_table() -> Arc<Table> {
        let mut t = Table::new(Schema::from_pairs(&[("x", DataType::Int)]));
        t.push_row(vec![Value::Int(1)]).unwrap();
        Arc::new(t)
    }

    fn sample_log() -> (Vec<u8>, usize) {
        let mut bytes = WAL_MAGIC.to_vec();
        let records = vec![
            WalRecord {
                lsn: 1,
                op: WalOp::RegisterTable {
                    name: "T".into(),
                    table: tiny_table(),
                    token: None,
                },
            },
            WalRecord {
                lsn: 2,
                op: WalOp::AppendRow {
                    name: "T".into(),
                    row: vec![Value::Int(9)],
                    token: Some(0xAB_CDEF),
                },
            },
            WalRecord {
                lsn: 3,
                op: WalOp::DropTable { name: "T".into() },
            },
        ];
        let n = records.len();
        for r in &records {
            bytes.extend_from_slice(&encode_record(r));
        }
        (bytes, n)
    }

    #[test]
    fn clean_log_scans_fully() {
        let (bytes, n) = sample_log();
        let scan = scan(&bytes).unwrap();
        assert_eq!(scan.records.len(), n);
        assert_eq!(scan.valid_len, bytes.len() as u64);
        assert_eq!(scan.dropped_bytes, 0);
        assert!(matches!(scan.records[1].op, WalOp::AppendRow { .. }));
        assert_eq!(scan.records[0].op.token(), None);
        assert_eq!(scan.records[1].op.token(), Some(0xAB_CDEF));
        assert_eq!(scan.records[2].lsn, 3);
    }

    #[test]
    fn empty_and_magic_only_logs_are_fresh() {
        let scan0 = scan(&[]).unwrap();
        assert_eq!(scan0.valid_len, 0);
        let scan1 = scan(WAL_MAGIC).unwrap();
        assert!(scan1.records.is_empty());
        assert_eq!(scan1.valid_len, WAL_MAGIC.len() as u64);
        assert_eq!(scan1.dropped_bytes, 0);
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let (bytes, n) = sample_log();
        // Chop the last record mid-payload.
        for cut in [1, 5, 9] {
            let torn = &bytes[..bytes.len() - cut];
            let scan = scan(torn).unwrap();
            assert_eq!(scan.records.len(), n - 1, "cut = {cut}");
            assert!(scan.dropped_bytes > 0);
            assert_eq!(
                scan.valid_len + scan.dropped_bytes,
                torn.len() as u64,
                "cut = {cut}"
            );
        }
    }

    #[test]
    fn bit_flip_in_a_complete_record_is_corruption() {
        let (mut bytes, _) = sample_log();
        // Flip a bit inside the second record's payload (well before the
        // file tail so the record stays fully present).
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        let err = scan(&bytes).unwrap_err();
        assert!(matches!(err, StoreError::WalCorrupt { .. }), "{err}");
    }

    #[test]
    fn non_monotone_lsn_is_corruption() {
        let mut bytes = WAL_MAGIC.to_vec();
        for lsn in [5u64, 5] {
            bytes.extend_from_slice(&encode_record(&WalRecord {
                lsn,
                op: WalOp::DropTable { name: "T".into() },
            }));
        }
        let err = scan(&bytes).unwrap_err();
        assert!(matches!(err, StoreError::WalCorrupt { .. }), "{err}");
    }

    #[test]
    fn bad_magic_is_corruption() {
        let err = scan(b"NOTAWAL!").unwrap_err();
        assert!(
            matches!(err, StoreError::WalCorrupt { offset: 0, .. }),
            "{err}"
        );
    }

    #[test]
    fn record_round_trips_through_frame() {
        let rec = WalRecord {
            lsn: 17,
            op: WalOp::MutateTable {
                name: "Galaxy".into(),
                table: tiny_table(),
            },
        };
        let frame = encode_record(&rec);
        let payload = &frame[8..];
        let decoded = decode_payload(payload).unwrap();
        assert_eq!(decoded.lsn, 17);
        match decoded.op {
            WalOp::MutateTable { name, table } => {
                assert_eq!(name, "Galaxy");
                assert_eq!(*table, *tiny_table());
            }
            other => panic!("wrong op: {other:?}"),
        }
    }
}
