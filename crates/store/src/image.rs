//! Snapshot images: plain-data mirrors of the engine state the store
//! persists.
//!
//! The store does not depend on `paq-db` (the dependency points the
//! other way), so these types restate just enough of the catalog,
//! partition-cache, and router-telemetry shapes to round-trip them
//! through disk. `paq-db` maps its own types into images when
//! snapshotting and back out during recovery.

use paq_partition::Partitioning;
use paq_relational::Table;
use std::sync::Arc;

use paq_relational::codec::{decode_table, encode_table, put_string, put_u64, Cursor};

use crate::codec::{decode_partitioning, encode_partitioning};
use crate::error::{StoreError, StoreResult};

/// One catalog table as of a snapshot: its display name, the catalog
/// version stamped on the entry, and the full data.
#[derive(Debug, Clone)]
pub struct TableImage {
    /// Display name as registered (case preserved).
    pub name: String,
    /// Catalog version of the entry (equals the LSN that produced it).
    pub version: u64,
    /// The table contents.
    pub table: Arc<Table>,
    /// Rows covered by the partitioned "main" copy under delta-aware
    /// maintenance: rows `[0, main_rows)` were present when the base
    /// partitioning was (re)built; rows past it are the absorbed delta.
    /// Equals `table.num_rows()` when maintenance is off.
    pub main_rows: u64,
}

/// How a cached partitioning was keyed: built on demand for a size
/// threshold, or installed externally under an allocated id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecImage {
    /// Built for `PARTITION BY SIZE tau`.
    BySize {
        /// The size threshold.
        tau: u64,
    },
    /// Installed via `install_partitioning`, keyed by an allocated id.
    External {
        /// The allocated external id.
        id: u64,
    },
}

/// One cached partitioning as of a snapshot.
#[derive(Debug, Clone)]
pub struct PartitioningImage {
    /// Lower-cased catalog key of the table it covers.
    pub table_key: String,
    /// Table version the partitioning was built against.
    pub version: u64,
    /// Attribute list the cache entry was keyed on (may be broader than
    /// `partitioning.attributes`).
    pub attributes: Vec<String>,
    /// The cache key's spec component.
    pub spec: SpecImage,
    /// The partitioning itself.
    pub partitioning: Arc<Partitioning>,
}

/// Which execution strategy a telemetry observation measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// Direct (whole-table) evaluation.
    Direct,
    /// SketchRefine evaluation.
    SketchRefine,
}

/// One router-telemetry observation as of a snapshot. Field meanings
/// mirror the engine's `QueryFeatures`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryImage {
    /// Table row count the query ran against.
    pub rows: u64,
    /// Number of constraints in the query.
    pub constraints: u64,
    /// Encoded REPEAT bound (`k + 1`; `0` means unlimited).
    pub repeat_bound: u64,
    /// Partitioning size threshold in effect.
    pub tau: u64,
    /// The strategy that was measured.
    pub strategy: StrategyKind,
    /// Observed cost in nanoseconds.
    pub cost_nanos: u64,
}

/// Which mutation kind an acked idempotency token belongs to — enough
/// to reconstruct the exact ack response on recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckKind {
    /// The token acked a `RegisterTable`.
    Register,
    /// The token acked an `AppendRow`.
    Append,
}

/// One acked `(token → version)` pair persisted so a retried mutation
/// that straddles a crash+recover is deduplicated, not applied twice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AckImage {
    /// The client-chosen idempotency token.
    pub token: u64,
    /// The catalog version the acked mutation produced.
    pub version: u64,
    /// Which mutation kind was acked.
    pub kind: AckKind,
}

/// The full persisted state: everything a snapshot captures and
/// recovery republishes.
#[derive(Debug, Clone, Default)]
pub struct StoreState {
    /// Highest catalog version ever issued (monotone across drops).
    pub last_version: u64,
    /// All live tables.
    pub tables: Vec<TableImage>,
    /// All cached partitionings still valid for a live table version.
    pub partitionings: Vec<PartitioningImage>,
    /// The router telemetry ring, oldest first.
    pub telemetry: Vec<TelemetryImage>,
    /// Acked idempotency tokens, oldest first (bounded by the engine).
    pub acked_tokens: Vec<AckImage>,
}

/// Append an encoding of `state` to `out`.
pub fn encode_state(out: &mut Vec<u8>, state: &StoreState) {
    put_u64(out, state.last_version);
    put_u64(out, state.tables.len() as u64);
    for t in &state.tables {
        put_string(out, &t.name);
        put_u64(out, t.version);
        encode_table(out, &t.table);
        put_u64(out, t.main_rows);
    }
    put_u64(out, state.partitionings.len() as u64);
    for p in &state.partitionings {
        put_string(out, &p.table_key);
        put_u64(out, p.version);
        put_u64(out, p.attributes.len() as u64);
        for a in &p.attributes {
            put_string(out, a);
        }
        match p.spec {
            SpecImage::BySize { tau } => {
                out.push(0);
                put_u64(out, tau);
            }
            SpecImage::External { id } => {
                out.push(1);
                put_u64(out, id);
            }
        }
        encode_partitioning(out, &p.partitioning);
    }
    put_u64(out, state.telemetry.len() as u64);
    for o in &state.telemetry {
        put_u64(out, o.rows);
        put_u64(out, o.constraints);
        put_u64(out, o.repeat_bound);
        put_u64(out, o.tau);
        out.push(match o.strategy {
            StrategyKind::Direct => 0,
            StrategyKind::SketchRefine => 1,
        });
        put_u64(out, o.cost_nanos);
    }
    put_u64(out, state.acked_tokens.len() as u64);
    for a in &state.acked_tokens {
        put_u64(out, a.token);
        put_u64(out, a.version);
        out.push(match a.kind {
            AckKind::Register => 0,
            AckKind::Append => 1,
        });
    }
}

/// Decode a state encoded by [`encode_state`].
pub fn decode_state(cur: &mut Cursor<'_>) -> StoreResult<StoreState> {
    let last_version = cur.u64()?;
    let ntables = cur.count(48)?; // name + version + schema + rows + main_rows
    let mut tables = Vec::with_capacity(ntables);
    for _ in 0..ntables {
        let name = cur.string()?;
        let version = cur.u64()?;
        let table = Arc::new(decode_table(cur)?);
        let main_rows = cur.u64()?;
        tables.push(TableImage {
            name,
            version,
            table,
            main_rows,
        });
    }
    let nparts = cur.count(49)?; // key + version + attrs + spec + partitioning
    let mut partitionings = Vec::with_capacity(nparts);
    for _ in 0..nparts {
        let table_key = cur.string()?;
        let version = cur.u64()?;
        let nattrs = cur.count(8)?;
        let mut attributes = Vec::with_capacity(nattrs);
        for _ in 0..nattrs {
            attributes.push(cur.string()?);
        }
        let spec = match cur.u8()? {
            0 => SpecImage::BySize { tau: cur.u64()? },
            1 => SpecImage::External { id: cur.u64()? },
            tag => {
                return Err(StoreError::malformed(format!(
                    "unknown partition spec tag {tag}"
                )))
            }
        };
        let partitioning = Arc::new(decode_partitioning(cur)?);
        partitionings.push(PartitioningImage {
            table_key,
            version,
            attributes,
            spec,
            partitioning,
        });
    }
    let nobs = cur.count(41)?;
    let mut telemetry = Vec::with_capacity(nobs);
    for _ in 0..nobs {
        let rows = cur.u64()?;
        let constraints = cur.u64()?;
        let repeat_bound = cur.u64()?;
        let tau = cur.u64()?;
        let strategy = match cur.u8()? {
            0 => StrategyKind::Direct,
            1 => StrategyKind::SketchRefine,
            tag => return Err(StoreError::malformed(format!("unknown strategy tag {tag}"))),
        };
        let cost_nanos = cur.u64()?;
        telemetry.push(TelemetryImage {
            rows,
            constraints,
            repeat_bound,
            tau,
            strategy,
            cost_nanos,
        });
    }
    let nacks = cur.count(17)?;
    let mut acked_tokens = Vec::with_capacity(nacks);
    for _ in 0..nacks {
        let token = cur.u64()?;
        let version = cur.u64()?;
        let kind = match cur.u8()? {
            0 => AckKind::Register,
            1 => AckKind::Append,
            tag => return Err(StoreError::malformed(format!("unknown ack kind tag {tag}"))),
        };
        acked_tokens.push(AckImage {
            token,
            version,
            kind,
        });
    }
    Ok(StoreState {
        last_version,
        tables,
        partitionings,
        telemetry,
        acked_tokens,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use paq_partition::Group;
    use paq_relational::{DataType, Schema, Value};
    use std::time::Duration;

    fn tiny_table() -> Table {
        let mut t = Table::new(Schema::from_pairs(&[("x", DataType::Int)]));
        t.push_row(vec![Value::Int(7)]).unwrap();
        t.push_row(vec![Value::Null]).unwrap();
        t
    }

    #[test]
    fn state_round_trips() {
        let state = StoreState {
            last_version: 42,
            tables: vec![TableImage {
                name: "Galaxy".into(),
                version: 3,
                table: Arc::new(tiny_table()),
                main_rows: 2,
            }],
            partitionings: vec![PartitioningImage {
                table_key: "galaxy".into(),
                version: 3,
                attributes: vec!["x".into()],
                spec: SpecImage::BySize { tau: 8 },
                partitioning: Arc::new(Partitioning {
                    attributes: vec!["x".into()],
                    groups: vec![Group {
                        gid: 0,
                        rows: vec![0, 1],
                        representative: vec![3.5],
                        radius: 3.5,
                    }],
                    build_time: Duration::from_millis(2),
                }),
            }],
            telemetry: vec![TelemetryImage {
                rows: 2,
                constraints: 1,
                repeat_bound: 1,
                tau: 8,
                strategy: StrategyKind::SketchRefine,
                cost_nanos: 1_000_000,
            }],
            acked_tokens: vec![
                AckImage {
                    token: 0xA1,
                    version: 2,
                    kind: AckKind::Register,
                },
                AckImage {
                    token: 0xA2,
                    version: 3,
                    kind: AckKind::Append,
                },
            ],
        };
        let mut buf = Vec::new();
        encode_state(&mut buf, &state);
        let mut cur = Cursor::new(&buf);
        let decoded = decode_state(&mut cur).unwrap();
        cur.finish().unwrap();
        assert_eq!(decoded.last_version, 42);
        assert_eq!(decoded.tables.len(), 1);
        assert_eq!(decoded.tables[0].name, "Galaxy");
        assert_eq!(*decoded.tables[0].table, tiny_table());
        assert_eq!(decoded.partitionings.len(), 1);
        assert_eq!(decoded.partitionings[0].spec, SpecImage::BySize { tau: 8 });
        assert_eq!(
            decoded.partitionings[0].partitioning.groups[0].rows,
            vec![0, 1]
        );
        assert_eq!(decoded.tables[0].main_rows, 2);
        assert_eq!(decoded.telemetry, state.telemetry);
        assert_eq!(decoded.acked_tokens, state.acked_tokens);
    }

    #[test]
    fn empty_state_round_trips() {
        let mut buf = Vec::new();
        encode_state(&mut buf, &StoreState::default());
        let mut cur = Cursor::new(&buf);
        let decoded = decode_state(&mut cur).unwrap();
        cur.finish().unwrap();
        assert_eq!(decoded.last_version, 0);
        assert!(decoded.tables.is_empty());
        assert!(decoded.partitionings.is_empty());
        assert!(decoded.telemetry.is_empty());
        assert!(decoded.acked_tokens.is_empty());
    }
}
