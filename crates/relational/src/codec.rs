//! The one byte codec: every table, schema and value that leaves this
//! process — in a wire frame, a WAL record or a snapshot image — is
//! written and read by the functions here, beside the [`Column`] /
//! [`ColumnChunk`] types they serialise.
//!
//! # Primitives
//!
//! `u8`; `u32` and `u64` (little-endian, fixed width); `f64` (IEEE bit
//! pattern, so NaN and signed zero round-trip exactly); `bool` (one
//! byte, `0`/`1` only); UTF-8 strings (`u64` byte length + bytes).
//! Options are a `bool` presence flag followed by the value; sequences
//! are a `u64` count followed by the elements. No padding, no
//! alignment. Decoding goes through the bounds-checked [`Cursor`]:
//! every short read, bad flag or oversized count is a typed
//! [`CodecError`], never a panic, and nothing is reserved beyond what
//! the bytes still unread could back.
//!
//! # Tables
//!
//! A [`Table`] is its schema, its row count, then per column a chunk
//! count and chunks of at most [`CHUNK_ROWS`] rows. Each chunk is
//! `rows u64 | body_len u64 | crc32 u32 | body`, so corruption
//! localises to one chunk and is detected before any value is decoded.
//! The body opens with a null bitmap (bit set = null) followed by the
//! typed payload:
//!
//! * `Int` — `width u8 | base i64 | rows × width` delta bytes (base is
//!   the minimum non-null value; null slots carry delta 0),
//! * `Float` — `rows × 8` IEEE-754 bit patterns (null slots carry 0.0),
//! * `Bool` — bit-packed, `ceil(rows / 8)` bytes,
//! * `Str` — per **non-null** value only: `u64` length + UTF-8 bytes.
//!
//! Null slots decode to the same `0`/`0.0`/`false`/`""` sentinels the
//! in-memory column holds, so a decoded table is structurally equal to
//! the one encoded.

use std::fmt;
use std::time::Duration;

use crate::schema::{ColumnDef, DataType, Schema};
use crate::table::{Column, ColumnChunk, Table};
use crate::value::Value;

/// Rows per column chunk: the unit of crc verification, and the bound
/// that keeps decode allocations proportional to verified input.
pub const CHUNK_ROWS: usize = 4096;

/// A payload that does not decode. The socket and the disk wrap it into
/// their own typed errors (`WireError::Malformed`,
/// `StoreError::Malformed`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CodecError {}

/// Result alias for decoding.
pub type CodecResult<T> = Result<T, CodecError>;

fn malformed<T>(detail: String) -> CodecResult<T> {
    Err(CodecError(detail))
}

// ---------------------------------------------------------------------
// Checksums
// ---------------------------------------------------------------------

/// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320) lookup table,
/// built at compile time — no dependency needed.
const CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// CRC32 checksum of `bytes` (IEEE, as used by gzip and Ethernet).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------
// Primitive decode
// ---------------------------------------------------------------------

/// Byte-slice decoding cursor. Every read is bounds-checked: asking for
/// more bytes than remain is a [`CodecError`] (the payload was fully
/// read off the stream or the file already, so a short one is
/// corruption, not a slow peer).
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor over `buf`, positioned at its start.
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consume exactly `n` bytes.
    pub fn take(&mut self, n: usize) -> CodecResult<&'a [u8]> {
        if n > self.remaining() {
            return malformed(format!(
                "payload needs {n} more bytes at offset {} of {}",
                self.pos,
                self.buf.len()
            ));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> CodecResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a bool; anything other than `0`/`1` is malformed.
    pub fn bool(&mut self) -> CodecResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => malformed(format!("bool byte {other}")),
        }
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> CodecResult<u32> {
        let bytes = self.take(4)?;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> CodecResult<u64> {
        let bytes = self.take(8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    /// Read a `u64` that must fit a `usize`.
    pub fn usize(&mut self) -> CodecResult<usize> {
        let v = self.u64()?;
        usize::try_from(v).or_else(|_| malformed(format!("count {v} overflows usize")))
    }

    /// A sequence count, sanity-bounded so a corrupt count cannot
    /// trigger a huge up-front allocation: `min_elem` is the smallest
    /// possible encoding of one element, so more elements than
    /// remaining bytes / `min_elem` cannot decode anyway.
    pub fn count(&mut self, min_elem: usize) -> CodecResult<usize> {
        let n = self.usize()?;
        let cap = self.remaining();
        if n.saturating_mul(min_elem.max(1)) > cap {
            return malformed(format!("count {n} exceeds the {cap} bytes remaining"));
        }
        Ok(n)
    }

    /// Read an `f64` bit pattern.
    pub fn f64(&mut self) -> CodecResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self) -> CodecResult<i64> {
        Ok(self.u64()? as i64)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> CodecResult<String> {
        let len = self.count(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .or_else(|e| malformed(format!("invalid utf-8 string: {e}")))
    }

    /// Read a [`Duration`] written by [`put_duration`].
    pub fn duration(&mut self) -> CodecResult<Duration> {
        Ok(Duration::from_nanos(self.u64()?))
    }

    /// Assert the payload is fully consumed (trailing bytes mean the
    /// encoder and decoder disagree about the format).
    pub fn finish(self) -> CodecResult<()> {
        match self.remaining() {
            0 => Ok(()),
            n => malformed(format!("{n} trailing bytes after the decoded value")),
        }
    }
}

// ---------------------------------------------------------------------
// Primitive encode
// ---------------------------------------------------------------------

/// Append a `u32`, little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64`, little-endian. Signed values travel as their
/// two's-complement bits (`v as u64`; read back with [`Cursor::i64`]).
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a bool as exactly `0` or `1`.
pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(v as u8);
}

/// Append an `f64` as its IEEE-754 bit pattern (NaN-safe round trip).
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Append a length-prefixed UTF-8 string.
pub fn put_string(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Append an optional `u64`: presence flag, then the value.
pub fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    put_bool(out, v.is_some());
    if let Some(v) = v {
        put_u64(out, v);
    }
}

/// Read an optional `u64` written by [`put_opt_u64`].
pub fn get_opt_u64(c: &mut Cursor<'_>) -> CodecResult<Option<u64>> {
    Ok(if c.bool()? { Some(c.u64()?) } else { None })
}

/// Append a [`Duration`] as whole nanoseconds (saturating at `u64`).
pub fn put_duration(out: &mut Vec<u8>, d: Duration) {
    put_u64(out, u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
}

// ---------------------------------------------------------------------
// Values and schemas
// ---------------------------------------------------------------------

/// Append a [`Value`] (tag byte + payload).
pub fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(0),
        Value::Bool(b) => {
            out.push(1);
            put_bool(out, *b);
        }
        Value::Int(i) => {
            out.push(2);
            put_u64(out, *i as u64);
        }
        Value::Float(f) => {
            out.push(3);
            put_f64(out, *f);
        }
        Value::Str(s) => {
            out.push(4);
            put_string(out, s);
        }
    }
}

/// Read a [`Value`].
pub fn get_value(c: &mut Cursor<'_>) -> CodecResult<Value> {
    Ok(match c.u8()? {
        0 => Value::Null,
        1 => Value::Bool(c.bool()?),
        2 => Value::Int(c.i64()?),
        3 => Value::Float(c.f64()?),
        4 => Value::Str(c.string()?),
        tag => return malformed(format!("value tag {tag}")),
    })
}

/// Append one row: a count, then each [`Value`].
pub fn put_values(out: &mut Vec<u8>, row: &[Value]) {
    put_u64(out, row.len() as u64);
    for v in row {
        put_value(out, v);
    }
}

/// Read a row written by [`put_values`].
pub fn get_values(c: &mut Cursor<'_>) -> CodecResult<Vec<Value>> {
    let n = c.count(1)?;
    (0..n).map(|_| get_value(c)).collect()
}

/// Append a [`Schema`]: arity, then each column's name and type tag.
pub fn put_schema(out: &mut Vec<u8>, schema: &Schema) {
    put_u64(out, schema.arity() as u64);
    for col in schema.columns() {
        put_string(out, &col.name);
        out.push(match col.ty {
            DataType::Int => 0,
            DataType::Float => 1,
            DataType::Bool => 2,
            DataType::Str => 3,
        });
    }
}

/// Read a [`Schema`]; duplicate column names are malformed.
pub fn get_schema(c: &mut Cursor<'_>) -> CodecResult<Schema> {
    let arity = c.count(9)?; // string length prefix + type tag
    let mut cols: Vec<ColumnDef> = Vec::with_capacity(arity);
    for _ in 0..arity {
        let name = c.string()?;
        let ty = match c.u8()? {
            0 => DataType::Int,
            1 => DataType::Float,
            2 => DataType::Bool,
            3 => DataType::Str,
            tag => return malformed(format!("data-type tag {tag}")),
        };
        if cols.iter().any(|d| d.name == name) {
            return malformed(format!("duplicate column {name:?}"));
        }
        cols.push(ColumnDef::new(name, ty));
    }
    Ok(Schema::new(cols))
}

// ---------------------------------------------------------------------
// Bitmaps and width-packed integers
// ---------------------------------------------------------------------

fn put_bitmap(out: &mut Vec<u8>, bits: &[bool]) {
    let start = out.len();
    out.resize(start + bits.len().div_ceil(8), 0);
    for (i, &set) in bits.iter().enumerate() {
        if set {
            out[start + i / 8] |= 1 << (i % 8);
        }
    }
}

fn get_bitmap(c: &mut Cursor<'_>, rows: usize) -> CodecResult<Vec<bool>> {
    let bytes = c.take(rows.div_ceil(8))?;
    Ok((0..rows)
        .map(|i| bytes[i / 8] & (1 << (i % 8)) != 0)
        .collect())
}

/// Byte width needed to hold every delta.
fn delta_width(max_delta: u64) -> u8 {
    match max_delta {
        0 => 0,
        d if d <= u64::from(u8::MAX) => 1,
        d if d <= u64::from(u16::MAX) => 2,
        d if d <= u64::from(u32::MAX) => 4,
        _ => 8,
    }
}

fn put_width_packed(out: &mut Vec<u8>, width: u8, deltas: impl Iterator<Item = u64>) {
    for d in deltas {
        out.extend_from_slice(&d.to_le_bytes()[..width as usize]);
    }
}

fn get_width(c: &mut Cursor<'_>) -> CodecResult<u8> {
    match c.u8()? {
        width @ (0 | 1 | 2 | 4 | 8) => Ok(width),
        w => malformed(format!("packed width {w}")),
    }
}

fn get_width_packed(body: &mut Cursor<'_>, width: u8, rows: usize) -> CodecResult<Vec<u64>> {
    if width == 0 {
        return Ok(vec![0; rows]);
    }
    let Some(len) = rows.checked_mul(width as usize) else {
        return malformed(format!("packed block of {rows} x {width} bytes overflows"));
    };
    let bytes = body.take(len)?;
    Ok(bytes
        .chunks_exact(width as usize)
        .map(|chunk| {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            u64::from_le_bytes(buf)
        })
        .collect())
}

/// Append one crc-guarded block: `body_len u64 | crc32 u32 | body`.
fn put_checked_body(out: &mut Vec<u8>, body: &[u8]) {
    put_u64(out, body.len() as u64);
    put_u32(out, crc32(body));
    out.extend_from_slice(body);
}

/// Read a block written by [`put_checked_body`], verifying its crc.
fn get_checked_body<'a>(c: &mut Cursor<'a>, what: impl fmt::Display) -> CodecResult<&'a [u8]> {
    let body_len = c.usize()?;
    let stated = c.u32()?;
    let body = c.take(body_len)?;
    if crc32(body) != stated {
        return malformed(format!("{what} crc mismatch"));
    }
    Ok(body)
}

/// Append one `u64` column: count, then a crc-guarded width-packed
/// block (`width u8 | base u64 | count × width` delta bytes, base being
/// the minimum).
pub fn put_u64_column(out: &mut Vec<u8>, values: &[u64]) {
    put_u64(out, values.len() as u64);
    let base = values.iter().copied().min().unwrap_or(0);
    let width = delta_width(values.iter().map(|&v| v - base).max().unwrap_or(0));
    let mut body = Vec::with_capacity(9 + values.len() * width as usize);
    body.push(width);
    put_u64(&mut body, base);
    put_width_packed(&mut body, width, values.iter().map(|&v| v - base));
    put_checked_body(out, &body);
}

/// Read a column written by [`put_u64_column`]. A width-0 column (every
/// value identical) occupies zero delta bytes, so the bytes remaining
/// cannot bound its element count; `max_len` — the most elements the
/// caller's frame or record could carry at one byte each — does.
pub fn get_u64_column(c: &mut Cursor<'_>, max_len: usize) -> CodecResult<Vec<u64>> {
    let rows = c.usize()?;
    let mut body = Cursor::new(get_checked_body(c, "u64 column")?);
    let width = get_width(&mut body)?;
    let base = body.u64()?;
    if rows.saturating_mul((width as usize).max(1)) > max_len {
        return malformed(format!(
            "u64 column count {rows} exceeds the {max_len} bound"
        ));
    }
    let deltas = get_width_packed(&mut body, width, rows)?;
    body.finish()?;
    Ok(deltas.into_iter().map(|d| base.wrapping_add(d)).collect())
}

// ---------------------------------------------------------------------
// Tables
// ---------------------------------------------------------------------

/// Append the chunked columnar encoding of `table` (layout in the
/// [module docs](self)).
pub fn encode_table(out: &mut Vec<u8>, table: &Table) {
    put_schema(out, table.schema());
    let rows = table.num_rows();
    put_u64(out, rows as u64);
    for idx in 0..table.schema().arity() {
        put_u64(out, rows.div_ceil(CHUNK_ROWS) as u64);
        for chunk in table.column_at(idx).chunks(CHUNK_ROWS) {
            put_u64(out, chunk.len() as u64);
            put_checked_body(out, &encode_chunk_body(&chunk));
        }
    }
}

fn encode_chunk_body(chunk: &ColumnChunk<'_>) -> Vec<u8> {
    let mut body = Vec::new();
    put_bitmap(&mut body, chunk.nulls());
    match chunk {
        ColumnChunk::Int { values, nulls } => {
            let live = values
                .iter()
                .zip(nulls.iter())
                .filter(|&(_, &null)| !null)
                .map(|(&v, _)| v);
            let base = live.clone().min().unwrap_or(0);
            // Deltas span at most the full i64 range, which fits u64.
            let delta = |v: i64| (v as i128 - base as i128) as u64;
            let width = delta_width(live.map(delta).max().unwrap_or(0));
            body.push(width);
            put_u64(&mut body, base as u64);
            put_width_packed(
                &mut body,
                width,
                values
                    .iter()
                    .zip(nulls.iter())
                    .map(|(&v, &null)| if null { 0 } else { delta(v) }),
            );
        }
        ColumnChunk::Float { values, .. } => {
            for v in *values {
                put_f64(&mut body, *v);
            }
        }
        ColumnChunk::Bool { values, .. } => put_bitmap(&mut body, values),
        ColumnChunk::Str { values, nulls } => {
            for (v, &null) in values.iter().zip(nulls.iter()) {
                if !null {
                    put_string(&mut body, v);
                }
            }
        }
    }
    body
}

/// Decode one verified chunk body of `rows` rows onto the end of
/// `column`. Every buffer grows only by what the body's bytes back: the
/// bitmap is taken before anything is sized by `rows`.
fn decode_chunk_into(column: &mut Column, body_bytes: &[u8], rows: usize) -> CodecResult<()> {
    let mut body = Cursor::new(body_bytes);
    let chunk_nulls = get_bitmap(&mut body, rows)?;
    match column {
        Column::Int { data, nulls } => {
            let width = get_width(&mut body)?;
            let base = body.i64()?;
            let deltas = get_width_packed(&mut body, width, rows)?;
            data.extend(deltas.iter().zip(&chunk_nulls).map(|(&d, &null)| {
                if null {
                    0
                } else {
                    base.wrapping_add(d as i64)
                }
            }));
            nulls.extend(chunk_nulls);
        }
        Column::Float { data, nulls } => {
            let bits = get_width_packed(&mut body, 8, rows)?;
            data.extend(bits.iter().zip(&chunk_nulls).map(|(&b, &null)| {
                if null {
                    0.0
                } else {
                    f64::from_bits(b)
                }
            }));
            nulls.extend(chunk_nulls);
        }
        Column::Bool { data, nulls } => {
            let bits = get_bitmap(&mut body, rows)?;
            data.extend(bits.iter().zip(&chunk_nulls).map(|(&b, &null)| b && !null));
            nulls.extend(chunk_nulls);
        }
        Column::Str { data, nulls } => {
            for &null in &chunk_nulls {
                data.push(if null { String::new() } else { body.string()? });
            }
            nulls.extend(chunk_nulls);
        }
    }
    body.finish()
}

/// Decode a table written by [`encode_table`], verifying every chunk
/// crc. The declared row count is trusted only as far as the remaining
/// bytes could back it; past that, columns grow chunk by chunk, each
/// bounded by its own verified bytes.
pub fn decode_table(c: &mut Cursor<'_>) -> CodecResult<Table> {
    let schema = get_schema(c)?;
    let total_rows = c.usize()?;
    let mut columns = Vec::with_capacity(schema.arity());
    for def in schema.columns() {
        // A chunk is at least its rows + body_len + crc header.
        let n_chunks = c.count(20)?;
        // Size the column once when the input can back the declared
        // count (an honest table decodes without regrowth, so it is
        // stored at its exact size), never beyond one slot per byte left.
        let mut column = Column::with_capacity(def.ty, total_rows.min(c.remaining()));
        for _ in 0..n_chunks {
            let rows = c.usize()?;
            let body = get_checked_body(c, format_args!("column '{}' chunk", def.name))?;
            if rows > total_rows - column.len() {
                return malformed(format!(
                    "column '{}' chunks exceed {total_rows} rows",
                    def.name
                ));
            }
            decode_chunk_into(&mut column, body, rows)?;
        }
        if column.len() != total_rows {
            return malformed(format!(
                "column '{}' has {} rows, table declares {total_rows}",
                def.name,
                column.len()
            ));
        }
        columns.push(column);
    }
    Table::from_columns(schema, columns)
        .or_else(|e| malformed(format!("columnar table rejected: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn primitives_round_trip() {
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::MAX);
        put_u64(&mut buf, -42i64 as u64);
        put_u32(&mut buf, 7);
        put_f64(&mut buf, f64::NAN);
        put_bool(&mut buf, true);
        put_string(&mut buf, "héllo");
        put_opt_u64(&mut buf, Some(9));
        put_opt_u64(&mut buf, None);
        put_duration(&mut buf, Duration::from_micros(1234));
        put_values(&mut buf, &[Value::Null, Value::Int(-1), Value::from("x")]);
        let mut cur = Cursor::new(&buf);
        assert_eq!(cur.u64().unwrap(), u64::MAX);
        assert_eq!(cur.i64().unwrap(), -42);
        assert_eq!(cur.u32().unwrap(), 7);
        assert!(cur.f64().unwrap().is_nan());
        assert!(cur.bool().unwrap());
        assert_eq!(cur.string().unwrap(), "héllo");
        assert_eq!(get_opt_u64(&mut cur).unwrap(), Some(9));
        assert_eq!(get_opt_u64(&mut cur).unwrap(), None);
        assert_eq!(cur.duration().unwrap(), Duration::from_micros(1234));
        assert_eq!(
            get_values(&mut cur).unwrap(),
            vec![Value::Null, Value::Int(-1), Value::from("x")]
        );
        cur.finish().unwrap();
    }

    #[test]
    fn bool_rejects_garbage_and_counts_are_bounded() {
        assert!(Cursor::new(&[7]).bool().is_err());
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::MAX);
        assert!(Cursor::new(&buf).count(8).is_err());
        assert!(Cursor::new(&buf).string().is_err());
        assert!(Cursor::new(&buf[..5]).u64().is_err());
        assert!(Cursor::new(&buf).finish().is_err());
    }

    #[test]
    fn u64_column_roundtrips_and_packs() {
        let values: Vec<u64> = (500..600).collect();
        let mut out = Vec::new();
        put_u64_column(&mut out, &values);
        // 100 deltas ≤ 99 fit one byte each: count + len + crc + header.
        assert_eq!(out.len(), 8 + 8 + 4 + 9 + 100);
        let mut c = Cursor::new(&out);
        assert_eq!(get_u64_column(&mut c, 1 << 20).unwrap(), values);
        c.finish().unwrap();
        // A constant column is all header — and its count is bounded by
        // the caller, since no byte backs it.
        let mut out = Vec::new();
        put_u64_column(&mut out, &[1; 50]);
        assert_eq!(out.len(), 8 + 8 + 4 + 9);
        assert_eq!(get_u64_column(&mut Cursor::new(&out), 50).unwrap(), [1; 50]);
        assert!(get_u64_column(&mut Cursor::new(&out), 49).is_err());
    }
}
