//! The byte codec's one property suite — it stands for every consumer,
//! since wire frames, WAL records and snapshot images all call the same
//! table encoder and decoder:
//!
//! * random tables with nulls, spanning chunk boundaries, round-trip;
//! * flipping or truncating any byte yields a typed error or a
//!   well-formed table — never a panic;
//! * no decode, of valid or damaged input, makes a single allocation
//!   out of proportion to the bytes it was given (a counting allocator
//!   watches the decoding thread).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use paq_relational::codec::{decode_table, encode_table, Cursor, CHUNK_ROWS};
use paq_relational::{ColumnDef, DataType, Schema, Table, Value};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Allocation watch
// ---------------------------------------------------------------------

thread_local! {
    /// Largest single allocation this thread has made since the last
    /// reset.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct Watching;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a thread-local
// `Cell` update (const-initialised, no destructor, so touching it never
// allocates or re-enters the allocator).
unsafe impl GlobalAlloc for Watching {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.with(|l| l.set(l.get().max(layout.size())));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.with(|l| l.set(l.get().max(new_size)));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Watching = Watching;

/// Bytes of one allocation the decoder may make per byte of input. The
/// worst legitimate case is an all-null string column: one bitmap byte
/// stands for eight 24-byte empty `String`s, and a growing `Vec` may
/// hold twice what it needs.
const ALLOC_PER_INPUT_BYTE: usize = 8 * 24 * 2;

/// Decode `bytes`, asserting the allocation bound whatever the outcome.
fn decode_watched(bytes: &[u8]) -> Result<Table, String> {
    LARGEST.with(|l| l.set(0));
    let mut cursor = Cursor::new(bytes);
    let decoded = decode_table(&mut cursor).and_then(|table| {
        cursor.finish()?;
        Ok(table)
    });
    let largest = LARGEST.with(Cell::get);
    let bound = bytes.len() * ALLOC_PER_INPUT_BYTE + 4096;
    assert!(
        largest <= bound,
        "decoding {} bytes made one allocation of {largest} bytes (bound {bound})",
        bytes.len()
    );
    decoded.map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------
// Tables
// ---------------------------------------------------------------------

/// A table of `rows` rows over `types`, every cell drawn from a
/// xorshift stream: about one cell in five null, integers of mixed
/// magnitude (so chunks pick different packed widths), floats including
/// NaN and −0.0.
fn table_from(types: &[DataType], rows: usize, seed: u64) -> Table {
    let schema = Schema::new(
        types
            .iter()
            .enumerate()
            .map(|(i, &ty)| ColumnDef::new(format!("c{i}"), ty))
            .collect(),
    );
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut table = Table::new(schema);
    for _ in 0..rows {
        let row = types
            .iter()
            .map(|ty| {
                let r = next();
                if r % 5 == 0 {
                    return Value::Null;
                }
                match ty {
                    DataType::Int => Value::Int((r as i64) >> (r % 64)),
                    DataType::Float => Value::Float(match r % 7 {
                        0 => f64::NAN,
                        1 => -0.0,
                        _ => f64::from_bits(next()),
                    }),
                    DataType::Bool => Value::Bool(r & 2 == 2),
                    DataType::Str => Value::Str(format!("s{}", r % 1000)),
                }
            })
            .collect();
        table.push_row(row).unwrap();
    }
    table
}

fn data_type(tag: u64) -> DataType {
    match tag % 4 {
        0 => DataType::Int,
        1 => DataType::Float,
        2 => DataType::Bool,
        _ => DataType::Str,
    }
}

/// 1–4 typed columns; mostly small tables, one in four long enough to
/// span two or three chunks.
fn table() -> impl Strategy<Value = Table> {
    (
        prop::collection::vec(any::<u64>(), 1..5),
        (0usize..40, 0usize..4, 0usize..2 * CHUNK_ROWS + 100),
        any::<u64>(),
    )
        .prop_map(|(tags, (small, pick, large), seed)| {
            let types: Vec<DataType> = tags.iter().map(|&t| data_type(t)).collect();
            let rows = if pick == 0 { large } else { small };
            table_from(&types, rows, seed)
        })
}

/// NaN-aware structural equality: cell for cell, floats by bit pattern.
fn same(a: &Table, b: &Table) -> bool {
    a.schema() == b.schema()
        && a.num_rows() == b.num_rows()
        && (0..a.num_rows()).all(|i| {
            a.row(i).iter().zip(&b.row(i)).all(|pair| match pair {
                (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
                (x, y) => x == y,
            })
        })
}

fn encoded(table: &Table) -> Vec<u8> {
    let mut out = Vec::new();
    encode_table(&mut out, table);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn tables_round_trip(table in table()) {
        let back = decode_watched(&encoded(&table)).unwrap();
        prop_assert!(same(&back, &table), "decoded table differs");
    }

    #[test]
    fn damaged_input_is_a_typed_error_or_a_well_formed_table(
        table in table(),
        pos in any::<u64>(),
        byte in any::<u64>(),
    ) {
        let bytes = encoded(&table);
        let at = (pos as usize) % bytes.len();

        // One byte replaced: a free byte (inside a column name) still
        // decodes, anything structural or checksummed fails typed.
        let mut flipped = bytes.clone();
        flipped[at] = byte as u8;
        if let Ok(decoded) = decode_watched(&flipped) {
            for idx in 0..decoded.schema().arity() {
                prop_assert_eq!(decoded.column_at(idx).len(), decoded.num_rows());
            }
        }

        // Every strict prefix fails: there is no shorter valid table
        // hiding inside a longer one.
        prop_assert!(decode_watched(&bytes[..at]).is_err(), "prefix of {at} bytes decoded");
    }
}

#[test]
fn chunk_boundaries_and_the_empty_table_round_trip() {
    let types = [
        DataType::Int,
        DataType::Float,
        DataType::Bool,
        DataType::Str,
    ];
    for rows in [0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 5] {
        let table = table_from(&types, rows, 0xC0DEC);
        let back = decode_watched(&encoded(&table)).unwrap();
        assert!(same(&back, &table), "rows = {rows}");
    }
}
