//! The trace binary: [`Row`]s in one fixed column-major layout.
//!
//! On-disk layout (all integers little-endian):
//!
//! ```text
//! magic    b"FVTR0001"                      8 bytes
//! ncols    u32, always 9
//! nrows    u64
//! columns  column-major: for each column of COLUMNS, nrows cells at
//!          its width (u8 1, u32 4, u64/f64 8 bytes)
//! ```
//!
//! Cells are raw bit patterns, so floats round-trip exactly (`-0.0`
//! and NaN payloads included) and byte identity reduces to integer
//! equality. The JSON sidecar repeats [`COLUMNS`] so the pair is
//! self-describing; readers check it against this layout.

use crate::{Row, KINDS};
use std::fmt;

/// The row layout as `(name, type)` pairs in encoded order; the
/// sidecar's `columns` list.
pub const COLUMNS: [(&str, &str); 9] = [
    ("t_ns", "u64"),
    ("origin", "u32"),
    ("seq", "u32"),
    ("kind", "u8"),
    ("ue", "u32"),
    ("a", "u32"),
    ("b", "u32"),
    ("v0", "f64"),
    ("v1", "f64"),
];

const MAGIC: &[u8; 8] = b"FVTR0001";
const HEADER: usize = 8 + 4 + 8;

fn width(ty: &str) -> usize {
    match ty {
        "u8" => 1,
        "u32" => 4,
        _ => 8,
    }
}

/// A row's cells in [`COLUMNS`] order, as bit patterns.
fn cells(r: &Row) -> [u64; 9] {
    [
        r.t_ns,
        r.origin.into(),
        r.seq.into(),
        r.kind.into(),
        r.ue.into(),
        r.a.into(),
        r.b.into(),
        r.v0.to_bits(),
        r.v1.to_bits(),
    ]
}

/// Decode failure with enough context to name the corrupt part.
#[derive(Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer does not start with the `FVTR0001` magic.
    BadMagic,
    /// The header's column count is not the 9 of [`COLUMNS`].
    ColumnCount {
        /// Count stored in the binary header.
        header: u32,
    },
    /// The header claims more rows than any buffer can hold.
    TooManyRows {
        /// Row count stored in the binary header.
        rows: u64,
    },
    /// The buffer ends before the declared cells do.
    Truncated {
        /// Bytes the header claims.
        need: usize,
        /// Bytes actually present.
        have: usize,
    },
    /// Bytes remain after the last declared cell.
    TrailingBytes {
        /// How many bytes are left over.
        extra: usize,
    },
    /// A row's kind code is reserved or unknown: [`KINDS`] names no
    /// event for it.
    UnknownKind {
        /// Index of the first such row.
        row: usize,
        /// Its kind code.
        kind: u8,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "bad magic (not a FVTR0001 trace)"),
            DecodeError::ColumnCount { header } => write!(
                f,
                "header says {header} columns, the trace row has {}",
                COLUMNS.len()
            ),
            DecodeError::TooManyRows { rows } => {
                write!(f, "header claims {rows} rows, more than any buffer holds")
            }
            DecodeError::Truncated { need, have } => {
                write!(f, "truncated: need {need} bytes, have {have}")
            }
            DecodeError::TrailingBytes { extra } => write!(f, "{extra} trailing bytes"),
            DecodeError::UnknownKind { row, kind } => {
                write!(f, "row {row} has kind code {kind}, which names no event")
            }
        }
    }
}

/// Serialises rows to the trace binary.
#[must_use]
pub fn encode(rows: &[Row]) -> Vec<u8> {
    let row_bytes: usize = COLUMNS.iter().map(|&(_, ty)| width(ty)).sum();
    let mut out = Vec::with_capacity(HEADER + row_bytes * rows.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(COLUMNS.len() as u32).to_le_bytes());
    out.extend_from_slice(&(rows.len() as u64).to_le_bytes());
    for (c, &(_, ty)) in COLUMNS.iter().enumerate() {
        let w = width(ty);
        for r in rows {
            out.extend_from_slice(&cells(r)[c].to_le_bytes()[..w]);
        }
    }
    out
}

/// Decodes a trace binary, checking its header against the fixed
/// layout and its length against the header before allocating, and
/// every kind code against [`KINDS`].
pub fn decode(bytes: &[u8]) -> Result<Vec<Row>, DecodeError> {
    if bytes.len() < HEADER {
        return Err(DecodeError::Truncated {
            need: HEADER,
            have: bytes.len(),
        });
    }
    if &bytes[..8] != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let header = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    if header as usize != COLUMNS.len() {
        return Err(DecodeError::ColumnCount { header });
    }
    let mut count = [0u8; 8];
    count.copy_from_slice(&bytes[12..HEADER]);
    let rows = u64::from_le_bytes(count);
    let row_bytes: usize = COLUMNS.iter().map(|&(_, ty)| width(ty)).sum();
    let (n, need) = usize::try_from(rows)
        .ok()
        .and_then(|n| Some((n, n.checked_mul(row_bytes)?.checked_add(HEADER)?)))
        .ok_or(DecodeError::TooManyRows { rows })?;
    if bytes.len() < need {
        return Err(DecodeError::Truncated {
            need,
            have: bytes.len(),
        });
    }
    if bytes.len() > need {
        return Err(DecodeError::TrailingBytes {
            extra: bytes.len() - need,
        });
    }
    let widths = COLUMNS.map(|(_, ty)| width(ty));
    let mut at = HEADER;
    let columns = widths.map(|w| {
        let col = &bytes[at..at + w * n];
        at += col.len();
        col
    });
    // The `kind` column: one byte a row.
    let named = |kind: u8| KINDS.get(usize::from(kind)).is_some_and(Option::is_some);
    if let Some((row, &kind)) = columns[3].iter().enumerate().find(|&(_, &k)| !named(k)) {
        return Err(DecodeError::UnknownKind { row, kind });
    }
    let cell = |c: usize, i: usize| {
        let w = widths[c];
        let mut b = [0u8; 8];
        b[..w].copy_from_slice(&columns[c][i * w..(i + 1) * w]);
        u64::from_le_bytes(b)
    };
    Ok((0..n)
        .map(|i| Row {
            t_ns: cell(0, i),
            origin: cell(1, i) as u32,
            seq: cell(2, i) as u32,
            kind: cell(3, i) as u8,
            ue: cell(4, i) as u32,
            a: cell(5, i) as u32,
            b: cell(6, i) as u32,
            v0: f64::from_bits(cell(7, i)),
            v1: f64::from_bits(cell(8, i)),
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Float bits that a plain float strategy would rarely draw.
    fn float_bits() -> impl Strategy<Value = u64> {
        prop_oneof![
            any::<u64>(),
            Just((-0.0f64).to_bits()),
            Just(f64::NAN.to_bits()),
            Just(0x7ff0_0000_0000_0001),
            Just(f64::NEG_INFINITY.to_bits()),
        ]
    }

    /// Rows of random cells, each with a kind code that [`KINDS`] names.
    fn any_rows() -> impl Strategy<Value = Vec<Row>> {
        let named: Vec<u8> = (0..KINDS.len() as u8)
            .filter(|&k| KINDS[usize::from(k)].is_some())
            .collect();
        prop::collection::vec(
            (
                any::<u64>(),
                any::<u64>(),
                any::<u64>(),
                any::<u64>(),
                float_bits(),
                float_bits(),
            ),
            0..40,
        )
        .prop_map(move |cells| {
            cells
                .into_iter()
                .map(|(t_ns, ids, k, ab, v0, v1)| Row {
                    t_ns,
                    origin: ids as u32,
                    seq: (ids >> 32) as u32,
                    kind: named[k as usize % named.len()],
                    ue: (k >> 8) as u32,
                    a: ab as u32,
                    b: (ab >> 32) as u32,
                    v0: f64::from_bits(v0),
                    v1: f64::from_bits(v1),
                })
                .collect()
        })
    }

    proptest! {
        /// Random rows, with `-0.0`, NaN and infinity float bits mixed
        /// in: every cell decodes to its exact bits, and re-encoding
        /// is byte-identical.
        #[test]
        fn round_trip_is_byte_identical(rows in any_rows()) {
            let bytes = encode(&rows);
            let back = decode(&bytes).expect("decode");
            prop_assert_eq!(
                back.iter().map(cells).collect::<Vec<_>>(),
                rows.iter().map(cells).collect::<Vec<_>>()
            );
            prop_assert_eq!(&encode(&back), &bytes);
        }
    }

    #[test]
    fn float_bit_patterns_survive() {
        let floats = [
            -0.0f64,
            f64::NAN,
            f64::INFINITY,
            f64::from_bits(0x7ff0_0000_0000_0001),
        ];
        let rows: Vec<Row> = floats
            .iter()
            .map(|&v| Row {
                t_ns: 0,
                origin: 0,
                seq: 0,
                kind: 0,
                ue: 0,
                a: 0,
                b: 0,
                v0: v,
                v1: -v,
            })
            .collect();
        let back = decode(&encode(&rows)).expect("decode");
        assert_eq!(
            back.iter().map(cells).collect::<Vec<_>>(),
            rows.iter().map(cells).collect::<Vec<_>>()
        );
    }

    #[test]
    fn errors_name_the_problem() {
        let row = Row {
            t_ns: 7,
            origin: 1,
            seq: 2,
            kind: 3,
            ue: 4,
            a: 5,
            b: 6,
            v0: 0.5,
            v1: -0.5,
        };
        let bytes = encode(&[row]);
        assert_eq!(bytes.len(), HEADER + 45);
        assert_eq!(
            decode(&bytes[..3]),
            Err(DecodeError::Truncated { need: 20, have: 3 })
        );
        assert_eq!(
            decode(&bytes[..30]),
            Err(DecodeError::Truncated { need: 65, have: 30 })
        );
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(decode(&bad), Err(DecodeError::BadMagic));
        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(decode(&long), Err(DecodeError::TrailingBytes { extra: 1 }));
        let mut one_col = bytes.clone();
        one_col[8] = 1;
        assert_eq!(
            decode(&one_col),
            Err(DecodeError::ColumnCount { header: 1 })
        );
        // 45 bytes a row times 2^61 rows overflows any usize: an error,
        // not an allocation.
        let mut huge = bytes[..HEADER].to_vec();
        huge[12..].copy_from_slice(&(1u64 << 61).to_le_bytes());
        assert_eq!(
            decode(&huge),
            Err(DecodeError::TooManyRows { rows: 1 << 61 })
        );
        // The kind column follows t_ns, origin and seq (8 + 4 + 4 bytes
        // for one row): reserved code 5 and unknown code 9 are rejected.
        for kind in [5, 9] {
            let mut unnamed = bytes.clone();
            unnamed[HEADER + 16] = kind;
            assert_eq!(
                decode(&unnamed),
                Err(DecodeError::UnknownKind { row: 0, kind })
            );
        }
    }
}
