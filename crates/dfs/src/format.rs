//! Binary on-disk format for column and label files.
//!
//! Deliberately simple and self-describing: a magic byte per file kind, a
//! column count, then per column a type tag, a length and raw little-endian
//! values. Missing values travel in-band (`NaN` bits / `MISSING_CAT`).

use ts_datatable::{Column, Labels};

const MAGIC_COLUMNS: u8 = 0xC1;
const MAGIC_LABELS: u8 = 0xC2;
const TAG_NUMERIC: u8 = 0;
const TAG_CATEGORICAL: u8 = 1;
const TAG_CLASS: u8 = 2;
const TAG_REAL: u8 = 3;

/// Corrupt-file errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormatError {
    /// File is shorter than its header/payload claims.
    Truncated,
    /// Unknown magic byte.
    BadMagic(u8),
    /// Unknown column/label type tag.
    BadTag(u8),
    /// A column or the labels change storage kind from one row-group's file
    /// to the next.
    KindChanged,
}

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FormatError::Truncated => write!(f, "file truncated"),
            FormatError::BadMagic(m) => write!(f, "bad magic byte {m:#x}"),
            FormatError::BadTag(t) => write!(f, "bad type tag {t}"),
            FormatError::KindChanged => write!(f, "storage kind changed between row-groups"),
        }
    }
}

impl std::error::Error for FormatError {}

/// Little-endian cursor over a byte slice; bounds are checked by the
/// callers via [`Reader::remaining`] before each fixed-size read.
struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes }
    }

    fn remaining(&self) -> usize {
        self.bytes.len()
    }

    fn take<const N: usize>(&mut self) -> [u8; N] {
        let (head, tail) = self.bytes.split_at(N);
        self.bytes = tail;
        head.try_into().expect("split_at returned N bytes")
    }

    fn get_u8(&mut self) -> u8 {
        self.take::<1>()[0]
    }

    fn get_u32_le(&mut self) -> u32 {
        u32::from_le_bytes(self.take::<4>())
    }

    fn get_u64_le(&mut self) -> u64 {
        u64::from_le_bytes(self.take::<8>())
    }

    fn get_f64_le(&mut self) -> f64 {
        f64::from_le_bytes(self.take::<8>())
    }
}

/// Serialises a set of columns into one file body.
pub fn write_columns(cols: &[Column]) -> Vec<u8> {
    let payload: usize = cols
        .iter()
        .map(|c| 1 + 8 + c.payload_bytes())
        .sum::<usize>();
    let mut buf = Vec::with_capacity(1 + 4 + payload);
    buf.push(MAGIC_COLUMNS);
    buf.extend_from_slice(&(cols.len() as u32).to_le_bytes());
    for c in cols {
        match c {
            Column::Numeric(v) => {
                buf.push(TAG_NUMERIC);
                buf.extend_from_slice(&(v.len() as u64).to_le_bytes());
                for &x in v {
                    buf.extend_from_slice(&x.to_le_bytes());
                }
            }
            Column::Categorical(v) => {
                buf.push(TAG_CATEGORICAL);
                buf.extend_from_slice(&(v.len() as u64).to_le_bytes());
                for &x in v {
                    buf.extend_from_slice(&x.to_le_bytes());
                }
            }
        }
    }
    buf
}

/// Parses a column file body.
pub fn read_columns(bytes: &[u8]) -> Result<Vec<Column>, FormatError> {
    let mut bytes = Reader::new(bytes);
    if bytes.remaining() < 5 {
        return Err(FormatError::Truncated);
    }
    let magic = bytes.get_u8();
    if magic != MAGIC_COLUMNS {
        return Err(FormatError::BadMagic(magic));
    }
    let n_cols = bytes.get_u32_le() as usize;
    let mut cols = Vec::with_capacity(n_cols);
    for _ in 0..n_cols {
        if bytes.remaining() < 9 {
            return Err(FormatError::Truncated);
        }
        let tag = bytes.get_u8();
        let len = bytes.get_u64_le() as usize;
        match tag {
            TAG_NUMERIC => {
                if bytes.remaining() < len * 8 {
                    return Err(FormatError::Truncated);
                }
                let mut v = Vec::with_capacity(len);
                for _ in 0..len {
                    v.push(bytes.get_f64_le());
                }
                cols.push(Column::Numeric(v));
            }
            TAG_CATEGORICAL => {
                if bytes.remaining() < len * 4 {
                    return Err(FormatError::Truncated);
                }
                let mut v = Vec::with_capacity(len);
                for _ in 0..len {
                    v.push(bytes.get_u32_le());
                }
                cols.push(Column::Categorical(v));
            }
            t => return Err(FormatError::BadTag(t)),
        }
    }
    Ok(cols)
}

/// Serialises a label slice into one file body.
pub fn write_labels(labels: &Labels) -> Vec<u8> {
    let mut buf = Vec::with_capacity(1 + 1 + 8 + labels.payload_bytes());
    buf.push(MAGIC_LABELS);
    match labels {
        Labels::Class(v) => {
            buf.push(TAG_CLASS);
            buf.extend_from_slice(&(v.len() as u64).to_le_bytes());
            for &x in v {
                buf.extend_from_slice(&x.to_le_bytes());
            }
        }
        Labels::Real(v) => {
            buf.push(TAG_REAL);
            buf.extend_from_slice(&(v.len() as u64).to_le_bytes());
            for &x in v {
                buf.extend_from_slice(&x.to_le_bytes());
            }
        }
    }
    buf
}

/// Parses a label file body.
pub fn read_labels(bytes: &[u8]) -> Result<Labels, FormatError> {
    let mut bytes = Reader::new(bytes);
    if bytes.remaining() < 10 {
        return Err(FormatError::Truncated);
    }
    let magic = bytes.get_u8();
    if magic != MAGIC_LABELS {
        return Err(FormatError::BadMagic(magic));
    }
    let tag = bytes.get_u8();
    let len = bytes.get_u64_le() as usize;
    match tag {
        TAG_CLASS => {
            if bytes.remaining() < len * 4 {
                return Err(FormatError::Truncated);
            }
            let mut v = Vec::with_capacity(len);
            for _ in 0..len {
                v.push(bytes.get_u32_le());
            }
            Ok(Labels::Class(v))
        }
        TAG_REAL => {
            if bytes.remaining() < len * 8 {
                return Err(FormatError::Truncated);
            }
            let mut v = Vec::with_capacity(len);
            for _ in 0..len {
                v.push(bytes.get_f64_le());
            }
            Ok(Labels::Real(v))
        }
        t => Err(FormatError::BadTag(t)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_datatable::MISSING_CAT;

    #[test]
    fn columns_roundtrip_with_missing() {
        let cols = vec![
            Column::Numeric(vec![1.5, f64::NAN, -3.0]),
            Column::Categorical(vec![0, MISSING_CAT, 7]),
        ];
        let bytes = write_columns(&cols);
        let back = read_columns(&bytes).unwrap();
        assert_eq!(back.len(), 2);
        match (&back[0], &cols[0]) {
            (Column::Numeric(a), Column::Numeric(b)) => {
                assert!(a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()))
            }
            _ => panic!(),
        }
        assert_eq!(back[1], cols[1]);
    }

    #[test]
    fn labels_roundtrip() {
        for l in [Labels::Class(vec![1, 2, 3]), Labels::Real(vec![0.5, -1.0])] {
            let bytes = write_labels(&l);
            assert_eq!(read_labels(&bytes).unwrap(), l);
        }
    }

    #[test]
    fn truncated_files_error() {
        let bytes = write_columns(&[Column::Numeric(vec![1.0, 2.0])]);
        assert_eq!(
            read_columns(&bytes[..bytes.len() - 4]),
            Err(FormatError::Truncated)
        );
        assert_eq!(read_columns(&[]), Err(FormatError::Truncated));
        let l = write_labels(&Labels::Real(vec![1.0]));
        assert_eq!(read_labels(&l[..5]), Err(FormatError::Truncated));
    }

    #[test]
    fn bad_magic_and_tag_error() {
        assert_eq!(
            read_columns(&[0xFF, 0, 0, 0, 0]),
            Err(FormatError::BadMagic(0xFF))
        );
        let mut bytes = write_columns(&[Column::Numeric(vec![])]).to_vec();
        bytes[5] = 9; // corrupt the first column's tag
        assert_eq!(read_columns(&bytes), Err(FormatError::BadTag(9)));
        let mut l = write_labels(&Labels::Class(vec![])).to_vec();
        l[1] = 9;
        assert_eq!(read_labels(&l), Err(FormatError::BadTag(9)));
    }

    #[test]
    fn empty_column_set_roundtrips() {
        let bytes = write_columns(&[]);
        assert_eq!(read_columns(&bytes).unwrap(), Vec::<Column>::new());
    }
}
