//! Column storage: one attribute's values over a row set — a table's whole
//! column or a slice of it gathered for the rows `Ix` of a task.

use tsjson::{Deserialize, Serialize};

/// Sentinel code for a missing categorical value.
pub const MISSING_CAT: u32 = u32::MAX;

/// One attribute column, stored contiguously.
///
/// Missing values are `NaN` for numeric columns and [`MISSING_CAT`] for
/// categorical columns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Column {
    /// Numeric (ordinal) values.
    Numeric(Vec<f64>),
    /// Categorical codes.
    Categorical(Vec<u32>),
}

impl Column {
    /// Number of rows in the column.
    pub fn len(&self) -> usize {
        match self {
            Column::Numeric(v) => v.len(),
            Column::Categorical(v) => v.len(),
        }
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at `row`.
    ///
    /// # Panics
    /// Panics if `row` is out of range.
    pub fn value(&self, row: usize) -> Value {
        match self {
            Column::Numeric(v) => {
                let x = v[row];
                if x.is_nan() {
                    Value::Missing
                } else {
                    Value::Num(x)
                }
            }
            Column::Categorical(v) => {
                let c = v[row];
                if c == MISSING_CAT {
                    Value::Missing
                } else {
                    Value::Cat(c)
                }
            }
        }
    }

    /// Gathers the values at the given row ids into a new column, in order:
    /// its row `i` is this column's row `rows[i]`.
    ///
    /// This is the operation a data-serving worker performs when a key worker
    /// requests the rows `Ix` of a column it holds.
    pub fn gather(&self, rows: &[u32]) -> Column {
        match self {
            Column::Numeric(v) => Column::Numeric(rows.iter().map(|&r| v[r as usize]).collect()),
            Column::Categorical(v) => {
                Column::Categorical(rows.iter().map(|&r| v[r as usize]).collect())
            }
        }
    }

    /// In-memory size of the column payload in bytes (used for memory and
    /// wire accounting).
    pub fn payload_bytes(&self) -> usize {
        match self {
            Column::Numeric(v) => v.len() * std::mem::size_of::<f64>(),
            Column::Categorical(v) => v.len() * std::mem::size_of::<u32>(),
        }
    }

    /// Number of missing entries.
    pub fn n_missing(&self) -> usize {
        match self {
            Column::Numeric(v) => v.iter().filter(|x| x.is_nan()).count(),
            Column::Categorical(v) => v.iter().filter(|&&c| c == MISSING_CAT).count(),
        }
    }

    /// The raw numeric values, if this is a numeric column.
    pub fn as_numeric(&self) -> Option<&[f64]> {
        match self {
            Column::Numeric(v) => Some(v),
            Column::Categorical(_) => None,
        }
    }

    /// The raw categorical codes, if this is a categorical column.
    pub fn as_categorical(&self) -> Option<&[u32]> {
        match self {
            Column::Categorical(v) => Some(v),
            Column::Numeric(_) => None,
        }
    }
}

/// A single attribute value, as observed for one row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// A numeric value.
    Num(f64),
    /// A categorical code.
    Cat(u32),
    /// Missing.
    Missing,
}

impl Value {
    /// Whether this value is missing.
    pub fn is_missing(&self) -> bool {
        matches!(self, Value::Missing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_column_values_and_missing() {
        let c = Column::Numeric(vec![1.0, f64::NAN, 3.5]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.value(0), Value::Num(1.0));
        assert!(c.value(1).is_missing());
        assert_eq!(c.n_missing(), 1);
        assert_eq!(c.payload_bytes(), 24);
    }

    #[test]
    fn categorical_column_values_and_missing() {
        let c = Column::Categorical(vec![2, MISSING_CAT, 0]);
        assert_eq!(c.value(0), Value::Cat(2));
        assert!(c.value(1).is_missing());
        assert_eq!(c.n_missing(), 1);
        assert_eq!(c.payload_bytes(), 12);
    }

    #[test]
    fn gather_preserves_request_order() {
        let c = Column::Numeric(vec![10.0, 11.0, 12.0, 13.0]);
        let g = c.gather(&[3, 1]);
        assert_eq!(g, Column::Numeric(vec![13.0, 11.0]));
        assert_eq!(g.value(0), Value::Num(13.0));
    }

    #[test]
    fn gather_positions_on_buffer() {
        // A gathered slice is a column: gathering it again reads positions.
        let b = Column::Categorical(vec![5, 6, 7, 8]).gather(&[1, 2, 3]);
        let g = b.gather(&[2, 0]);
        assert_eq!(g, Column::Categorical(vec![8, 6]));
    }

    #[test]
    fn empty_buffers() {
        assert!(Column::Numeric(vec![]).is_empty());
        assert!(Column::Categorical(vec![]).gather(&[]).is_empty());
        assert!(Column::Numeric(vec![1.0]).gather(&[]).is_empty());
    }
}
