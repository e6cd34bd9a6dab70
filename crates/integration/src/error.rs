//! Error type for data integration operations.

use std::fmt;

/// Convenience alias for integration results.
pub type Result<T> = std::result::Result<T, IntegrationError>;

/// Errors produced while computing or applying DI metadata.
#[derive(Debug, Clone, PartialEq)]
pub enum IntegrationError {
    /// A tgd could not be parsed.
    TgdParse(String),
    /// The requested column does not exist in a source or target schema.
    UnknownColumn(String),
    /// Inconsistent metadata (e.g. a compressed mapping index out of range).
    InvalidMetadata(String),
    /// Schema matching / entity resolution produced no usable result.
    NoMatches(String),
    /// An input table has no rows; integration scenarios are only
    /// defined over non-empty sources.
    EmptyTable(String),
    /// A table has more rows than entity resolution can index.
    TooManyRows(String),
    /// Error bubbled up from the relational substrate.
    Relational(String),
    /// Error bubbled up from the matrix substrate.
    Matrix(String),
}

impl fmt::Display for IntegrationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntegrationError::TgdParse(m) => write!(f, "tgd parse error: {m}"),
            IntegrationError::UnknownColumn(c) => write!(f, "unknown column: {c}"),
            IntegrationError::InvalidMetadata(m) => write!(f, "invalid metadata: {m}"),
            IntegrationError::NoMatches(m) => write!(f, "no matches: {m}"),
            IntegrationError::EmptyTable(t) => write!(f, "empty table: {t} has no rows"),
            IntegrationError::TooManyRows(m) => write!(f, "too many rows: {m}"),
            IntegrationError::Relational(m) => write!(f, "relational error: {m}"),
            IntegrationError::Matrix(m) => write!(f, "matrix error: {m}"),
        }
    }
}

impl std::error::Error for IntegrationError {}

impl From<amalur_relational::RelationalError> for IntegrationError {
    fn from(e: amalur_relational::RelationalError) -> Self {
        IntegrationError::Relational(e.to_string())
    }
}

impl From<amalur_matrix::MatrixError> for IntegrationError {
    fn from(e: amalur_matrix::MatrixError) -> Self {
        IntegrationError::Matrix(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        assert!(IntegrationError::TgdParse("x".into())
            .to_string()
            .contains("tgd"));
        let rel = amalur_relational::RelationalError::UnknownColumn("c".into());
        let e: IntegrationError = rel.into();
        assert!(matches!(e, IntegrationError::Relational(_)));
        let m = amalur_matrix::MatrixError::Singular;
        let e: IntegrationError = m.into();
        assert!(matches!(e, IntegrationError::Matrix(_)));
    }
}
