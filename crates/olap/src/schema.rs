//! Cube schemas: named categorical dimensions.

use std::fmt;

/// Errors raised by schema and cube operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OlapError {
    /// A coordinate vector did not match the schema's dimensionality.
    ArityMismatch {
        /// Expected number of coordinates.
        expected: usize,
        /// Provided number of coordinates.
        got: usize,
    },
    /// A coordinate was out of range for its dimension.
    MemberOutOfRange {
        /// Dimension name.
        dimension: String,
        /// Offending member index.
        member: usize,
        /// Cardinality of the dimension.
        cardinality: usize,
    },
    /// A dimension name was not found in the schema.
    UnknownDimension {
        /// The name that failed to resolve.
        name: String,
    },
    /// Schema construction failed (duplicate names, zero cardinality…).
    InvalidSchema {
        /// Human-readable description.
        message: String,
    },
}

impl fmt::Display for OlapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OlapError::ArityMismatch { expected, got } => {
                write!(f, "coordinate arity mismatch: expected {expected}, got {got}")
            }
            OlapError::MemberOutOfRange {
                dimension,
                member,
                cardinality,
            } => write!(
                f,
                "member {member} out of range for dimension `{dimension}` (cardinality {cardinality})"
            ),
            OlapError::UnknownDimension { name } => write!(f, "unknown dimension `{name}`"),
            OlapError::InvalidSchema { message } => write!(f, "invalid schema: {message}"),
        }
    }
}

impl std::error::Error for OlapError {}

/// A categorical dimension with a fixed member list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dimension {
    name: String,
    members: Vec<String>,
}

impl Dimension {
    /// Creates a dimension with explicit member labels.
    ///
    /// # Errors
    /// Returns an error if no members are given.
    pub(crate) fn new(name: impl Into<String>, members: Vec<String>) -> Result<Self, OlapError> {
        if members.is_empty() {
            return Err(OlapError::InvalidSchema {
                message: "dimension must have at least one member".into(),
            });
        }
        Ok(Self {
            name: name.into(),
            members,
        })
    }

    /// Creates a dimension with `n` anonymous members `"0".."n-1"`.
    ///
    /// # Errors
    /// Returns an error if `n == 0`.
    pub fn indexed(name: impl Into<String>, n: usize) -> Result<Self, OlapError> {
        Self::new(name, (0..n).map(|i| i.to_string()).collect())
    }

    /// Dimension name.
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// Number of members.
    pub(crate) fn cardinality(&self) -> usize {
        self.members.len()
    }
}

/// An ordered set of dimensions defining a cube's coordinate space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CubeSchema {
    dimensions: Vec<Dimension>,
}

impl CubeSchema {
    /// Creates a schema.
    ///
    /// # Errors
    /// Returns an error on an empty dimension list or duplicate names.
    pub fn new(dimensions: Vec<Dimension>) -> Result<Self, OlapError> {
        if dimensions.is_empty() {
            return Err(OlapError::InvalidSchema {
                message: "schema needs at least one dimension".into(),
            });
        }
        for (i, d) in dimensions.iter().enumerate() {
            if dimensions.iter().take(i).any(|p| p.name() == d.name()) {
                return Err(OlapError::InvalidSchema {
                    message: format!("duplicate dimension name `{}`", d.name()),
                });
            }
        }
        Ok(Self { dimensions })
    }

    /// The dimensions, in coordinate order.
    pub(crate) fn dimensions(&self) -> &[Dimension] {
        &self.dimensions
    }

    /// Number of dimensions.
    pub(crate) fn arity(&self) -> usize {
        self.dimensions.len()
    }

    /// Index of a dimension by name.
    ///
    /// # Errors
    /// Returns [`OlapError::UnknownDimension`] if absent.
    pub(crate) fn dim_index(&self, name: &str) -> Result<usize, OlapError> {
        self.dimensions
            .iter()
            .position(|d| d.name() == name)
            .ok_or_else(|| OlapError::UnknownDimension { name: name.into() })
    }

    /// Validates a coordinate vector against this schema.
    ///
    /// # Errors
    /// Returns an error on arity mismatch or out-of-range member.
    pub(crate) fn validate(&self, coords: &[usize]) -> Result<(), OlapError> {
        if coords.len() != self.arity() {
            return Err(OlapError::ArityMismatch {
                expected: self.arity(),
                got: coords.len(),
            });
        }
        for (c, d) in coords.iter().zip(&self.dimensions) {
            if *c >= d.cardinality() {
                return Err(OlapError::MemberOutOfRange {
                    dimension: d.name().to_string(),
                    member: *c,
                    cardinality: d.cardinality(),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> CubeSchema {
        CubeSchema::new(vec![
            Dimension::new("machine", vec!["m0".into(), "m1".into()]).unwrap(),
            Dimension::indexed("job", 3).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn dimension_basics() {
        let d = Dimension::new("phase", vec!["warmup".into(), "print".into()]).unwrap();
        assert_eq!(d.name(), "phase");
        assert_eq!(d.cardinality(), 2);
        assert!(Dimension::new("x", vec![]).is_err());
        assert!(Dimension::indexed("x", 0).is_err());
    }

    #[test]
    fn schema_validation() {
        let s = schema();
        assert_eq!(s.arity(), 2);
        assert!(s.validate(&[1, 2]).is_ok());
        assert!(matches!(
            s.validate(&[1]),
            Err(OlapError::ArityMismatch {
                expected: 2,
                got: 1
            })
        ));
        assert!(matches!(
            s.validate(&[2, 0]),
            Err(OlapError::MemberOutOfRange { .. })
        ));
    }

    #[test]
    fn schema_rejects_duplicates_and_empty() {
        assert!(CubeSchema::new(vec![]).is_err());
        let d1 = Dimension::indexed("a", 2).unwrap();
        let d2 = Dimension::indexed("a", 3).unwrap();
        assert!(CubeSchema::new(vec![d1, d2]).is_err());
    }

    #[test]
    fn dim_index_lookup() {
        let s = schema();
        assert_eq!(s.dim_index("job").unwrap(), 1);
        assert!(s.dim_index("nope").is_err());
    }

    #[test]
    fn error_display() {
        let e = OlapError::UnknownDimension { name: "q".into() };
        assert!(e.to_string().contains("`q`"));
        let e = OlapError::ArityMismatch {
            expected: 2,
            got: 3,
        };
        assert!(e.to_string().contains("expected 2"));
    }
}
