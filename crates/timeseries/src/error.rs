//! Error type shared by the time-series substrate.

use std::fmt;

/// Errors produced by substrate operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The operation requires a non-empty input.
    Empty {
        /// Name of the operation that failed.
        what: &'static str,
    },
    /// Two inputs had incompatible lengths.
    LengthMismatch {
        /// Name of the operation that failed.
        what: &'static str,
        /// Left-hand length.
        left: usize,
        /// Right-hand length.
        right: usize,
    },
    /// A parameter was outside its valid domain.
    InvalidParameter {
        /// Name of the offending parameter.
        param: &'static str,
        /// Human-readable description of the violated constraint.
        message: String,
    },
    /// A numeric routine failed to converge or produced a non-finite value.
    Numeric {
        /// Human-readable description.
        message: String,
    },
}

impl Error {
    /// Convenience constructor for [`Error::InvalidParameter`].
    pub(crate) fn invalid(param: &'static str, message: impl Into<String>) -> Self {
        Error::InvalidParameter {
            param,
            message: message.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Empty { what } => write!(f, "{what}: input must be non-empty"),
            Error::LengthMismatch { what, left, right } => {
                write!(f, "{what}: length mismatch ({left} vs {right})")
            }
            Error::InvalidParameter { param, message } => {
                write!(f, "invalid parameter `{param}`: {message}")
            }
            Error::Numeric { message } => write!(f, "numeric error: {message}"),
        }
    }
}

impl std::error::Error for Error {}

/// Result alias for substrate operations.
pub(crate) type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let e = Error::Empty { what: "mean" };
        assert_eq!(e.to_string(), "mean: input must be non-empty");
        let e = Error::LengthMismatch {
            what: "dot",
            left: 3,
            right: 4,
        };
        assert!(e.to_string().contains("3 vs 4"));
        let e = Error::invalid("k", "must be > 0");
        assert!(e.to_string().contains("`k`"));
        let e = Error::Numeric {
            message: "diverged".into(),
        };
        assert!(e.to_string().contains("diverged"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&Error::Empty { what: "x" });
    }
}
