//! [`AlgoSpec`]: a detector selection as *data*.
//!
//! A spec is a registry key plus a map of named parameters. It is the
//! wire/config representation of "which algorithm, configured how" — the
//! policy layer of `hierod-core` constructs specs, and
//! [`crate::engine::build`] resolves them against the Table-1 registry (plus
//! the baseline/related catalog) into runnable scorers. Because a spec is
//! plain data it can come from a config file, a CLI flag, or a network
//! request without any caller-side `match` over algorithm enums.

use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

use crate::api::{DetectError, Result};

/// One parameter value: integers and floats cover every constructor in the
/// registry (counts, orders, windows, fractions, factors).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParamValue {
    /// An integral value (counts, orders, window lengths).
    Int(i64),
    /// A floating-point value (fractions, factors, quantiles).
    Float(f64),
}

impl ParamValue {
    /// Reads the value as a non-negative integer.
    ///
    /// # Errors
    /// Rejects negative integers and non-integral floats.
    pub(crate) fn as_usize(&self, param: &'static str) -> Result<usize> {
        match *self {
            ParamValue::Int(i) => usize::try_from(i)
                .map_err(|_| DetectError::invalid(param, format!("must be >= 0, got {i}"))),
            ParamValue::Float(f) => {
                if f.is_finite() && f >= 0.0 && f.fract() == 0.0 {
                    Ok(f as usize)
                } else {
                    Err(DetectError::invalid(
                        param,
                        format!("must be a non-negative integer, got {f}"),
                    ))
                }
            }
        }
    }

    /// Reads the value as a finite float.
    ///
    /// # Errors
    /// Rejects NaN and infinities.
    pub(crate) fn as_f64(&self, param: &'static str) -> Result<f64> {
        let f = match *self {
            ParamValue::Int(i) => i as f64,
            ParamValue::Float(f) => f,
        };
        if f.is_finite() {
            Ok(f)
        } else {
            Err(DetectError::invalid(param, "must be finite"))
        }
    }
}

impl From<i64> for ParamValue {
    fn from(v: i64) -> Self {
        ParamValue::Int(v)
    }
}

impl From<i32> for ParamValue {
    fn from(v: i32) -> Self {
        ParamValue::Int(v as i64)
    }
}

impl From<usize> for ParamValue {
    fn from(v: usize) -> Self {
        ParamValue::Int(v as i64)
    }
}

impl From<f64> for ParamValue {
    fn from(v: f64) -> Self {
        ParamValue::Float(v)
    }
}

impl fmt::Display for ParamValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamValue::Int(i) => write!(f, "{i}"),
            ParamValue::Float(x) => write!(f, "{x}"),
        }
    }
}

/// A detector selection: registry key + named parameters.
///
/// Parameters not present fall back to the detector's documented defaults;
/// parameter names not declared by the registry entry are rejected at
/// [`crate::engine::build`] time with [`DetectError::InvalidParameter`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AlgoSpec {
    /// Registry key (e.g. `"ar"`, `"pca"`) or full Table-1 row name.
    pub name: String,
    /// Named parameter overrides.
    pub params: BTreeMap<String, ParamValue>,
}

impl AlgoSpec {
    /// A spec with no parameter overrides.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            params: BTreeMap::new(),
        }
    }

    /// Adds/overrides one parameter (builder style).
    #[must_use]
    pub fn with(mut self, key: impl Into<String>, value: impl Into<ParamValue>) -> Self {
        self.params.insert(key.into(), value.into());
        self
    }

    /// Reads a `usize` parameter, defaulting when absent.
    ///
    /// # Errors
    /// Rejects negative or non-integral values.
    pub fn get_usize(&self, key: &'static str, default: usize) -> Result<usize> {
        match self.params.get(key) {
            Some(v) => v.as_usize(key),
            None => Ok(default),
        }
    }

    /// Reads an `f64` parameter, defaulting when absent.
    ///
    /// # Errors
    /// Rejects non-finite values.
    pub(crate) fn get_f64(&self, key: &'static str, default: f64) -> Result<f64> {
        match self.params.get(key) {
            Some(v) => v.as_f64(key),
            None => Ok(default),
        }
    }
}

impl fmt::Display for AlgoSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.params.is_empty() {
            return f.write_str(&self.name);
        }
        write!(f, "{}(", self.name)?;
        for (i, (k, v)) in self.params.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{k}={v}")?;
        }
        f.write_str(")")
    }
}

impl FromStr for AlgoSpec {
    type Err = DetectError;

    /// Parses `"name"` or `"name(key=value, key=value)"`. Values with a `.`
    /// or exponent parse as floats, otherwise as integers.
    fn from_str(s: &str) -> Result<Self> {
        let s = s.trim();
        let (name, rest) = match s.split_once('(') {
            None => (s, None),
            Some((n, r)) => {
                let r = r.trim_end();
                let Some(inner) = r.strip_suffix(')') else {
                    return Err(DetectError::invalid("spec", "missing closing `)`"));
                };
                (n.trim(), Some(inner))
            }
        };
        if name.is_empty() {
            return Err(DetectError::invalid("spec", "empty algorithm name"));
        }
        let mut spec = AlgoSpec::new(name);
        if let Some(inner) = rest {
            for pair in inner.split(',') {
                let pair = pair.trim();
                if pair.is_empty() {
                    continue;
                }
                let Some((k, v)) = pair.split_once('=') else {
                    return Err(DetectError::invalid(
                        "spec",
                        format!("expected `key=value`, got `{pair}`"),
                    ));
                };
                let (k, v) = (k.trim(), v.trim());
                let value = if let Ok(i) = v.parse::<i64>() {
                    ParamValue::Int(i)
                } else if let Ok(f) = v.parse::<f64>() {
                    ParamValue::Float(f)
                } else {
                    return Err(DetectError::invalid(
                        "spec",
                        format!("unparseable value `{v}` for `{k}`"),
                    ));
                };
                spec.params.insert(k.to_string(), value);
            }
        }
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_accessors() {
        let spec = AlgoSpec::new("ar").with("order", 4).with("nu", 0.25);
        assert_eq!(spec.get_usize("order", 3).unwrap(), 4);
        assert_eq!(spec.get_usize("absent", 7).unwrap(), 7);
        assert!((spec.get_f64("nu", 0.1).unwrap() - 0.25).abs() < 1e-12);
        // Float read of an int parameter works.
        assert!((spec.get_f64("order", 0.0).unwrap() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn usize_access_rejects_negative_and_fractional() {
        let spec = AlgoSpec::new("x").with("a", -3).with("b", 2.5);
        assert!(matches!(
            spec.get_usize("a", 0),
            Err(DetectError::InvalidParameter { .. })
        ));
        assert!(matches!(
            spec.get_usize("b", 0),
            Err(DetectError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn f64_access_rejects_non_finite() {
        let spec = AlgoSpec::new("x").with("a", f64::NAN);
        assert!(matches!(
            spec.get_f64("a", 0.0),
            Err(DetectError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn parse_roundtrip() {
        let spec: AlgoSpec = "pca(components=3)".parse().unwrap();
        assert_eq!(spec.name, "pca");
        assert_eq!(spec.get_usize("components", 0).unwrap(), 3);
        assert_eq!(spec.to_string(), "pca(components=3)");

        let spec: AlgoSpec = "ocsvm(nu=0.15)".parse().unwrap();
        assert!((spec.get_f64("nu", 0.0).unwrap() - 0.15).abs() < 1e-12);

        let bare: AlgoSpec = "robust-z".parse().unwrap();
        assert_eq!(bare.name, "robust-z");
        assert!(bare.params.is_empty());
        assert_eq!(bare.to_string(), "robust-z");
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!("".parse::<AlgoSpec>().is_err());
        assert!("ar(order=3".parse::<AlgoSpec>().is_err());
        assert!("ar(order)".parse::<AlgoSpec>().is_err());
        assert!("ar(order=three)".parse::<AlgoSpec>().is_err());
    }
}
