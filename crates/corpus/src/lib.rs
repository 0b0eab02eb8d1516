//! # hierod-corpus
//!
//! A bibliographic document store with an inverted index — the substrate
//! for reproducing the paper's Fig. 3 ("Research Fields of Outlier
//! Detection"). The original figure counts Web-of-Science articles per
//! synonym research field, where "each term was filtered with the word
//! *time series* and afterwards limited to those items that are connected to
//! the category *automation control systems*".
//!
//! Web of Science is proprietary and unreachable offline, so [`generator`]
//! synthesizes a corpus whose per-field document populations are calibrated
//! to the **relative bar heights** of Fig. 3; [`index::InvertedIndex`]
//! then executes the exact query plan of the paper (phrase AND phrase,
//! category restriction) against it. See DESIGN.md §2 for the substitution
//! rationale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod document;
pub mod generator;
pub mod index;
pub mod query;

pub use document::{Category, Document};
pub use generator::{CorpusGenerator, FieldSpec, FIG3_FIELDS};
pub use index::InvertedIndex;
pub use query::{Query, QueryEngine};
