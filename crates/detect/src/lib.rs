//! # hierod-detect
//!
//! The detector zoo: one working, from-scratch implementation per row of
//! Table 1 of Hoppenstedt et al. (EDBT 2019), *"Categorization of Literature
//! on Outliers"*, plus the classical statistical baselines the hierarchical
//! experiments compare against.
//!
//! ## Organization
//!
//! One module per technique class, using the paper's abbreviations:
//!
//! | Module | Class | Paper legend |
//! |---|---|---|
//! | [`da`]  | DA  | discriminative approach |
//! | [`upa`] | UPA | unsupervised parametric approach |
//! | [`uoa`] | UOA | unsupervised online (OLAP) approach |
//! | [`sa`]  | SA  | supervised approach |
//! | [`npd`] | NPD | normal pattern database |
//! | [`nmd`] | NMD | negative and mixed pattern database |
//! | [`os`]  | OS  | outlier subsequence |
//! | [`pm`]  | PM  | predictive model |
//! | [`itm`] | ITM | information-theoretic model |
//! | [`stat`]| —   | baselines (not in Table 1) |
//! | [`related`] | — | related-work detectors from the paper's §5 (LOF, kNN, reverse-kNN) and the §3-mentioned profile-similarity (PS) class |
//!
//! [`registry`] enumerates all rows with their {points, sub-sequences,
//! time-series} capability flags; the Table-1 reproduction derives the table
//! from that registry so the taxonomy is executable, and a registry test
//! pins it against the paper.
//!
//! ## Score convention
//!
//! Every scorer returns **non-negative outlierness scores where larger
//! means more anomalous** (the paper's "degree of outlierness" — a ranking,
//! not a binary decision). Scales differ per detector; fuse across
//! detectors only after `hierod_eval::rank_normalize`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod adapt;
pub mod api;
pub mod da;
pub mod engine;
pub mod itm;
pub mod nmd;
pub mod npd;
pub mod online;
pub mod os;
pub mod pm;
pub mod registry;
pub mod related;
pub mod sa;
pub mod stat;
pub mod uoa;
pub mod upa;

pub use api::{
    row_refs, Capabilities, DetectError, DetectorInfo, DiscreteScorer, PointScorer, Result,
    SeriesScorer, SupervisedScorer, TechniqueClass, VectorScorer,
};
pub use registry::{registry, RegistryEntry};
