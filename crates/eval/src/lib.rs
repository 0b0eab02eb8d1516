//! # hierod-eval
//!
//! Evaluation metrics for outlier detection. The paper's related-work
//! section stresses that production scenarios need "flexible and adaptive
//! outlier scores … which can be expressed by the degree of outlierness"
//! and that such scores "allow for a ranking of outliers, which cannot be
//! done using a binary outlier score". Accordingly this crate provides both
//! threshold-based (confusion-matrix, point-adjusted) metrics and ranking
//! metrics (ROC-AUC, PR-AUC) over continuous outlierness scores:
//!
//! * [`confusion`] — [`ConfusionMatrix`] and the best-F1 threshold sweep.
//! * [`range`] — point-adjusted predictions for window-granularity events.
//! * [`ranking`] — [`roc_auc`] and [`pr_auc`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod confusion;
pub mod range;
pub mod ranking;

pub use confusion::ConfusionMatrix;
pub use range::point_adjusted_confusion;
pub use ranking::{pr_auc, roc_auc};
