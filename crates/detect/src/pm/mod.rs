//! Predictive models (PM).
//!
//! "Prediction models define the outlier score based on the delta value to
//! the predicted value."

pub mod ar;

pub use ar::AutoregressiveModel;
