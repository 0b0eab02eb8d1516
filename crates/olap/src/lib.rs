//! # hierod-olap
//!
//! A minimal in-memory OLAP engine — the substrate for the paper's UOA row
//! ("Online Analytical Processing Cube", Li & Han 2007, Table 1): "In case of
//! multidimensional data, an OLAP cube can be analyzed, using an unsupervised
//! approach with each cell as a measure."
//!
//! The engine models:
//! * [`schema::Dimension`] / [`schema::CubeSchema`] — named categorical
//!   dimensions with fixed cardinalities.
//! * [`cube::Cube`] — sparse cell storage keyed by coordinates, accumulating
//!   count/sum/sum-of-squares per cell.
//! * [`cube::Cube::roll_up`] (drop a dimension) and [`cube::Cube::slice`]
//!   (fix one dimension to one member). The UOA detector scores the full
//!   cube and calls neither.
//! * [`analysis`] — per-cell outlierness: studentized residual of each
//!   cell's mean against its peer group (all cells sharing coordinates on
//!   every other dimension).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod analysis;
pub mod cube;
pub mod schema;

pub use analysis::{cell_outlierness, CellScore};
pub use cube::{Cell, Cube};
pub use schema::{CubeSchema, Dimension};
