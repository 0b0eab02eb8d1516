//! The lint rule families (one module per rule; see DESIGN.md §4.12 for
//! the catalog and how to add a rule, §4.17 for the concurrency families).

pub mod atomic;
pub mod lockorder;
pub mod loom_cov;
pub mod nan;
pub mod panic;
pub mod taxonomy;
pub mod unsafe_audit;
pub mod workflow_yaml;
pub mod zerocopy;
