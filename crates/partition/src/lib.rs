#![warn(missing_docs)]

//! # paq-partition — offline data partitioning for SKETCHREFINE
//!
//! SKETCHREFINE (§4 of the paper) relies on an *offline* partitioning of
//! the input relation into groups of similar tuples, each represented by
//! its centroid. This crate implements:
//!
//! * [`quadtree`] — the paper's partitioning method: a k-dimensional
//!   quad tree that recursively splits any group violating the **size
//!   threshold τ** (Definition 1) or the **radius limit ω**
//!   (Definition 2), pivoting each split on the group centroid. The
//!   full hierarchy is retained, which also enables the paper's
//!   *dynamic partitioning* discussion (§4.1): extracting, at query
//!   time, the coarsest partitioning satisfying a desired radius.
//! * [`partitioning`] — the flat partitioning artifact used at query
//!   time: groups with row lists, centroid representatives, radii, a
//!   representative-relation builder, and sub-sampling (`restrict`) used
//!   by the scalability experiments to derive smaller datasets while
//!   preserving the size condition (§5.2.1).
//! * [`PartitionConfig::omega_for_epsilon`] — the Theorem 3 radius
//!   derivation (Eq. 1) mapping a desired approximation `ε` to a radius
//!   limit `ω`.

pub mod config;
pub mod partitioning;
pub mod quadtree;

pub use config::PartitionConfig;
pub use partitioning::{Group, Partitioning};
pub use quadtree::{Partitioner, QuadTree};
