//! Wire-level benchmark of the `slope-pmc` server.
//!
//! Three seeded workloads run against a live `slope-pmc serve` process
//! (see the README beside this crate). A traced run replays the same
//! inputs through each layer's public functions, called from here, so a
//! change to one layer can be traced to the end-to-end number it moved.

pub mod gen;
pub mod metrics_text;
pub mod reference;
pub mod report;
pub mod spans;
pub mod stats;
pub mod traced;
pub mod wire;
pub mod workloads;
