//! # px-perfbench — end-to-end and per-layer benchmark
//!
//! Drives the PathExpander crates from outside, through their public
//! functions, on four workloads (see `perfbench/README.md`):
//!
//! * [`workload`] — the workloads and how each is generated from a seed.
//! * [`measure`] — the untraced phases: set-up, 2-worker campaigns and
//!   fixed-budget engine runs, each in a fresh child process.
//! * [`engines`] — the four engines on a workload's programs.
//! * [`decompose`] — the traced, serial rerun of a campaign that rebuilds
//!   every case record from the layers' public functions.
//! * [`trace`] — the in-memory span recorder; [`traced`] folds spans into
//!   the per-layer metrics.

pub mod decompose;
pub mod engines;
pub mod measure;
pub mod trace;
pub mod traced;
pub mod workload;

/// Every end-to-end metric: name, unit, and the direction that is better.
pub const END_TO_END: [(&str, &str, &str); 11] = [
    ("setup_s", "s", "lower"),
    ("cases_per_s", "1/s", "higher"),
    ("sim_mips_baseline", "MIPS", "higher"),
    ("sim_mips_standard", "MIPS", "higher"),
    ("sim_mips_cmp", "MIPS", "higher"),
    ("sim_mips_software", "MIPS", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("completed_frac", "fraction", "higher"),
    ("bugs_detected", "count", "higher"),
    ("edge_coverage", "fraction", "higher"),
    ("prime_path_coverage", "fraction", "higher"),
];

/// The pinned digests (`perfbench/pins.json`).
pub const PINS: &str = include_str!("../pins.json");
