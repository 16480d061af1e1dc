#![forbid(unsafe_code)]
//! The library behind `repro`, which regenerates the paper's figures and
//! tables, and the timing the `[[bench]]` targets use.

pub mod cli;
pub mod sweep;
pub mod table;
pub mod timing;
