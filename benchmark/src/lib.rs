//! `icbench`: a four-workload end-to-end and per-layer benchmark for the
//! IC-Cache stack. It drives the stack only through public functions and
//! owns nothing outside `BENCHMARK.json` and this directory.

pub mod compare;
pub mod layers;
pub mod metrics;
pub mod run;
pub mod spans;
pub mod workload;
