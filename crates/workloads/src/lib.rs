//! Synthetic workloads reproducing the paper's evaluation data (Table 1)
//! and serving traces (Fig. 2, Fig. 22).
//!
//! The paper evaluates on eight public datasets totalling millions of
//! requests, replayed under Microsoft's Azure LLM serving trace. Neither
//! the datasets nor the trace are materially about their *text* — every
//! IC-Cache mechanism consumes their *statistics*: topic-cluster structure
//! with a long-tail popularity (Figs. 3a, 10), task-specific difficulty and
//! length distributions, and bursty arrivals with minute-scale spikes up to
//! 25x the median (Fig. 2b). This crate generates workloads with exactly
//! those statistics, each calibration locked by a test.
//!
//! Layout:
//! - [`dataset`] — the eight Table 1 dataset specs and their parameters.
//! - [`generator`] — [`WorkloadGenerator`]: requests + example banks
//!   (example responses produced by a chosen "large" model, mirroring the
//!   paper's example-pool initialization, Appendix A.4).
//! - [`trace`] — arrival-time generation: Azure-like diurnal + spikes,
//!   fixed-QPS Poisson, and the 30-minute evaluation trace.
//! - [`rag`] — the external-document corpus used by the LongRAG baseline.

pub mod dataset;
pub mod drift;
pub mod generator;
pub mod rag;
pub mod trace;

pub use dataset::{Dataset, DatasetSpec, table1};
pub use drift::DriftingWorkload;
pub use generator::WorkloadGenerator;
pub use rag::RagCorpus;
pub use trace::{TraceConfig, fixed_qps_arrivals, thirty_minute_trace, window_counts};
