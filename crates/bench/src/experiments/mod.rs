//! One module per paper artifact. Every experiment is a
//! `run(scale) -> Report`; [`all`] and [`crate::run_by_id`] read them
//! from one `(id, run)` table, the list the `repro` binary serves.

pub mod e2e;
pub mod motivation;
pub mod quality;
pub mod selection;
pub mod tables;

use crate::harness::Scale;
use crate::report::Report;

/// An experiment's id and its `run`.
type Experiment = (&'static str, fn(Scale) -> Report);

/// Every experiment in paper order, under its id.
pub(crate) const EXPERIMENTS: [Experiment; 24] = [
    ("fig01_tradeoff", motivation::fig01_tradeoff),
    ("fig02_trace", motivation::fig02_trace),
    ("fig03_similarity", motivation::fig03_similarity),
    ("fig04_icl_gain", motivation::fig04_icl_gain),
    ("fig07_correlation", motivation::fig07_correlation),
    ("fig09_twostage", selection::fig09_twostage),
    ("fig10_longtail", selection::fig10_longtail),
    ("fig11_replay", selection::fig11_replay),
    ("fig12_e2e", e2e::fig12_e2e),
    ("fig13_tradeoff_curves", e2e::fig13_tradeoff_curves),
    ("fig14_semantic_ic", quality::fig14_semantic_ic),
    ("fig15_sft_rag", quality::fig15_sft_rag),
    ("fig16_ablation", e2e::fig16_ablation),
    ("fig17_sidebyside", quality::fig17_sidebyside),
    ("fig18_breakdown", e2e::fig18_breakdown),
    ("fig19_cachesize", selection::fig19_cachesize),
    ("fig20_loads", e2e::fig20_loads),
    ("fig21_dp", quality::fig21_dp),
    ("fig27_distributions", quality::fig27_distributions),
    ("tab01_datasets", tables::tab01_datasets),
    ("tab02_rag", quality::tab02_rag),
    ("tab03_sft", quality::tab03_sft),
    ("tab04_judges", tables::tab04_judges),
    ("headline", e2e::headline),
];

/// Runs every experiment in paper order.
pub fn all(scale: Scale) -> Vec<Report> {
    EXPERIMENTS.iter().map(|(_, run)| run(scale)).collect()
}
