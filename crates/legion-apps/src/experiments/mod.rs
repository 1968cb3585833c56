//! The experiment suite — one function per paper exhibit.
//!
//! Each `e_*` function builds its own deterministic testbed, runs the
//! experiment described in DESIGN.md's per-experiment index, and returns
//! a [`Table`]. This crate's `experiments` binary prints all of them
//! (`experiments_output.md`); EXPERIMENTS.md records the outputs and
//! compares them to the paper's claims.

mod batch;
mod cache;
mod coalloc;
mod contention;
mod dynamics;
mod economics;
mod layering;
mod network;
mod restypes;
mod stencil;

pub use batch::e_x5_batch_queues;
pub use cache::e_c10_candidate_cache_churn;
pub use coalloc::{coallocate_with_scheduler, e_f5_variant_thrash, e_f6_coallocation};
pub use contention::{
    e_f7_random, e_f8_irs_vs_random, e_f8b_nsched_sweep, e_f8c_variant_structure, e_x3_k_of_n,
};
pub use dynamics::{e_f4_staleness, e_x2_migration, e_x4_forecast};
pub use economics::e_x7_economics;
pub use network::e_x6_network_objects;
pub use layering::e_f2_layering;
pub use restypes::e_t2_reservation_types;
pub use stencil::e_x1_stencil;

use crate::table::Table;

/// Runs every experiment, in exhibit order.
pub fn run_all() -> Vec<Table> {
    vec![
        e_f2_layering(),
        e_f4_staleness(),
        e_f5_variant_thrash(),
        e_f6_coallocation(),
        e_f7_random(),
        e_f8_irs_vs_random(),
        e_f8b_nsched_sweep(),
        e_f8c_variant_structure(),
        e_c10_candidate_cache_churn(),
        e_t2_reservation_types(),
        e_x1_stencil(),
        e_x2_migration(),
        e_x3_k_of_n(),
        e_x4_forecast(),
        e_x5_batch_queues(),
        e_x6_network_objects(),
        e_x7_economics(),
    ]
}
