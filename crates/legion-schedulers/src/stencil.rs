//! Specialized placement for 2-D stencil applications (§4.3).
//!
//! "we are working with the DoD MSRC in Stennis, Mississippi to develop
//! a Scheduler for an MPI-based ocean simulation which uses
//! nearest-neighbor communication within a 2-D grid." Applications like
//! this "exhibit predictable communication patterns, both in terms of
//! the compute/communication cycle and in the source and destination of
//! the communication" — so a Scheduler that keeps neighbouring ranks in
//! the same administrative domain avoids paying WAN latency on every
//! halo exchange.
//!
//! [`StencilScheduler`] partitions the process grid into contiguous
//! horizontal bands, one per domain, sized proportionally to the number
//! of candidate hosts each domain offers; cells within a band cycle over
//! that domain's hosts. [`comm_cost`] computes the predicted per-cycle
//! communication cost of any assignment, the quantity experiment E-X1
//! compares across schedulers.

use crate::traits::{usable, Candidate, SchedCtx, Scheduler};
use legion_core::host::well_known;
use legion_core::{LegionError, PlacementRequest};
use legion_schedule::ScheduleRequestList;
use std::collections::BTreeMap;

/// The process-grid shape of the stencil application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridSpec {
    /// Grid rows.
    pub rows: usize,
    /// Grid columns.
    pub cols: usize,
}

impl GridSpec {
    /// A rows × cols grid.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "grid must be non-empty");
        GridSpec { rows, cols }
    }

    /// Total ranks.
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// Whether the grid is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Domain-banded placement for nearest-neighbour grids.
pub struct StencilScheduler {
    /// The application's process grid.
    pub grid: GridSpec,
}

impl StencilScheduler {
    /// A stencil scheduler for the given grid.
    pub fn new(grid: GridSpec) -> Self {
        StencilScheduler { grid }
    }
}

impl Scheduler for StencilScheduler {
    fn name(&self) -> &'static str {
        "stencil-2d"
    }

    fn compute_schedule(
        &self,
        request: &PlacementRequest,
        ctx: &SchedCtx,
    ) -> Result<ScheduleRequestList, LegionError> {
        let [item] = request.items.as_slice() else {
            return Err(LegionError::MalformedSchedule(
                "stencil scheduler expects exactly one class".into(),
            ));
        };
        if item.count as usize != self.grid.len() {
            return Err(LegionError::MalformedSchedule(format!(
                "grid {}x{} needs {} instances, request asks for {}",
                self.grid.rows,
                self.grid.cols,
                self.grid.len(),
                item.count
            )));
        }
        let set = ctx.pool_for(item)?;

        // Group candidates by domain, largest domains first so wide bands
        // go where the hosts are.
        let mut by_domain: BTreeMap<String, Vec<&Candidate>> = BTreeMap::new();
        for c in usable(&set, item.class)? {
            let dom = c.attrs().get_str(well_known::DOMAIN).unwrap_or("?").to_string();
            by_domain.entry(dom).or_default().push(c);
        }
        let mut domains: Vec<(String, Vec<&Candidate>)> = by_domain.into_iter().collect();
        domains.sort_by(|a, b| b.1.len().cmp(&a.1.len()).then(a.0.cmp(&b.0)));

        // Allocate contiguous row-bands proportional to domain size.
        let total_hosts: usize = domains.iter().map(|(_, h)| h.len()).sum();
        let mut band_rows: Vec<usize> = domains
            .iter()
            .map(|(_, h)| (self.grid.rows * h.len()) / total_hosts)
            .collect();
        // Distribute leftover rows to the largest domains.
        let mut assigned: usize = band_rows.iter().sum();
        let mut di = 0;
        let nbands = band_rows.len();
        while assigned < self.grid.rows {
            band_rows[di % nbands] += 1;
            assigned += 1;
            di += 1;
        }

        // Fill the grid row-major; cells in a band round-robin over the
        // band's hosts.
        let mut master = Vec::with_capacity(self.grid.len());
        let mut row = 0usize;
        for ((_, hosts), rows_here) in domains.iter().zip(&band_rows) {
            for _ in 0..*rows_here {
                for col in 0..self.grid.cols {
                    let pick = hosts[(row * self.grid.cols + col) % hosts.len()];
                    master.push(pick.mapping(item.class));
                }
                row += 1;
            }
        }
        // Rounding can strand rows when some band got zero hosts' worth;
        // backfill from the largest domain.
        while row < self.grid.rows {
            let hosts = &domains[0].1;
            for col in 0..self.grid.cols {
                let pick = hosts[(row * self.grid.cols + col) % hosts.len()];
                master.push(pick.mapping(item.class));
            }
            row += 1;
        }

        Ok(ScheduleRequestList::single(master))
    }
}

/// Predicted per-cycle communication cost of a grid assignment.
///
/// `domain_of[i]` is the domain label of the host running rank `i`
/// (row-major). Each nearest-neighbour edge costs `intra_us` inside a
/// domain and `inter_us` across domains; the result is the sum over all
/// horizontal and vertical edges — proportional to one halo exchange.
pub fn comm_cost(
    domain_of: &[String],
    grid: GridSpec,
    intra_us: u64,
    inter_us: u64,
) -> u64 {
    assert_eq!(domain_of.len(), grid.len(), "assignment/grid size mismatch");
    let idx = |r: usize, c: usize| r * grid.cols + c;
    let mut cost = 0u64;
    for r in 0..grid.rows {
        for c in 0..grid.cols {
            if c + 1 < grid.cols {
                cost += if domain_of[idx(r, c)] == domain_of[idx(r, c + 1)] {
                    intra_us
                } else {
                    inter_us
                };
            }
            if r + 1 < grid.rows {
                cost += if domain_of[idx(r, c)] == domain_of[idx(r + 1, c)] {
                    intra_us
                } else {
                    inter_us
                };
            }
        }
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doms(labels: &[&str]) -> Vec<String> {
        labels.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn comm_cost_counts_edges() {
        // 2x2 grid, all same domain: 4 edges, all intra.
        let g = GridSpec::new(2, 2);
        assert_eq!(comm_cost(&doms(&["a", "a", "a", "a"]), g, 1, 100), 4);
        // Split by rows: horizontal edges intra (2), vertical inter (2).
        assert_eq!(comm_cost(&doms(&["a", "a", "b", "b"]), g, 1, 100), 2 + 200);
        // Split by columns: vertical intra (2), horizontal inter (2).
        assert_eq!(comm_cost(&doms(&["a", "b", "a", "b"]), g, 1, 100), 2 + 200);
    }

    #[test]
    fn banded_beats_striped() {
        // 4x4 grid over two domains: row bands cross the domain boundary
        // on only one row of vertical edges (4 inter edges); column
        // stripes alternating a/b cross on 12 horizontal edges.
        let g = GridSpec::new(4, 4);
        let banded: Vec<String> = (0..16)
            .map(|i| if i < 8 { "a".to_string() } else { "b".to_string() })
            .collect();
        let striped: Vec<String> = (0..16)
            .map(|i| if i % 2 == 0 { "a".to_string() } else { "b".to_string() })
            .collect();
        assert!(
            comm_cost(&banded, g, 1, 1000) < comm_cost(&striped, g, 1, 1000),
            "contiguous bands must beat stripes"
        );
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn size_mismatch_panics() {
        comm_cost(&doms(&["a"]), GridSpec::new(2, 2), 1, 2);
    }
}
