//! The six scenario grids at paper scale, HACK on every cell: the two-tenant
//! scheduling grid, the mixed A10G+L4 dispatch grid, the fault-storm grid, the
//! MTBF/MTTR availability sweep, the autoscale cost-vs-SLO grid and the
//! session prefix-cache grid. `tests/golden_digests.rs` pins each table.

use hack_bench::emit;
use hack_core::prelude::*;

fn main() {
    let hack = Method::hack();
    emit(&TenantMixExperiment::interactive_vs_batch().grid(hack));
    emit(&HeteroFleetExperiment::paper_mixed().grid(hack));
    emit(&FaultStormExperiment::paper_storm().grid(hack));
    emit(&AvailabilityExperiment::paper_sweep().grid(hack));
    emit(&AutoscaleExperiment::paper_sweep().grid(hack));
    emit(&SessionCacheExperiment::paper_default().grid(hack));
}
