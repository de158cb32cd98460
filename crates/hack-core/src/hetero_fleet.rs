//! Heterogeneous-fleet JCT experiments: mixed-GPU prefill fleets vs uniform
//! ones under replica-aware dispatch policies.
//!
//! A [`HeteroFleetExperiment`] fixes the workload (model × dataset × load) and
//! compares two prefill fleets of equal instance count over the paper's
//! decode side: a *uniform* A10G fleet and a *mixed* fleet that swaps half the
//! instances for L4s (faster prefill compute, same 40 Gbps NIC — the ROADMAP's
//! "Heterogeneous GPUs" scenario). [`HeteroFleetExperiment::grid`] sweeps
//! every shipped [`DispatchPolicyKind`] on the mixed fleet and reports average
//! JCT plus per-group utilization — the `hetero_fleet` grid the `scenarios`
//! binary prints.

use crate::experiment::{ExperimentTable, Row};
use crate::method::Method;
use hack_cluster::{
    CacheConfig, ClusterConfig, DispatchPolicyKind, FaultPlan, GroupSet, GroupStats, PolicyConfig,
    ReplicaGroup, SimulationConfig, SimulationResult, Simulator, TelemetryConfig,
};
use hack_metrics::jct::JctStats;
use hack_model::gpu::GpuKind;
use hack_model::spec::ModelKind;
use hack_workload::dataset::Dataset;
use hack_workload::trace::TraceConfig;
use serde::Serialize;

/// One heterogeneous-fleet experiment: the workload shared by every fleet and
/// dispatch policy under comparison.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct HeteroFleetExperiment {
    /// Model being served.
    pub model: ModelKind,
    /// Dataset.
    pub dataset: Dataset,
    /// Number of requests simulated.
    pub num_requests: usize,
    /// Request rate (fixed, so every fleet/policy sees the identical trace).
    pub rps: f64,
    /// Instances per prefill sub-fleet: the uniform fleet has `2 * instances`
    /// A10G instances, the mixed fleet `instances` A10G + `instances` L4.
    pub instances_per_side: usize,
    /// Trace seed.
    pub seed: u64,
}

impl HeteroFleetExperiment {
    /// The default comparison: Llama-3.1 70B on Cocktail, eight prefill
    /// instances (uniform: 8 × A10G = 4 replicas; mixed: 4 × A10G + 4 × L4 =
    /// 2 + 2 replicas), driven near the uniform fleet's capacity so dispatch
    /// decisions matter.
    pub fn paper_mixed() -> Self {
        Self {
            model: ModelKind::Llama31_70B,
            dataset: Dataset::Cocktail,
            num_requests: 80,
            rps: 0.25,
            instances_per_side: 4,
            seed: 42,
        }
    }

    /// The uniform fleet: `2 * instances_per_side` A10G instances, one group.
    pub fn uniform_cluster(&self) -> ClusterConfig {
        let mut cluster = ClusterConfig::paper_default(self.model, GpuKind::A10G);
        cluster.fleet.prefill = GroupSet::single(ReplicaGroup::paper_sized(
            self.model,
            GpuKind::A10G,
            2 * self.instances_per_side,
        ));
        cluster
    }

    /// The mixed fleet: `instances_per_side` A10G instances plus the same
    /// number of L4 instances, two groups over the same decode side.
    pub fn mixed_cluster(&self) -> ClusterConfig {
        let mut cluster = ClusterConfig::paper_default(self.model, GpuKind::A10G);
        cluster.fleet.prefill = GroupSet::new(&[
            ReplicaGroup::paper_sized(self.model, GpuKind::A10G, self.instances_per_side),
            ReplicaGroup::paper_sized(self.model, GpuKind::L4, self.instances_per_side),
        ]);
        cluster
    }

    /// The simulation configuration of one (cluster, method, dispatch) triple.
    pub fn simulation_config(
        &self,
        cluster: ClusterConfig,
        method: Method,
        dispatch: DispatchPolicyKind,
    ) -> SimulationConfig {
        SimulationConfig {
            cluster,
            trace: TraceConfig {
                dataset: self.dataset,
                rps: self.rps,
                num_requests: self.num_requests,
                max_context: self.model.spec().max_context,
                seed: self.seed,
            },
            profile: method.profile(),
            policy: PolicyConfig::dispatched(dispatch),
            faults: FaultPlan::none(),
            telemetry: TelemetryConfig::Off,
            cache: CacheConfig::Off,
        }
    }

    /// Runs one (cluster, method, dispatch) triple.
    pub fn run(
        &self,
        cluster: ClusterConfig,
        method: Method,
        dispatch: DispatchPolicyKind,
    ) -> HeteroFleetOutcome {
        let result = Simulator::new(self.simulation_config(cluster, method, dispatch)).run();
        HeteroFleetOutcome::from_result(dispatch, result)
    }

    /// The `hetero_fleet` grid: the uniform fleet under default dispatch, then
    /// the mixed fleet under every shipped dispatch policy. One row per
    /// (fleet, policy) with average/p95 JCT and per-prefill-group utilization
    /// (`NaN` where the fleet has no second group).
    pub fn grid(&self, method: Method) -> ExperimentTable {
        let mut table = ExperimentTable::new(
            "hetero_fleet",
            format!(
                "Mixed A10G+L4 vs uniform A10G prefill fleet ({}, {} requests)",
                method.name(),
                self.num_requests
            ),
            vec![
                "avg_jct_s".to_string(),
                "p95_jct_s".to_string(),
                "g0_utilization".to_string(),
                "g1_utilization".to_string(),
            ],
            "mixed",
        );
        let mut push = |label: String, outcome: &HeteroFleetOutcome| {
            let util = |g: usize| {
                outcome
                    .prefill_groups
                    .get(g)
                    .map_or(f64::NAN, |s| s.utilization)
            };
            table.push_row(Row::new(
                label,
                vec![outcome.average_jct, outcome.stats.p95, util(0), util(1)],
            ));
        };
        let uniform = self.run(
            self.uniform_cluster(),
            method,
            DispatchPolicyKind::LeastLoaded,
        );
        push("uniform/least-loaded".to_string(), &uniform);
        for dispatch in DispatchPolicyKind::all() {
            let outcome = self.run(self.mixed_cluster(), method, dispatch);
            push(format!("mixed/{}", dispatch.name()), &outcome);
        }
        table
    }
}

/// Aggregate outcome of one (fleet, method, dispatch policy) run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HeteroFleetOutcome {
    /// The dispatch policy evaluated.
    pub dispatch: DispatchPolicyKind,
    /// Average JCT across requests (seconds).
    pub average_jct: f64,
    /// Full JCT statistics.
    pub stats: JctStats,
    /// Per-prefill-group usage, in group order.
    pub prefill_groups: Vec<GroupStats>,
    /// Per-decode-group usage, in group order.
    pub decode_groups: Vec<GroupStats>,
    /// Requests completed (sanity check: equals the trace length).
    pub completed_requests: usize,
}

impl HeteroFleetOutcome {
    /// Aggregates a finished simulation result (also for callers that run the
    /// simulation themselves).
    pub fn from_result(dispatch: DispatchPolicyKind, result: SimulationResult) -> Self {
        Self {
            dispatch,
            average_jct: result.average_jct(),
            stats: result.jct_stats(),
            prefill_groups: result.prefill_groups.clone(),
            decode_groups: result.decode_groups.clone(),
            completed_requests: result.records.len(),
        }
    }

    /// JCT reduction of this outcome versus another (`1 - self/other`).
    pub fn jct_reduction_vs(&self, other: &HeteroFleetOutcome) -> f64 {
        if other.average_jct <= 0.0 {
            return 0.0;
        }
        1.0 - self.average_jct / other.average_jct
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> HeteroFleetExperiment {
        HeteroFleetExperiment {
            num_requests: 40,
            ..HeteroFleetExperiment::paper_mixed()
        }
    }

    #[test]
    fn fleets_have_equal_instance_counts_and_expected_groups() {
        let e = small();
        let uniform = e.uniform_cluster();
        let mixed = e.mixed_cluster();
        assert_eq!(uniform.fleet.prefill.len(), 1);
        assert_eq!(mixed.fleet.prefill.len(), 2);
        // 8 A10G instances = 4 replicas; 4 + 4 instances = 2 + 2 replicas.
        assert_eq!(uniform.prefill_replicas(), 4);
        assert_eq!(mixed.prefill_replicas(), 4);
        assert_eq!(mixed.fleet.prefill.get(0).gpu, GpuKind::A10G);
        assert_eq!(mixed.fleet.prefill.get(1).gpu, GpuKind::L4);
        // Both share the paper's decode side.
        assert_eq!(uniform.fleet.decode, mixed.fleet.decode);
    }

    #[test]
    fn grid_reports_every_fleet_policy_row() {
        let table = small().grid(Method::hack());
        assert_eq!(table.rows.len(), 1 + DispatchPolicyKind::all().len());
        assert_eq!(table.rows[0].label, "uniform/least-loaded");
        let uniform_g1 = table
            .value("uniform/least-loaded", "g1_utilization")
            .unwrap();
        assert!(uniform_g1.is_nan(), "the uniform fleet has no second group");
        for dispatch in DispatchPolicyKind::all() {
            let label = format!("mixed/{}", dispatch.name());
            let jct = table.value(&label, "avg_jct_s").unwrap();
            assert!(jct > 0.0, "{label}");
            let g0 = table.value(&label, "g0_utilization").unwrap();
            let g1 = table.value(&label, "g1_utilization").unwrap();
            assert!(g0 > 0.0 && g0 <= 1.0, "{label}: g0 {g0}");
            if dispatch == DispatchPolicyKind::GroupAffinity {
                // A single-tenant trace pins everything to its preferred
                // group (tenant 0 -> group 0); the L4 group idles.
                assert_eq!(g1, 0.0, "{label}: g1 {g1}");
            } else {
                assert!(g1 > 0.0 && g1 <= 1.0, "{label}: g1 {g1}");
            }
        }
    }

    #[test]
    fn fastest_eligible_exploits_the_fast_group() {
        let e = small();
        let least = e.run(
            e.mixed_cluster(),
            Method::hack(),
            DispatchPolicyKind::LeastLoaded,
        );
        let fastest = e.run(
            e.mixed_cluster(),
            Method::hack(),
            DispatchPolicyKind::FastestEligible,
        );
        assert_eq!(least.completed_requests, e.num_requests);
        assert_eq!(fastest.completed_requests, e.num_requests);
        // Fastest-eligible shifts load toward the faster L4 group (group 1).
        assert!(
            fastest.prefill_groups[1].completed >= least.prefill_groups[1].completed,
            "fastest-eligible must not shift load away from the fast group: {} vs {}",
            fastest.prefill_groups[1].completed,
            least.prefill_groups[1].completed
        );
        // And must not be worse end-to-end on this contended mixed fleet.
        assert!(
            fastest.average_jct <= least.average_jct * 1.0 + 1e-9,
            "fastest-eligible {} vs least-loaded {}",
            fastest.average_jct,
            least.average_jct
        );
    }
}
