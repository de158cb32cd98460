//! Multi-tenant JCT experiments: several workload classes sharing one
//! disaggregated cluster under a pluggable frontend policy.
//!
//! A [`TenantMixExperiment`] describes the shared cluster plus one
//! [`TenantWorkload`] per tenant (dataset, rate, SLO target, scheduling
//! weight, seed). [`TenantMixExperiment::run`] evaluates one (method,
//! scheduling policy) pair on the merged trace and returns per-tenant JCT
//! statistics, the Jain fairness index and SLO attainment;
//! [`TenantMixExperiment::grid`] sweeps every shipped scheduling policy into
//! one result table — the `tenant_mix` grid the `scenarios` binary prints.

use crate::experiment::{ExperimentTable, Row};
use crate::method::Method;
use hack_cluster::{
    AdmissionPolicyKind, CacheConfig, FaultPlan, PolicyConfig, SchedulingPolicyKind,
    SimulationConfig, SimulationResult, Simulator, TelemetryConfig, TenantClass, TenantClasses,
};
use hack_metrics::jct::JctStats;
use hack_metrics::tenant::TenantSlo;
use hack_model::gpu::GpuKind;
use hack_model::spec::ModelKind;
use hack_workload::dataset::Dataset;
use hack_workload::tenant::{MultiTenantTrace, TenantSpec};
use hack_workload::trace::{TenantId, TraceConfig};
use serde::Serialize;
use std::sync::Arc;

/// One tenant's workload and service class in a mix.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TenantWorkload {
    /// Dataset the tenant draws request lengths from.
    pub dataset: Dataset,
    /// The tenant's arrival rate (requests per second).
    pub rps: f64,
    /// Requests the tenant contributes to the trace.
    pub num_requests: usize,
    /// Scheduling weight (weighted-round-robin share, token-bucket rate).
    pub weight: f64,
    /// Target JCT in seconds (EDF deadline offset and SLO threshold).
    pub slo_jct: f64,
    /// Seed of the tenant's trace stream.
    pub seed: u64,
}

/// A multi-tenant experiment: the shared cluster and the tenant mix. Tenant
/// `i` in the list is [`TenantId`]`(i)`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TenantMixExperiment {
    /// Model being served.
    pub model: ModelKind,
    /// Prefill GPU family.
    pub prefill_gpu: GpuKind,
    /// The tenants sharing the cluster, in tenant-id order.
    pub tenants: Vec<TenantWorkload>,
    /// Admission policy evaluated alongside the scheduling sweep.
    pub admission: AdmissionPolicyKind,
}

impl TenantMixExperiment {
    /// The default contention scenario: an *interactive* tenant (IMDb: short
    /// prompts, tight SLO) sharing the paper-default cluster with a *batch*
    /// tenant (Cocktail: long prompts, loose SLO) driven past the cluster's
    /// single-tenant capacity (~0.39 rps), so the scheduling policy decides
    /// who absorbs the overload queueing.
    pub fn interactive_vs_batch() -> Self {
        Self {
            model: ModelKind::Llama31_70B,
            prefill_gpu: GpuKind::A10G,
            tenants: vec![
                TenantWorkload {
                    dataset: Dataset::Imdb,
                    rps: 0.1,
                    num_requests: 25,
                    weight: 1.0,
                    slo_jct: 120.0,
                    seed: 11,
                },
                TenantWorkload {
                    dataset: Dataset::Cocktail,
                    rps: 0.8,
                    num_requests: 120,
                    weight: 1.0,
                    slo_jct: 3_000.0,
                    seed: 12,
                },
            ],
            admission: AdmissionPolicyKind::AdmitAll,
        }
    }

    /// The per-tenant service classes of this mix.
    pub fn classes(&self) -> TenantClasses {
        let classes: Vec<TenantClass> = self
            .tenants
            .iter()
            .map(|t| TenantClass {
                weight: t.weight,
                slo_jct: t.slo_jct,
            })
            .collect();
        TenantClasses::new(&classes)
    }

    /// The merged multi-tenant trace builder.
    pub fn trace(&self) -> MultiTenantTrace {
        let specs: Vec<TenantSpec> = self
            .tenants
            .iter()
            .enumerate()
            .map(|(i, t)| TenantSpec {
                tenant: TenantId(i as u32),
                trace: TraceConfig {
                    dataset: t.dataset,
                    rps: t.rps,
                    num_requests: t.num_requests,
                    max_context: self.model.spec().max_context,
                    seed: t.seed,
                },
            })
            .collect();
        MultiTenantTrace::new(specs)
    }

    /// The simulation configuration of one (method, scheduling) pair. The
    /// aggregate trace parameters describe the *merged* stream; the requests
    /// themselves come from [`Self::trace`] via [`Simulator::with_requests`].
    pub fn simulation_config(
        &self,
        method: Method,
        scheduling: SchedulingPolicyKind,
    ) -> SimulationConfig {
        let mut cluster = hack_cluster::ClusterConfig::paper_default(self.model, self.prefill_gpu);
        cluster.pipelining = false;
        SimulationConfig {
            cluster,
            trace: TraceConfig {
                // Descriptive aggregate view of the merged stream (the rate is
                // the sum of the tenants'); the engine seed combines the
                // per-tenant stream seeds.
                dataset: self.tenants[0].dataset,
                rps: self.tenants.iter().map(|t| t.rps).sum(),
                num_requests: self.tenants.iter().map(|t| t.num_requests).sum(),
                max_context: self.model.spec().max_context,
                seed: self
                    .tenants
                    .iter()
                    .fold(0u64, |acc, t| acc.wrapping_mul(31).wrapping_add(t.seed)),
            },
            profile: method.profile(),
            policy: PolicyConfig {
                tenants: self.classes(),
                dispatch: hack_cluster::DispatchPolicyKind::LeastLoaded,
                admission: self.admission,
                scheduling,
                retry: hack_cluster::RetryPolicy::default(),
                scaling: hack_cluster::ScalingPolicyKind::Off,
            },
            faults: FaultPlan::none(),
            telemetry: TelemetryConfig::Off,
            cache: CacheConfig::Off,
        }
    }

    /// Runs one (method, scheduling) pair on the merged trace.
    pub fn run(&self, method: Method, scheduling: SchedulingPolicyKind) -> TenantMixOutcome {
        let requests = Arc::new(self.trace().generate());
        let config = self.simulation_config(method, scheduling);
        let result = Simulator::with_requests(config, requests).run();
        TenantMixOutcome::from_result_with_classes(scheduling, &self.classes(), result)
    }

    /// Sweeps every shipped scheduling policy (the `tenant_mix` grid): one row
    /// per policy with the fairness index, per-tenant mean JCTs and SLO
    /// attainment.
    pub fn grid(&self, method: Method) -> ExperimentTable {
        let mut columns = vec!["jain_fairness".to_string()];
        for i in 0..self.tenants.len() {
            columns.push(format!("t{i}_mean_jct_s"));
        }
        for i in 0..self.tenants.len() {
            columns.push(format!("t{i}_slo_attainment"));
        }
        let mut table = ExperimentTable::new(
            "tenant_mix",
            format!(
                "Multi-tenant scheduling sweep ({} tenants, {})",
                self.tenants.len(),
                method.name()
            ),
            columns,
            "mixed",
        );
        for scheduling in SchedulingPolicyKind::all() {
            let outcome = self.run(method, scheduling);
            let mut values = vec![outcome.jain_fairness];
            for i in 0..self.tenants.len() {
                values.push(
                    outcome
                        .tenant_stats(TenantId(i as u32))
                        .map_or(f64::NAN, |s| s.mean),
                );
            }
            for i in 0..self.tenants.len() {
                values.push(
                    outcome
                        .slo
                        .iter()
                        .find(|s| s.tenant == TenantId(i as u32))
                        .map_or(f64::NAN, TenantSlo::attainment),
                );
            }
            table.push_row(Row::new(scheduling.name(), values));
        }
        table
    }
}

/// One tenant's JCT statistics inside a [`TenantMixOutcome`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TenantStats {
    /// The tenant.
    pub tenant: TenantId,
    /// Its JCT statistics.
    pub stats: JctStats,
}

/// Aggregate outcome of one (tenant mix, method, scheduling policy) run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TenantMixOutcome {
    /// The scheduling policy evaluated.
    pub scheduling: SchedulingPolicyKind,
    /// Global average JCT across all tenants (seconds).
    pub average_jct: f64,
    /// Per-tenant JCT statistics, ascending by tenant.
    pub per_tenant: Vec<TenantStats>,
    /// Jain fairness index over the tenants' normalized service rates.
    pub jain_fairness: f64,
    /// Per-tenant SLO attainment.
    pub slo: Vec<TenantSlo>,
    /// Requests turned away by the admission policy.
    pub rejected_requests: usize,
    /// Admission rejections per tenant (index = tenant id; empty when nothing
    /// was rejected).
    pub rejected_by_tenant: Vec<usize>,
    /// Requests completed.
    pub completed_requests: usize,
}

impl TenantMixOutcome {
    /// Aggregates a finished simulation result into the per-tenant outcome
    /// (also for callers that run the simulation themselves).
    pub fn from_result_with_classes(
        scheduling: SchedulingPolicyKind,
        classes: &TenantClasses,
        result: SimulationResult,
    ) -> Self {
        Self {
            scheduling,
            average_jct: result.average_jct(),
            per_tenant: result
                .per_tenant_stats()
                .into_iter()
                .map(|(tenant, stats)| TenantStats { tenant, stats })
                .collect(),
            jain_fairness: result.jain_fairness(),
            slo: result.slo_summary(classes),
            rejected_requests: result.rejected_requests,
            rejected_by_tenant: result.rejected_by_tenant.clone(),
            completed_requests: result.records.len(),
        }
    }

    /// The [`JctStats`] of one tenant, if it completed any request.
    pub fn tenant_stats(&self, tenant: TenantId) -> Option<&JctStats> {
        self.per_tenant
            .iter()
            .find(|t| t.tenant == tenant)
            .map(|t| &t.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_mix() -> TenantMixExperiment {
        let mut mix = TenantMixExperiment::interactive_vs_batch();
        mix.tenants[0].num_requests = 10;
        mix.tenants[1].num_requests = 40;
        mix
    }

    #[test]
    fn mix_runs_every_policy_and_completes_all_requests() {
        let mix = small_mix();
        for scheduling in SchedulingPolicyKind::all() {
            let outcome = mix.run(Method::hack(), scheduling);
            assert_eq!(outcome.completed_requests, 50, "{}", scheduling.name());
            assert_eq!(outcome.rejected_requests, 0);
            assert_eq!(outcome.per_tenant.len(), 2);
            assert!(outcome.jain_fairness > 0.0 && outcome.jain_fairness <= 1.0 + 1e-12);
            assert!(outcome.tenant_stats(TenantId(0)).is_some());
            assert!(outcome.tenant_stats(TenantId(2)).is_none());
        }
    }

    #[test]
    fn grid_has_one_row_per_policy() {
        let table = small_mix().grid(Method::Baseline);
        assert_eq!(table.rows.len(), SchedulingPolicyKind::all().len());
        assert_eq!(table.columns.len(), 1 + 2 * 2);
        let fcfs_jain = table.value("fcfs", "jain_fairness").unwrap();
        let wrr_jain = table.value("wrr", "jain_fairness").unwrap();
        assert!(fcfs_jain > 0.0 && wrr_jain > 0.0);
    }

    #[test]
    fn token_bucket_admission_rejects_overload_deterministically() {
        let mut mix = small_mix();
        mix.admission = AdmissionPolicyKind::TokenBucket {
            rate_per_weight: 0.05,
            burst: 2.0,
        };
        let a = mix.run(Method::Baseline, SchedulingPolicyKind::Fcfs);
        let b = mix.run(Method::Baseline, SchedulingPolicyKind::Fcfs);
        assert!(a.rejected_requests > 0, "overload must trip the bucket");
        assert_eq!(a.rejected_requests + a.completed_requests, 50);
        assert_eq!(
            a.rejected_by_tenant.iter().sum::<usize>(),
            a.rejected_requests,
            "per-tenant rejections must account for every rejection"
        );
        assert!(
            a.rejected_by_tenant.len() <= mix.tenants.len(),
            "trailing rejection-free tenants are trimmed"
        );
        assert_eq!(a, b, "admission must be deterministic");
    }
}
