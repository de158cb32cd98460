//! Session-cache experiments: session-structured workloads (multi-turn chat,
//! agentic fan-out) over the per-replica KV prefix cache.
//!
//! A [`SessionCacheExperiment`] describes a cluster plus a family of session
//! workloads. [`SessionCacheExperiment::run`] evaluates one (mix, cache,
//! dispatch) cell and returns JCT statistics together with the cache sensors
//! (hit rate, bytes saved, prefill seconds avoided);
//! [`SessionCacheExperiment::grid`] sweeps the chat/agentic/mixed workloads
//! against cache off/on and the least-loaded vs session-affinity dispatchers
//! into one result table — the `session_cache` grid the `scenarios` binary
//! prints.

use crate::experiment::{ExperimentTable, Row};
use crate::method::Method;
use hack_cluster::{
    CacheConfig, DispatchPolicyKind, FaultPlan, PolicyConfig, SimulationConfig, SimulationResult,
    Simulator, TelemetryConfig,
};
use hack_model::gpu::GpuKind;
use hack_model::spec::ModelKind;
use hack_workload::dataset::Dataset;
use hack_workload::session::{SessionKind, SessionSpec, SessionTrace};
use hack_workload::trace::{TenantId, TraceConfig};
use serde::Serialize;
use std::sync::Arc;

/// Which session shapes a cell of the sweep runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum SessionMix {
    /// Linear multi-turn chat sessions only.
    Chat,
    /// Agentic fan-out sessions only.
    Agentic,
    /// Both streams merged into one arrival process.
    Mixed,
}

impl SessionMix {
    /// Every mix, in grid order.
    pub fn all() -> [SessionMix; 3] {
        [SessionMix::Chat, SessionMix::Agentic, SessionMix::Mixed]
    }

    /// Short label used in row names.
    pub fn name(self) -> &'static str {
        match self {
            SessionMix::Chat => "chat",
            SessionMix::Agentic => "agentic",
            SessionMix::Mixed => "mixed",
        }
    }
}

/// A session-cache experiment: the cluster, the session workload family and
/// the sweep axes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SessionCacheExperiment {
    /// Model being served.
    pub model: ModelKind,
    /// Prefill GPU family (decode side follows the paper default).
    pub prefill_gpu: GpuKind,
    /// Sessions per stream.
    pub sessions: usize,
    /// Session-root arrivals per second per stream.
    pub rps: f64,
    /// Dataset providing the length distributions.
    pub dataset: Dataset,
    /// Turns per chat session.
    pub chat_turns: usize,
    /// Mean think time between chat turns, seconds.
    pub think_mean_s: f64,
    /// Parallel tool calls per agentic session.
    pub agent_tools: usize,
    /// Mean parent-to-dependent issue delay for agentic sessions, seconds.
    pub tool_delay_s: f64,
    /// Capacity fraction of the armed cache cells.
    pub capacity_fraction: f64,
    /// Seed of the workload streams.
    pub seed: u64,
}

impl SessionCacheExperiment {
    /// The default scenario: conversational sessions long enough that shared
    /// prefixes dominate prompt tokens, at a rate the paper-default cluster
    /// serves without collapse.
    pub fn paper_default() -> Self {
        Self {
            model: ModelKind::Llama31_70B,
            prefill_gpu: GpuKind::A10G,
            sessions: 8,
            rps: 0.04,
            dataset: Dataset::Cocktail,
            chat_turns: 4,
            think_mean_s: 25.0,
            agent_tools: 3,
            tool_delay_s: 5.0,
            capacity_fraction: CacheConfig::on()
                .settings()
                .expect("on() carries settings")
                .capacity_fraction,
            seed: 17,
        }
    }

    fn chat_spec(&self, tenant: u32, seed_salt: u64) -> SessionSpec {
        SessionSpec {
            tenant: TenantId(tenant),
            kind: SessionKind::Chat {
                turns: self.chat_turns,
                think_mean_s: self.think_mean_s,
            },
            sessions: self.sessions,
            rps: self.rps,
            dataset: self.dataset,
            max_context: self.model.spec().max_context,
            seed: self.seed.wrapping_add(seed_salt),
        }
    }

    fn agentic_spec(&self, tenant: u32, seed_salt: u64) -> SessionSpec {
        SessionSpec {
            tenant: TenantId(tenant),
            kind: SessionKind::Agentic {
                tools: self.agent_tools,
                tool_delay_s: self.tool_delay_s,
            },
            sessions: self.sessions,
            rps: self.rps,
            dataset: self.dataset,
            max_context: self.model.spec().max_context,
            seed: self.seed.wrapping_add(seed_salt),
        }
    }

    /// The session trace of one mix.
    pub fn trace(&self, mix: SessionMix) -> SessionTrace {
        SessionTrace::new(match mix {
            SessionMix::Chat => vec![self.chat_spec(0, 0)],
            SessionMix::Agentic => vec![self.agentic_spec(0, 1)],
            SessionMix::Mixed => vec![self.chat_spec(0, 0), self.agentic_spec(1, 1)],
        })
    }

    /// The simulation configuration of one (mix, cache, dispatch) cell.
    pub fn simulation_config(
        &self,
        method: Method,
        mix: SessionMix,
        cache: CacheConfig,
        dispatch: DispatchPolicyKind,
        num_requests: usize,
    ) -> SimulationConfig {
        SimulationConfig {
            cluster: hack_cluster::ClusterConfig::paper_default(self.model, self.prefill_gpu),
            trace: TraceConfig {
                // Descriptive aggregate view of the merged session stream; the
                // requests themselves come from [`Self::trace`].
                dataset: self.dataset,
                rps: self.rps * if mix == SessionMix::Mixed { 2.0 } else { 1.0 },
                num_requests,
                max_context: self.model.spec().max_context,
                seed: self.seed,
            },
            profile: method.profile(),
            policy: PolicyConfig {
                dispatch,
                ..PolicyConfig::default()
            },
            faults: FaultPlan::none(),
            telemetry: TelemetryConfig::Off,
            cache,
        }
    }

    /// Runs one (mix, cache, dispatch) cell.
    pub fn run(
        &self,
        method: Method,
        mix: SessionMix,
        cache: CacheConfig,
        dispatch: DispatchPolicyKind,
    ) -> SessionCacheOutcome {
        let requests = Arc::new(self.trace(mix).generate());
        let config = self.simulation_config(method, mix, cache, dispatch, requests.len());
        let result = Simulator::with_requests(config, requests).run();
        SessionCacheOutcome::from_result(mix, cache.is_on(), dispatch, result)
    }

    /// The (cache, dispatch) columns of the sweep: cache off under the default
    /// dispatcher, then the armed cache under least-loaded and
    /// session-affinity dispatch.
    pub fn cells(&self) -> [(CacheConfig, DispatchPolicyKind); 3] {
        let on = CacheConfig::with_capacity_fraction(self.capacity_fraction);
        [
            (CacheConfig::Off, DispatchPolicyKind::LeastLoaded),
            (on, DispatchPolicyKind::LeastLoaded),
            (on, DispatchPolicyKind::SessionAffinity),
        ]
    }

    /// Sweeps mixes × cache × dispatch (the `session_cache` grid): one row per
    /// cell, labelled `mix/cache/dispatch`.
    pub fn grid(&self, method: Method) -> ExperimentTable {
        let columns = [
            "mean_jct_s",
            "p99_jct_s",
            "hit_rate",
            "prefill_s_saved",
            "bytes_saved_mb",
            "makespan_s",
        ]
        .map(String::from)
        .to_vec();
        let mut table = ExperimentTable::new(
            "session_cache",
            format!(
                "Session prefix-cache sweep ({} sessions/stream, {})",
                self.sessions,
                method.name()
            ),
            columns,
            "mixed",
        );
        for mix in SessionMix::all() {
            for (cache, dispatch) in self.cells() {
                let outcome = self.run(method, mix, cache, dispatch);
                table.push_row(Row::new(outcome.label(), outcome.values()));
            }
        }
        table
    }
}

/// Aggregate outcome of one (mix, cache, dispatch) run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SessionCacheOutcome {
    /// The session mix evaluated.
    pub mix: SessionMix,
    /// Whether the prefix cache was armed.
    pub cache_on: bool,
    /// The dispatch policy evaluated.
    pub dispatch: DispatchPolicyKind,
    /// Mean JCT across all requests (seconds).
    pub mean_jct: f64,
    /// 99th-percentile JCT (seconds).
    pub p99_jct: f64,
    /// Simulated makespan (seconds).
    pub makespan: f64,
    /// Prefix-cache hits over hits plus misses (0 when the cache is off).
    pub hit_rate: f64,
    /// Prefix lookups that hit.
    pub prefix_hits: usize,
    /// Prefix lookups that missed.
    pub prefix_misses: usize,
    /// Resident prefixes dropped by eviction or invalidation.
    pub prefix_evictions: usize,
    /// Quantized KV bytes whose prefill and transfer the cache avoided.
    pub bytes_saved: f64,
    /// Prefill compute-seconds the cache avoided.
    pub prefill_seconds_saved: f64,
    /// Requests completed.
    pub completed_requests: usize,
}

impl SessionCacheOutcome {
    /// Aggregates a finished simulation result into the outcome (also for
    /// callers that run the simulation themselves).
    pub fn from_result(
        mix: SessionMix,
        cache_on: bool,
        dispatch: DispatchPolicyKind,
        result: SimulationResult,
    ) -> Self {
        let stats = result.jct_stats();
        Self {
            mix,
            cache_on,
            dispatch,
            mean_jct: result.average_jct(),
            p99_jct: stats.p99,
            makespan: result.makespan,
            hit_rate: result.prefix_hit_rate,
            prefix_hits: result.prefix_hits,
            prefix_misses: result.prefix_misses,
            prefix_evictions: result.prefix_evictions,
            bytes_saved: result.prefix_bytes_saved,
            prefill_seconds_saved: result.prefill_seconds_saved,
            completed_requests: result.records.len(),
        }
    }

    /// Row label of this cell: `mix/cache/dispatch`.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}",
            self.mix.name(),
            if self.cache_on { "on" } else { "off" },
            self.dispatch.name()
        )
    }

    /// Row values, matching [`SessionCacheExperiment::grid`]'s columns.
    pub fn values(&self) -> Vec<f64> {
        vec![
            self.mean_jct,
            self.p99_jct,
            self.hit_rate,
            self.prefill_seconds_saved,
            self.bytes_saved / 1e6,
            self.makespan,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SessionCacheExperiment {
        SessionCacheExperiment {
            sessions: 4,
            ..SessionCacheExperiment::paper_default()
        }
    }

    #[test]
    fn every_cell_runs_and_conserves_requests() {
        let exp = small();
        for mix in SessionMix::all() {
            let total = exp.trace(mix).num_requests();
            for (cache, dispatch) in exp.cells() {
                let outcome = exp.run(Method::hack(), mix, cache, dispatch);
                assert_eq!(outcome.completed_requests, total, "{}", outcome.label());
                if !outcome.cache_on {
                    assert_eq!(outcome.prefix_hits + outcome.prefix_misses, 0);
                    assert_eq!(outcome.hit_rate, 0.0);
                    assert_eq!(outcome.bytes_saved, 0.0);
                }
            }
        }
    }

    #[test]
    fn chat_mix_cache_on_beats_cache_off_with_majority_hits() {
        // The acceptance scenario: conversational sessions hit the cache on
        // most follow-ups and the saved prefill shows up in mean JCT.
        let exp = SessionCacheExperiment::paper_default();
        let off = exp.run(
            Method::hack(),
            SessionMix::Chat,
            CacheConfig::Off,
            DispatchPolicyKind::LeastLoaded,
        );
        let on = exp.run(
            Method::hack(),
            SessionMix::Chat,
            CacheConfig::on(),
            DispatchPolicyKind::SessionAffinity,
        );
        assert!(on.hit_rate >= 0.5, "hit rate {}", on.hit_rate);
        assert!(on.prefill_seconds_saved > 0.0);
        assert!(
            on.mean_jct < off.mean_jct,
            "cache on {} must beat off {}",
            on.mean_jct,
            off.mean_jct
        );
    }

    #[test]
    fn grid_is_deterministic_and_fully_populated() {
        let exp = small();
        let a = exp.grid(Method::Baseline);
        assert_eq!(a.rows.len(), SessionMix::all().len() * exp.cells().len());
        assert_eq!(a, exp.grid(Method::Baseline));
        // Cache-off and armed rows exist for every mix, and the armed chat
        // row records a nonzero hit rate.
        let hit = a
            .value("chat/on/session-affinity", "hit_rate")
            .expect("armed chat row");
        assert!(hit > 0.0);
        assert_eq!(a.value("chat/off/least-loaded", "hit_rate"), Some(0.0));
    }
}
