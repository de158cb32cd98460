//! Golden digests: FNV-1a hashes of the `Debug` output of seeded simulator
//! runs and experiment grids.
//!
//! Each constant pins a whole run bit for bit: the engine event log (every
//! emission and delivery, in order) and the `SimulationResult` of a few
//! hand-picked configurations, and the outcome grid of every scenario
//! experiment, both at a small size (`"grid"`) and at the paper size the
//! `scenarios` binary prints (`"paper"`). The run and small-grid constants
//! were recorded while the simulator still carried a second engine layout
//! (every payload boxed, whole events heapified) and a second cost path
//! (per-token reference loops), and each came out identical under both
//! engines. A change that moves one of them
//! changed what the simulator computes; if that was intended, re-pin the new
//! value printed by the failure and say why in the change description.

use hack_cluster::{
    AvailabilityModel, CacheConfig, ClusterConfig, FaultDomain, FaultEvent, FaultPlan, GroupSet,
    LinkGraphSpec, MtbfSpec, PolicyConfig, ReplicaGroup, ScalingPolicyKind, SchedulingPolicyKind,
    SimulationConfig, Simulator, TelemetryConfig, TenantClass, TenantClasses, TopologySpec,
};
use hack_core::prelude::*;
use hack_model::cost::KvMethodProfile;
use std::fmt::{self, Debug, Write as _};
use std::sync::Arc;

/// 64-bit FNV-1a over the bytes written to it.
struct Fnv(u64);

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for byte in s.bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

/// Digest of a value's `Debug` representation.
fn digest<T: Debug>(value: &T) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    write!(h, "{value:?}").expect("hashing never fails");
    h.0
}

/// Fails with every drifted `(label, got, pinned)` entry at once, printing the
/// new values so an intended change can be re-pinned in one pass.
fn check(pins: &[(&str, u64, u64)]) {
    let drifted: Vec<String> = pins
        .iter()
        .filter(|(_, got, want)| got != want)
        .map(|(label, got, want)| format!("  {label}: {got:#018x} (pinned {want:#018x})"))
        .collect();
    assert!(
        drifted.is_empty(),
        "golden digests drifted:\n{}",
        drifted.join("\n")
    );
}

/// Digests of a traced run: (event log, result).
fn traced(config: SimulationConfig) -> (u64, u64) {
    let (result, log) = Simulator::new(config).run_traced();
    (digest(&log), digest(&result))
}

/// Llama-3.1-70B on the paper fleet (A10G prefill), Cocktail at 0.08 rps.
fn cocktail(profile: KvMethodProfile, n: usize) -> SimulationConfig {
    let model = ModelKind::Llama31_70B;
    SimulationConfig {
        cluster: ClusterConfig::paper_default(model, GpuKind::A10G),
        trace: TraceConfig {
            dataset: Dataset::Cocktail,
            rps: 0.08,
            num_requests: n,
            max_context: model.spec().max_context,
            seed: 7,
        },
        profile,
        policy: PolicyConfig::default(),
        faults: FaultPlan::none(),
        telemetry: TelemetryConfig::Off,
        cache: CacheConfig::Off,
    }
}

#[test]
fn cocktail_runs_at_40_requests() {
    let (baseline_log, baseline) = traced(cocktail(KvMethodProfile::baseline(), 40));
    let (hack_log, hack) = traced(cocktail(KvMethodProfile::hack(), 40));
    check(&[
        ("baseline log", baseline_log, 0x87d9_bfb6_10af_a677),
        ("baseline result", baseline, 0x4b73_526d_8510_9047),
        ("hack log", hack_log, 0xe731_8dd2_8a53_0519),
        ("hack result", hack, 0x5105_9485_7856_874a),
    ]);
}

#[test]
fn transient_decode_failure_run() {
    let config = SimulationConfig {
        faults: FaultPlan::new(&[FaultEvent::transient(
            FaultDomain::DecodeReplica(0),
            50.0,
            400.0,
        )]),
        ..cocktail(KvMethodProfile::baseline(), 30)
    };
    let (log, result) = traced(config);
    check(&[
        ("log", log, 0x2377_9e8d_1ff1_3104),
        ("result", result, 0xddb2_119a_a8ef_945b),
    ]);
}

#[test]
fn mixed_a10g_l4_fleet_run() {
    let model = ModelKind::Llama31_70B;
    let mut config = cocktail(KvMethodProfile::hack(), 35);
    config.cluster.fleet.prefill = GroupSet::new(&[
        ReplicaGroup {
            replicas: 3,
            ..ReplicaGroup::paper_sized(model, GpuKind::A10G, 6)
        },
        ReplicaGroup {
            replicas: 2,
            ..ReplicaGroup::paper_sized(model, GpuKind::L4, 4)
        },
    ]);
    let (log, result) = traced(config);
    check(&[
        ("log", log, 0xc67b_3cde_597e_164b),
        ("result", result, 0xa357_1dc3_dc4b_7dce),
    ]);
}

/// Chat and agentic sessions of two WRR-scheduled tenants on a two-spine link
/// graph with a generated fault plan, predictive scaling, the prefix cache
/// and telemetry all on.
fn all_layers() -> (SimulationConfig, Arc<Vec<hack_workload::Request>>) {
    let model = ModelKind::Llama31_70B;
    let spec = |tenant: u32, kind: SessionKind| SessionSpec {
        tenant: TenantId(tenant),
        kind,
        sessions: 6,
        rps: 0.2,
        dataset: Dataset::Imdb,
        max_context: model.spec().max_context,
        seed: 31 + u64::from(tenant),
    };
    let requests = Arc::new(
        SessionTrace::new(vec![
            spec(
                0,
                SessionKind::Chat {
                    turns: 3,
                    think_mean_s: 20.0,
                },
            ),
            spec(
                1,
                SessionKind::Agentic {
                    tools: 3,
                    tool_delay_s: 5.0,
                },
            ),
        ])
        .generate(),
    );
    let mut cluster = ClusterConfig::paper_default(model, GpuKind::A10G);
    cluster.topology = TopologySpec::LinkGraph(LinkGraphSpec::redundant(2));
    let horizon = requests.last().map_or(1.0, |r| r.arrival);
    // Decode-replica outages and decode-ToR slowdowns; no spine outages, so
    // the fabric always keeps a path.
    let availability = AvailabilityModel {
        decode_replica: Some(MtbfSpec::outage(horizon / 2.0, 20.0)),
        decode_tor: Some(MtbfSpec::slowdown(horizon / 2.0, 40.0, 0.35)),
        ..AvailabilityModel::default()
    };
    let faults = availability.generate_plan(&cluster.fleet_shape(), horizon, 6);
    let config = SimulationConfig {
        cluster,
        trace: TraceConfig {
            dataset: Dataset::Imdb,
            rps: 0.4,
            num_requests: requests.len(),
            max_context: model.spec().max_context,
            seed: 9,
        },
        profile: Method::hack().profile(),
        policy: PolicyConfig {
            tenants: TenantClasses::new(&[
                TenantClass {
                    weight: 3.0,
                    slo_jct: 60.0,
                },
                TenantClass {
                    weight: 1.0,
                    slo_jct: 300.0,
                },
            ]),
            scheduling: SchedulingPolicyKind::WeightedRoundRobin,
            scaling: ScalingPolicyKind::Predictive {
                alpha: 0.3,
                per_replica_rps: 0.5,
                headroom: 1.2,
            },
            ..PolicyConfig::default()
        },
        faults,
        telemetry: TelemetryConfig::on(),
        cache: CacheConfig::with_capacity_fraction(0.05),
    };
    (config, requests)
}

#[test]
fn all_opt_in_layers_run() {
    let (config, requests) = all_layers();
    assert!(!config.faults.is_empty(), "the plan must inject faults");
    let sim = Simulator::with_requests(config, requests);
    let (result, log) = sim.run_traced();
    let (telemetry_result, telemetry) = sim.run_with_telemetry();
    assert_eq!(result, telemetry_result);
    // Every layer does work: the cache hits and evicts, the scaler moves the
    // fleet both ways, and a fault aborts in-flight requests.
    assert!(result.prefix_hits > 0 && result.prefix_evictions > 0);
    assert!(result.scale_ups > 0 && result.scale_downs > 0);
    assert!(result.requeued_requests > 0 && result.degraded_link_secs > 0.0);
    check(&[
        ("log", digest(&log), 0xa180_4ac6_0fb0_2958),
        ("result", digest(&result), 0x442e_068c_8172_de5f),
        (
            "telemetry",
            digest(&telemetry.expect("telemetry is on")),
            0xda5c_1a94_172a_0a8d,
        ),
    ]);
}

#[test]
fn jct_experiment_per_method() {
    let experiment = JctExperiment {
        num_requests: 20,
        rps: Some(0.1),
        ..JctExperiment::paper_default()
    };
    let pinned: [(Method, u64); 11] = [
        (Method::Baseline, 0xa0c7_bc92_9f71_ac8c),
        (Method::CacheGen, 0x8626_74a1_4c51_da4f),
        (Method::KvQuant, 0xa3c6_7b23_3f59_376d),
        (Method::Fp8, 0x9656_1b19_7fd4_eb55),
        (Method::Fp6, 0x0b8a_e236_959b_19f0),
        (Method::Fp4, 0x8342_d914_dc88_764d),
        (Method::Hack { partition: 32 }, 0x4b42_c9a1_15d0_dd49),
        (Method::hack(), 0x8a30_ebc0_0d95_0497),
        (Method::Hack { partition: 128 }, 0xc9ce_ba33_9d84_b0ff),
        (Method::HackNoSe, 0xa9a0_611e_52c7_b438),
        (Method::HackNoRqe, 0x7e4d_54f8_73c3_3074),
    ];
    let names: Vec<String> = pinned.iter().map(|(m, _)| m.name()).collect();
    let pins: Vec<(&str, u64, u64)> = pinned
        .iter()
        .zip(&names)
        .map(|((method, want), name)| (name.as_str(), digest(&experiment.run(*method)), *want))
        .collect();
    check(&pins);
}

/// A 20 000-request HACK run on IMDb at 2 rps (the `trace-300k` benchmark
/// setting, scaled down): thousands of pre-seeded arrivals wait in the
/// engine queue while in-flight events churn around them, and the 20 000
/// records are assembled in finish-time order.
#[test]
fn jct_experiment_at_20k_requests() {
    let experiment = JctExperiment {
        dataset: Dataset::Imdb,
        num_requests: 20_000,
        rps: Some(2.0),
        ..JctExperiment::paper_default()
    };
    let (result, log) = Simulator::new(experiment.simulation_config(Method::hack())).run_traced();
    assert_eq!(result.records.len(), 20_000);
    check(&[
        ("log", digest(&log), 0xdbe7_3139_bc10_dcd3),
        ("result", digest(&result), 0x72db_7226_0bee_580d),
    ]);
}

#[test]
fn tenant_mix_grid() {
    let mut mix = TenantMixExperiment::interactive_vs_batch();
    mix.tenants[0].num_requests = 8;
    mix.tenants[1].num_requests = 30;
    check(&[
        (
            "grid",
            digest(&mix.grid(Method::hack())),
            0x5768_8fa2_5ca1_e87a,
        ),
        (
            "paper",
            digest(&TenantMixExperiment::interactive_vs_batch().grid(Method::hack())),
            0xb1a9_6677_189d_fd1c,
        ),
    ]);
}

#[test]
fn hetero_fleet_grid() {
    let hetero = HeteroFleetExperiment {
        num_requests: 25,
        ..HeteroFleetExperiment::paper_mixed()
    };
    check(&[
        (
            "grid",
            digest(&hetero.grid(Method::hack())),
            0x4942_045e_b9d6_69a1,
        ),
        (
            "paper",
            digest(&HeteroFleetExperiment::paper_mixed().grid(Method::hack())),
            0xeb27_59b3_3e1c_7183,
        ),
    ]);
}

#[test]
fn fault_storm_grid() {
    let storm = FaultStormExperiment {
        num_requests: 25,
        ..FaultStormExperiment::paper_storm()
    };
    check(&[
        (
            "grid",
            digest(&storm.grid(Method::hack())),
            0x48b1_5dfb_22eb_d641,
        ),
        (
            "paper",
            digest(&FaultStormExperiment::paper_storm().grid(Method::hack())),
            0x8060_bddd_cb02_dd08,
        ),
    ]);
}

#[test]
fn availability_grid() {
    let mut sweep = AvailabilityExperiment::paper_sweep();
    sweep.num_requests = 15;
    sweep.fault_seeds.truncate(2);
    check(&[
        (
            "grid",
            digest(&sweep.grid(Method::hack())),
            0x07f5_e9b8_c392_727b,
        ),
        (
            "paper",
            digest(&AvailabilityExperiment::paper_sweep().grid(Method::hack())),
            0x75ab_d971_5049_5f62,
        ),
    ]);
}

#[test]
fn autoscale_grid() {
    let auto = AutoscaleExperiment {
        num_requests: 20,
        ..AutoscaleExperiment::paper_sweep()
    };
    check(&[
        (
            "grid",
            digest(&auto.grid(Method::hack())),
            0xe2f6_902a_b235_131b,
        ),
        (
            "paper",
            digest(&AutoscaleExperiment::paper_sweep().grid(Method::hack())),
            0x7395_6f79_4f9f_6721,
        ),
    ]);
}

#[test]
fn session_cache_grid() {
    let sessions = SessionCacheExperiment {
        sessions: 3,
        ..SessionCacheExperiment::paper_default()
    };
    check(&[
        (
            "grid",
            digest(&sessions.grid(Method::hack())),
            0x687b_f6b5_1235_5b10,
        ),
        (
            "paper",
            digest(&SessionCacheExperiment::paper_default().grid(Method::hack())),
            0x1ecc_1559_bd32_20cc,
        ),
    ]);
}
