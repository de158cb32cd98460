//! Pluggable dispatch, admission and scheduling policies of the `Frontend`.
//!
//! The frontend makes three per-request decisions, each behind its own trait:
//!
//! * [`DispatchPolicy`] — *which prefill replica* an admitted request queues
//!   on. Replica-aware: policies see every replica's group, backlog and the
//!   request's estimated service time on that replica's group, so
//!   heterogeneous fleets can route around slow groups.
//! * [`AdmissionPolicy`] — *whether* a request enters the cluster at all.
//! * [`SchedulingPolicy`] — *which queued request* a freed prefill replica
//!   serves next. Since the per-tenant sub-queue redesign the policy picks a
//!   **tenant** from the sub-queue heads (O(tenants) per decision) and the
//!   replica serves that tenant's earliest-queued request; the old
//!   O(queue)-scan + `VecDeque::remove` selection is gone, with the scan kept
//!   as a test oracle pinning the selections bit-identical.
//!
//! All three are chosen per run through the serializable, `Copy`
//! [`PolicyConfig`] on [`crate::config::SimulationConfig`]; the trait objects
//! themselves are built fresh for every run so policy state (round-robin
//! credit, token buckets) never leaks across runs. Every default
//! ([`DispatchPolicyKind::LeastLoaded`], [`AdmissionPolicyKind::AdmitAll`],
//! [`SchedulingPolicyKind::Fcfs`]) instantiates to `None` and keeps the
//! built-in hot path, bit-identical *and* cost-identical to the pre-policy
//! simulator.
//!
//! Shipped dispatch policies:
//!
//! * [`LeastLoaded`] — shortest queue by pending tokens (§7.1), the default;
//!   **bit-identical** to the pre-fleet frontend routing.
//! * [`FastestEligible`] — least estimated completion time: the token backlog
//!   scaled by the replica group's service speed for this request, so a fast
//!   L4 group absorbs more load than an A10G group of equal queue length.
//! * [`GroupAffinity`] — tenants are pinned to prefill groups round-robin
//!   (`tenant mod groups`), least-loaded within the preferred group; gives
//!   noisy tenants a blast radius of one group.
//!
//! Shipped scheduling policies: [`Fcfs`] (default), [`WeightedRoundRobin`],
//! [`SloEdf`]. Shipped admission policies: [`AdmitAll`] (default) and
//! [`TenantTokenBucket`].

use hack_workload::trace::{Request, TenantId};
use serde::{Serialize, Value};

/// Upper bound on distinct tenants per simulation (sizes the fixed per-tenant
/// state so [`PolicyConfig`] stays `Copy`).
pub const MAX_TENANTS: usize = 8;

/// Service class of one tenant: scheduling weight and SLO target.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TenantClass {
    /// Relative scheduling weight (share under [`WeightedRoundRobin`], token
    /// rate under [`TenantTokenBucket`]).
    pub weight: f64,
    /// Target job completion time in seconds ([`SloEdf`]'s deadline offset
    /// and the SLO-attainment threshold in the metrics).
    pub slo_jct: f64,
}

impl Default for TenantClass {
    fn default() -> Self {
        Self {
            weight: 1.0,
            slo_jct: f64::INFINITY,
        }
    }
}

/// The per-tenant service classes of a run: class `i` applies to
/// [`TenantId`]`(i)`. Fixed capacity ([`MAX_TENANTS`]) so the containing
/// configuration stays `Copy`; tenants beyond the configured set fall back to
/// [`TenantClass::default`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantClasses {
    classes: [TenantClass; MAX_TENANTS],
    len: usize,
}

impl TenantClasses {
    /// A single default tenant (weight 1, no SLO target).
    pub fn single_tenant() -> Self {
        Self::new(&[TenantClass::default()])
    }

    /// Classes for tenants `0..classes.len()`.
    ///
    /// # Panics
    /// Panics when more than [`MAX_TENANTS`] classes are supplied or a weight
    /// is not positive.
    pub fn new(classes: &[TenantClass]) -> Self {
        assert!(
            classes.len() <= MAX_TENANTS,
            "at most {MAX_TENANTS} tenants per simulation, got {}",
            classes.len()
        );
        assert!(
            classes.iter().all(|c| c.weight > 0.0),
            "tenant weights must be positive"
        );
        let mut fixed = [TenantClass::default(); MAX_TENANTS];
        fixed[..classes.len()].copy_from_slice(classes);
        Self {
            classes: fixed,
            len: classes.len().max(1),
        }
    }

    /// Number of configured tenant classes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no class beyond the implicit default tenant is configured.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The class of `tenant` (the default class when unconfigured).
    pub fn get(&self, tenant: TenantId) -> TenantClass {
        self.classes
            .get(tenant.index())
            .copied()
            .filter(|_| tenant.index() < self.len)
            .unwrap_or_default()
    }

    /// The configured classes, in tenant order.
    pub fn iter(&self) -> impl Iterator<Item = (TenantId, TenantClass)> + '_ {
        (0..self.len).map(|i| (TenantId(i as u32), self.classes[i]))
    }
}

impl Default for TenantClasses {
    fn default() -> Self {
        Self::single_tenant()
    }
}

// Serialize only the live prefix (the derive would emit all MAX_TENANTS slots).
impl Serialize for TenantClasses {
    fn serialize_value(&self) -> Value {
        Value::Array(
            self.classes[..self.len]
                .iter()
                .map(Serialize::serialize_value)
                .collect(),
        )
    }
}

// --- Dispatch: which prefill replica an admitted request queues on. ---

/// The frontend's per-replica view when routing one request: group membership,
/// current backlog and the request's estimated service time on the replica's
/// group (heterogeneous groups differ in speed, not just load).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicaLoad {
    /// Prefill group of the replica.
    pub group: usize,
    /// Prompt tokens pending on the replica. While the replica is `busy`
    /// this still *includes* the in-service request's prompt (it is released
    /// only when its prefill finishes), so policies should not add their own
    /// in-service estimate on top of it — `ReplicaLoad::backlog_tokens`'s
    /// extra `busy` addend is the pre-fleet router's deliberate pessimism
    /// (the in-service request counted *again*, at the arriving request's
    /// length), kept for bit-compatibility.
    pub queued_tokens: usize,
    /// Requests queued on the replica (the in-service one excluded).
    pub queue_len: usize,
    /// Whether the replica is currently serving a prefill.
    pub busy: bool,
    /// Estimated (prefill + quantization) service seconds of the *arriving*
    /// request on this replica's group.
    pub service_secs: f64,
}

impl ReplicaLoad {
    /// The pre-fleet routing metric: pending tokens, penalising a busy
    /// replica by the arriving request's own length on top of
    /// [`Self::queued_tokens`] (which already holds the in-service prompt).
    fn backlog_tokens(&self, input_len: usize) -> usize {
        self.queued_tokens + if self.busy { input_len } else { 0 }
    }
}

/// Picks the prefill replica an admitted request queues on.
pub trait DispatchPolicy {
    /// Returns the index (into `loads`) of the replica to route `request` to.
    /// `loads` is non-empty and ordered by global replica index (group-major).
    fn route(&mut self, loads: &[ReplicaLoad], request: &Request, now: f64) -> usize;
}

/// Shortest queue by pending tokens (§7.1) — the default, bit-identical to
/// the pre-fleet frontend (first replica wins ties).
#[derive(Debug, Default)]
pub struct LeastLoaded;

impl DispatchPolicy for LeastLoaded {
    fn route(&mut self, loads: &[ReplicaLoad], request: &Request, _now: f64) -> usize {
        loads
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| l.backlog_tokens(request.input_len))
            .map(|(i, _)| i)
            .expect("cluster has at least one prefill replica")
    }
}

/// Least estimated completion time: the token backlog (plus this request)
/// scaled by the group's per-token service speed for this request. On a
/// homogeneous fleet this degrades to [`LeastLoaded`] with a constant extra
/// addend; on a mixed fleet the faster group absorbs proportionally more load.
#[derive(Debug, Default)]
pub struct FastestEligible;

impl DispatchPolicy for FastestEligible {
    fn route(&mut self, loads: &[ReplicaLoad], request: &Request, _now: f64) -> usize {
        let input = request.input_len.max(1);
        let mut best = 0usize;
        let mut best_score = f64::INFINITY;
        for (i, l) in loads.iter().enumerate() {
            let backlog = (l.backlog_tokens(request.input_len) + request.input_len) as f64;
            // Seconds to drain the backlog at this group's speed for prompts
            // like this one (service_secs / input tokens).
            let score = backlog * l.service_secs / input as f64;
            // Strict `<` keeps the first minimum, matching LeastLoaded's
            // deterministic tie-break.
            if score < best_score {
                best = i;
                best_score = score;
            }
        }
        best
    }
}

/// Pins tenants to prefill groups round-robin (`tenant mod groups`) and
/// routes least-loaded *within* the preferred group, so one tenant's burst
/// only queues behind its own group.
#[derive(Debug, Default)]
pub struct GroupAffinity;

impl DispatchPolicy for GroupAffinity {
    fn route(&mut self, loads: &[ReplicaLoad], request: &Request, _now: f64) -> usize {
        let groups = loads.iter().map(|l| l.group + 1).max().unwrap_or(1);
        let preferred = request.tenant.index() % groups;
        loads
            .iter()
            .enumerate()
            .filter(|(_, l)| l.group == preferred)
            .min_by_key(|(_, l)| l.backlog_tokens(request.input_len))
            .map(|(i, _)| i)
            .expect("every group has at least one replica")
    }
}

/// Factor by which a session's pinned prefill replica may exceed the
/// least-loaded replica's backlog before [`SessionAffinity`] spills the
/// session elsewhere.
pub const SESSION_SPILL_FACTOR: f64 = 2.0;

/// Keeps each session's turns on the prefill replica that served the session
/// last (warm locality: the session's KV prefix lands on one decode path and
/// the prefill replica re-serves familiar context), spilling to the
/// least-loaded replica — and re-pinning there — when the pinned replica's
/// backlog exceeds [`SESSION_SPILL_FACTOR`] × the least-loaded backlog plus
/// the request's own length. Independent requests (session 0) route
/// least-loaded. This is the prefill-side half of session affinity; on the
/// decode side, a prefix-cache hit independently forces placement onto the
/// replica holding the prefix.
#[derive(Debug)]
pub struct SessionAffinity {
    spill_factor: f64,
    pinned: std::collections::HashMap<u64, usize>,
}

impl Default for SessionAffinity {
    fn default() -> Self {
        Self {
            spill_factor: SESSION_SPILL_FACTOR,
            pinned: std::collections::HashMap::new(),
        }
    }
}

impl DispatchPolicy for SessionAffinity {
    fn route(&mut self, loads: &[ReplicaLoad], request: &Request, _now: f64) -> usize {
        let fallback = loads
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| l.backlog_tokens(request.input_len))
            .map(|(i, _)| i)
            .expect("cluster has at least one prefill replica");
        if request.session == 0 {
            return fallback;
        }
        match self.pinned.get(&request.session) {
            Some(&pinned) if pinned < loads.len() => {
                let pinned_backlog = loads[pinned].backlog_tokens(request.input_len) as f64;
                let best_backlog = loads[fallback].backlog_tokens(request.input_len) as f64;
                let limit = self.spill_factor * best_backlog + request.input_len as f64;
                if pinned_backlog <= limit {
                    pinned
                } else {
                    self.pinned.insert(request.session, fallback);
                    fallback
                }
            }
            _ => {
                self.pinned.insert(request.session, fallback);
                fallback
            }
        }
    }
}

/// Serializable selector of the run's [`DispatchPolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub enum DispatchPolicyKind {
    /// Shortest queue by pending tokens (the pre-fleet routing, bit-identical).
    #[default]
    LeastLoaded,
    /// Least estimated completion time under the group's cost model.
    FastestEligible,
    /// Tenant-to-group pinning, least-loaded within the preferred group.
    GroupAffinity,
    /// Session-to-replica pinning with a load-spill threshold; independent
    /// requests route least-loaded.
    SessionAffinity,
}

impl DispatchPolicyKind {
    /// Builds the policy instance for one run.
    pub fn build(self) -> Box<dyn DispatchPolicy> {
        match self {
            DispatchPolicyKind::LeastLoaded => Box::<LeastLoaded>::default(),
            DispatchPolicyKind::FastestEligible => Box::<FastestEligible>::default(),
            DispatchPolicyKind::GroupAffinity => Box::<GroupAffinity>::default(),
            DispatchPolicyKind::SessionAffinity => Box::<SessionAffinity>::default(),
        }
    }

    /// Builds the policy for the simulator's hot path: `None` means the
    /// built-in least-loaded default, which the frontend routes without a
    /// policy call or load-view assembly.
    pub(crate) fn instantiate(self) -> Option<Box<dyn DispatchPolicy>> {
        match self {
            DispatchPolicyKind::LeastLoaded => None,
            other => Some(other.build()),
        }
    }

    /// Display name (bench/table row labels).
    pub fn name(self) -> &'static str {
        match self {
            DispatchPolicyKind::LeastLoaded => "least-loaded",
            DispatchPolicyKind::FastestEligible => "fastest-eligible",
            DispatchPolicyKind::GroupAffinity => "group-affinity",
            DispatchPolicyKind::SessionAffinity => "session-affinity",
        }
    }

    /// Every shipped dispatch policy (grid/bench sweeps).
    pub fn all() -> [DispatchPolicyKind; 4] {
        [
            DispatchPolicyKind::LeastLoaded,
            DispatchPolicyKind::FastestEligible,
            DispatchPolicyKind::GroupAffinity,
            DispatchPolicyKind::SessionAffinity,
        ]
    }
}

// --- Admission: whether an arriving request enters the cluster. ---

/// Decides whether an arriving request enters the cluster at all.
///
/// Rejected requests never occupy a prefill queue; the simulator counts them
/// per run (and per tenant) in the result.
pub trait AdmissionPolicy {
    /// Called once per arrival, in arrival order. `now` is the arrival time.
    fn admit(&mut self, request: &Request, now: f64) -> bool;
}

/// Picks which tenant a prefill replica serves next.
///
/// `heads[t]` is the request index of tenant `t`'s earliest-queued request on
/// the replica, or `None` when the tenant has nothing queued there (at least
/// one entry is `Some`). Within a tenant, service order is always arrival
/// order — the policy only arbitrates *between* tenants, which is what makes
/// each decision O(tenants) instead of an O(queue) scan.
pub trait SchedulingPolicy {
    /// Returns the tenant (index into `heads`, `Some` entry) to serve next.
    /// `requests` is the full trace, `classes` the per-tenant service
    /// classes, `now` the decision time.
    fn select_tenant(
        &mut self,
        heads: &[Option<usize>; MAX_TENANTS],
        requests: &[Request],
        classes: &TenantClasses,
        now: f64,
    ) -> usize;
}

/// Admits everything (the default, and the pre-policy behaviour).
#[derive(Debug, Default)]
pub struct AdmitAll;

impl AdmissionPolicy for AdmitAll {
    fn admit(&mut self, _request: &Request, _now: f64) -> bool {
        true
    }
}

/// Per-tenant token bucket: tenant `t` accrues `rate_per_weight * weight(t)`
/// tokens per second up to `burst`, and each admission spends one token.
///
/// Buckets start full, so short bursts are absorbed; a tenant that sustains
/// more than its configured rate sees deterministic rejections instead of
/// inflating every other tenant's queueing time.
#[derive(Debug)]
pub struct TenantTokenBucket {
    rates: [f64; MAX_TENANTS],
    burst: f64,
    tokens: [f64; MAX_TENANTS],
    refilled_at: [f64; MAX_TENANTS],
}

impl TenantTokenBucket {
    /// Builds the bucket set from the run's tenant classes.
    pub fn new(rate_per_weight: f64, burst: f64, classes: &TenantClasses) -> Self {
        assert!(rate_per_weight > 0.0, "token rate must be positive");
        assert!(burst >= 1.0, "burst must admit at least one request");
        let mut rates = [rate_per_weight; MAX_TENANTS];
        for (tenant, class) in classes.iter() {
            rates[tenant.index()] = rate_per_weight * class.weight;
        }
        Self {
            rates,
            burst,
            tokens: [burst; MAX_TENANTS],
            refilled_at: [0.0; MAX_TENANTS],
        }
    }
}

impl AdmissionPolicy for TenantTokenBucket {
    fn admit(&mut self, request: &Request, now: f64) -> bool {
        let t = request.tenant.index().min(MAX_TENANTS - 1);
        let elapsed = (now - self.refilled_at[t]).max(0.0);
        self.tokens[t] = (self.tokens[t] + elapsed * self.rates[t]).min(self.burst);
        self.refilled_at[t] = now;
        if self.tokens[t] >= 1.0 {
            self.tokens[t] -= 1.0;
            true
        } else {
            false
        }
    }
}

/// First-come-first-served: the tenant whose head arrived first (queue pushes
/// are arrival-ordered, so request indices order arrivals). Bit-identical to
/// the pre-policy simulator.
#[derive(Debug, Default)]
pub struct Fcfs;

impl SchedulingPolicy for Fcfs {
    fn select_tenant(
        &mut self,
        heads: &[Option<usize>; MAX_TENANTS],
        _requests: &[Request],
        _classes: &TenantClasses,
        _now: f64,
    ) -> usize {
        heads
            .iter()
            .enumerate()
            .filter_map(|(t, head)| head.map(|req| (req, t)))
            .min()
            .map(|(_, t)| t)
            .expect("the queue is non-empty")
    }
}

/// Smooth weighted round-robin over the tenants currently present in the
/// queue; within a tenant, requests are served in arrival order.
///
/// Classic smooth-WRR: every selection first credits each *present* tenant by
/// its weight, picks the present tenant with the highest accumulated credit
/// (ties to the lowest tenant id), then debits the winner by the total weight
/// credited this round. Absent tenants accrue nothing, so a tenant cannot
/// bank service while idle. O(tenants) per decision.
#[derive(Debug, Default)]
pub struct WeightedRoundRobin {
    credit: [f64; MAX_TENANTS],
}

impl SchedulingPolicy for WeightedRoundRobin {
    fn select_tenant(
        &mut self,
        heads: &[Option<usize>; MAX_TENANTS],
        _requests: &[Request],
        classes: &TenantClasses,
        _now: f64,
    ) -> usize {
        let mut round_total = 0.0;
        let mut winner = MAX_TENANTS;
        for (t, head) in heads.iter().enumerate() {
            if head.is_none() {
                continue;
            }
            let weight = classes.get(TenantId(t as u32)).weight;
            self.credit[t] += weight;
            round_total += weight;
            if winner == MAX_TENANTS || self.credit[t] > self.credit[winner] {
                winner = t;
            }
        }
        debug_assert!(winner < MAX_TENANTS, "queue is non-empty");
        self.credit[winner] -= round_total;
        winner
    }
}

/// Earliest-deadline-first with per-tenant deadlines `arrival + slo_jct`.
///
/// Tenants without a finite SLO target effectively yield to every tenant with
/// one; among equal deadlines the earliest arrival (smallest request index)
/// wins, so single-tenant traces degrade to FCFS. Each tenant's head carries
/// the tenant's earliest deadline (arrival order within a tenant is deadline
/// order), so the decision is O(tenants).
#[derive(Debug, Default)]
pub struct SloEdf;

impl SchedulingPolicy for SloEdf {
    fn select_tenant(
        &mut self,
        heads: &[Option<usize>; MAX_TENANTS],
        requests: &[Request],
        classes: &TenantClasses,
        _now: f64,
    ) -> usize {
        let mut best_tenant = MAX_TENANTS;
        let mut best = (f64::INFINITY, usize::MAX);
        for (t, head) in heads.iter().enumerate() {
            let Some(req) = *head else { continue };
            let r = &requests[req];
            let deadline = r.arrival + classes.get(r.tenant).slo_jct;
            // Strict lexicographic minimum on (deadline, request index): ties
            // resolve to the earliest-queued request, as the old scan did.
            if deadline < best.0 || (deadline == best.0 && req < best.1) {
                best = (deadline, req);
                best_tenant = t;
            }
        }
        debug_assert!(best_tenant < MAX_TENANTS, "queue is non-empty");
        best_tenant
    }
}

/// Serializable selector of the run's [`AdmissionPolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub enum AdmissionPolicyKind {
    /// Admit everything (the pre-policy behaviour).
    #[default]
    AdmitAll,
    /// Per-tenant token bucket: `rate_per_weight * weight(t)` admissions per
    /// second sustained, bursts up to `burst`.
    TokenBucket {
        /// Sustained admission rate per unit of tenant weight (requests/s).
        rate_per_weight: f64,
        /// Bucket capacity in requests (≥ 1).
        burst: f64,
    },
}

impl AdmissionPolicyKind {
    /// Builds the policy instance for one run.
    pub fn build(self, classes: &TenantClasses) -> Box<dyn AdmissionPolicy> {
        match self {
            AdmissionPolicyKind::AdmitAll => Box::new(AdmitAll),
            AdmissionPolicyKind::TokenBucket {
                rate_per_weight,
                burst,
            } => Box::new(TenantTokenBucket::new(rate_per_weight, burst, classes)),
        }
    }

    /// Builds the policy for the simulator's hot path: `None` means the
    /// built-in admit-everything default, which the frontend handles without
    /// any per-arrival policy call (keeping the single-tenant path identical
    /// in cost, not just in outcome, to the pre-policy simulator).
    pub(crate) fn instantiate(self, classes: &TenantClasses) -> Option<Box<dyn AdmissionPolicy>> {
        match self {
            AdmissionPolicyKind::AdmitAll => None,
            other => Some(other.build(classes)),
        }
    }
}

/// Serializable selector of the run's [`SchedulingPolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub enum SchedulingPolicyKind {
    /// First-come-first-served (the pre-policy behaviour, bit-identical).
    #[default]
    Fcfs,
    /// Smooth weighted round-robin over the tenants present in each queue.
    WeightedRoundRobin,
    /// Earliest-deadline-first on per-tenant SLO deadlines.
    SloEdf,
}

impl SchedulingPolicyKind {
    /// Builds the policy instance for one run.
    pub fn build(self) -> Box<dyn SchedulingPolicy> {
        match self {
            SchedulingPolicyKind::Fcfs => Box::<Fcfs>::default(),
            SchedulingPolicyKind::WeightedRoundRobin => Box::<WeightedRoundRobin>::default(),
            SchedulingPolicyKind::SloEdf => Box::<SloEdf>::default(),
        }
    }

    /// Builds the policy for the simulator's hot path: `None` means the
    /// built-in FCFS default, which `start_prefill` serves with a plain
    /// `pop_front` — no per-selection policy call, so the single-tenant path
    /// costs exactly what it did before policies existed.
    pub(crate) fn instantiate(self) -> Option<Box<dyn SchedulingPolicy>> {
        match self {
            SchedulingPolicyKind::Fcfs => None,
            other => Some(other.build()),
        }
    }

    /// Display name (bench/table row labels).
    pub fn name(self) -> &'static str {
        match self {
            SchedulingPolicyKind::Fcfs => "fcfs",
            SchedulingPolicyKind::WeightedRoundRobin => "wrr",
            SchedulingPolicyKind::SloEdf => "slo-edf",
        }
    }

    /// Every shipped scheduling policy (grid/bench sweeps).
    pub fn all() -> [SchedulingPolicyKind; 3] {
        [
            SchedulingPolicyKind::Fcfs,
            SchedulingPolicyKind::WeightedRoundRobin,
            SchedulingPolicyKind::SloEdf,
        ]
    }
}

// --- Scaling: how many decode replicas each group keeps live. ---

/// The autoscaling controller's per-group snapshot at one scaling tick.
/// `live` replicas are dispatchable, `provisioning` ones were ordered but are
/// still paying the provisioning delay, `draining` ones are finishing their
/// in-flight batches before leaving; the three never overlap and never exceed
/// `capacity` (the group's configured replica count).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupScalingView {
    /// Decode group index.
    pub group: usize,
    /// Dispatchable (non-failed, non-drained) replicas.
    pub live: usize,
    /// Replicas ordered but not yet dispatchable.
    pub provisioning: usize,
    /// Replicas draining towards scale-down.
    pub draining: usize,
    /// Configured replica count — the fleet the operator paid to rack.
    pub capacity: usize,
    /// Requests currently decoding across the group's live replicas.
    pub active: usize,
    /// Decode batch slots per replica.
    pub batch: usize,
    /// Requests queued for decode admission (waiting for memory or a batch
    /// slot) plus those still in prefill/transfer — demand that has entered
    /// the cluster but not yet finished decoding.
    pub queued: usize,
    /// Requests that arrived at the cluster since the previous scaling tick.
    pub arrived: usize,
}

impl GroupScalingView {
    /// Replicas already committed to serving (live or on the way up).
    pub fn committed(&self) -> usize {
        self.live + self.provisioning
    }
}

/// Picks each decode group's desired replica count at every scaling tick.
/// The controller clamps the answer to `[1, capacity]` and turns the delta
/// into provisioning orders (scale-up) or drains (scale-down).
pub trait ScalingPolicy {
    /// Desired replica count for the group described by `view` at time `now`.
    fn desired(&mut self, view: &GroupScalingView, now: f64) -> usize;
}

/// Holds the committed replica count steady (the inert controller: every
/// tick's machinery runs but no scale event ever fires).
#[derive(Debug, Default)]
pub struct HoldSteady;

impl ScalingPolicy for HoldSteady {
    fn desired(&mut self, view: &GroupScalingView, _now: f64) -> usize {
        view.committed()
    }
}

/// Queue-depth watermarks: grow by one replica while the backlog per
/// committed replica exceeds `high`, shrink by one while it sits below `low`.
#[derive(Debug)]
pub struct ThresholdScaler {
    high: f64,
    low: f64,
}

impl ThresholdScaler {
    /// Watermarks in queued requests per committed replica (`low < high`).
    pub fn new(high: f64, low: f64) -> Self {
        assert!(low < high, "low watermark must sit below high");
        Self { high, low }
    }
}

impl ScalingPolicy for ThresholdScaler {
    fn desired(&mut self, view: &GroupScalingView, _now: f64) -> usize {
        let committed = view.committed();
        let backlog = view.queued as f64 / committed.max(1) as f64;
        if backlog > self.high {
            committed + 1
        } else if backlog < self.low {
            committed.saturating_sub(1)
        } else {
            committed
        }
    }
}

/// Busy-fraction setpoint with hysteresis: utilization is active decodes over
/// the committed fleet's batch slots; outside `setpoint ± band` the group
/// grows or shrinks by one replica per tick, inside the band it holds (the
/// band is what keeps a noisy trace from thrashing up and down every tick).
#[derive(Debug)]
pub struct TargetUtilizationScaler {
    setpoint: f64,
    band: f64,
}

impl TargetUtilizationScaler {
    /// Setpoint and hysteresis half-width, both in (0, 1).
    pub fn new(setpoint: f64, band: f64) -> Self {
        assert!(
            setpoint > 0.0 && setpoint < 1.0,
            "setpoint must be in (0,1)"
        );
        assert!(
            band >= 0.0 && band < setpoint,
            "band must fit under setpoint"
        );
        Self { setpoint, band }
    }
}

impl ScalingPolicy for TargetUtilizationScaler {
    fn desired(&mut self, view: &GroupScalingView, _now: f64) -> usize {
        let committed = view.committed();
        let slots = (committed * view.batch.max(1)).max(1) as f64;
        let util = (view.active + view.queued) as f64 / slots;
        if util > self.setpoint + self.band {
            committed + 1
        } else if util < self.setpoint - self.band {
            committed.saturating_sub(1)
        } else {
            committed
        }
    }
}

/// EWMA of the arrival rate (fed by the same tick cadence the telemetry
/// sampler uses): desired replicas are the smoothed rate, padded by
/// `headroom`, divided by one replica's sustainable throughput.
#[derive(Debug)]
pub struct PredictiveScaler {
    alpha: f64,
    per_replica_rps: f64,
    headroom: f64,
    ewma: f64,
    last_now: f64,
    primed: bool,
}

impl PredictiveScaler {
    /// `alpha` is the EWMA smoothing factor in (0, 1], `per_replica_rps` one
    /// replica's sustainable request rate, `headroom` the safety multiplier.
    pub fn new(alpha: f64, per_replica_rps: f64, headroom: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0,1]");
        assert!(per_replica_rps > 0.0, "per-replica rate must be positive");
        assert!(
            headroom >= 1.0,
            "headroom below 1 would plan to fall behind"
        );
        Self {
            alpha,
            per_replica_rps,
            headroom,
            ewma: 0.0,
            last_now: 0.0,
            primed: false,
        }
    }
}

impl ScalingPolicy for PredictiveScaler {
    fn desired(&mut self, view: &GroupScalingView, now: f64) -> usize {
        let dt = now - self.last_now;
        self.last_now = now;
        if dt <= 0.0 {
            return view.committed();
        }
        let rate = view.arrived as f64 / dt;
        // The first observation seeds the average instead of decaying from 0.
        self.ewma = if self.primed {
            self.alpha * rate + (1.0 - self.alpha) * self.ewma
        } else {
            self.primed = true;
            rate
        };
        (self.ewma * self.headroom / self.per_replica_rps).ceil() as usize
    }
}

/// Serializable selector of the run's [`ScalingPolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub enum ScalingPolicyKind {
    /// No autoscaling: the fleet stays at its configured size and the
    /// simulator skips the controller entirely (the pre-scaling behaviour,
    /// bit- and cost-identical).
    #[default]
    Off,
    /// Queue-depth watermarks per committed replica.
    Threshold {
        /// Grow while queued-per-replica exceeds this.
        high: f64,
        /// Shrink while queued-per-replica sits below this.
        low: f64,
    },
    /// Busy-fraction setpoint with hysteresis.
    TargetUtilization {
        /// Target busy fraction of the committed batch slots.
        setpoint: f64,
        /// Hysteresis half-width around the setpoint.
        band: f64,
    },
    /// EWMA arrival-rate forecast over per-replica throughput.
    Predictive {
        /// EWMA smoothing factor in (0, 1].
        alpha: f64,
        /// One replica's sustainable request rate (requests/s).
        per_replica_rps: f64,
        /// Safety multiplier on the forecast rate (≥ 1).
        headroom: f64,
    },
}

impl ScalingPolicyKind {
    /// Builds the policy instance for one run ([`Off`](Self::Off) builds the
    /// inert [`HoldSteady`], useful for measuring pure controller overhead).
    pub fn build(self) -> Box<dyn ScalingPolicy> {
        match self {
            ScalingPolicyKind::Off => Box::<HoldSteady>::default(),
            ScalingPolicyKind::Threshold { high, low } => Box::new(ThresholdScaler::new(high, low)),
            ScalingPolicyKind::TargetUtilization { setpoint, band } => {
                Box::new(TargetUtilizationScaler::new(setpoint, band))
            }
            ScalingPolicyKind::Predictive {
                alpha,
                per_replica_rps,
                headroom,
            } => Box::new(PredictiveScaler::new(alpha, per_replica_rps, headroom)),
        }
    }

    /// Builds the policy for the simulator's hot path: `None` means no
    /// controller at all — no scaling ticks on the event queue, no uptime
    /// bookkeeping beyond the static fleet's, bit- *and* cost-identical to
    /// the pre-scaling simulator.
    pub(crate) fn instantiate(self) -> Option<Box<dyn ScalingPolicy>> {
        match self {
            ScalingPolicyKind::Off => None,
            other => Some(other.build()),
        }
    }

    /// Display name (bench/table row labels).
    pub fn name(self) -> &'static str {
        match self {
            ScalingPolicyKind::Off => "off",
            ScalingPolicyKind::Threshold { .. } => "threshold",
            ScalingPolicyKind::TargetUtilization { .. } => "target-util",
            ScalingPolicyKind::Predictive { .. } => "predictive",
        }
    }

    /// The paper-flavoured parameterisation of every shipped scaling policy
    /// (grid/bench sweeps); `per_replica_rps` feeds the predictive forecast.
    pub fn all(per_replica_rps: f64) -> [ScalingPolicyKind; 4] {
        [
            ScalingPolicyKind::Off,
            ScalingPolicyKind::Threshold {
                high: 4.0,
                low: 1.0,
            },
            ScalingPolicyKind::TargetUtilization {
                setpoint: 0.7,
                band: 0.15,
            },
            ScalingPolicyKind::Predictive {
                alpha: 0.3,
                per_replica_rps,
                headroom: 1.2,
            },
        ]
    }
}

/// The frontend policy of one run: tenant classes plus the dispatch,
/// admission and scheduling policies operating on them. `Copy` and
/// serializable so it rides inside [`crate::config::SimulationConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct PolicyConfig {
    /// Per-tenant service classes (weight, SLO target).
    pub tenants: TenantClasses,
    /// Replica dispatch policy (which prefill replica a request queues on).
    pub dispatch: DispatchPolicyKind,
    /// Admission policy.
    pub admission: AdmissionPolicyKind,
    /// Scheduling policy.
    pub scheduling: SchedulingPolicyKind,
    /// Transfer-retry backoff and give-up budgets. The default reproduces
    /// the pre-policy hardcoded constants bit-for-bit.
    pub retry: crate::topology::RetryPolicy,
    /// Decode-fleet autoscaling policy ([`ScalingPolicyKind::Off`] keeps the
    /// static fleet and skips the controller entirely).
    pub scaling: ScalingPolicyKind,
}

impl PolicyConfig {
    /// A multi-tenant policy with the given classes and scheduling policy,
    /// admitting everything and dispatching least-loaded.
    pub fn scheduled(classes: &[TenantClass], scheduling: SchedulingPolicyKind) -> Self {
        Self {
            tenants: TenantClasses::new(classes),
            dispatch: DispatchPolicyKind::LeastLoaded,
            admission: AdmissionPolicyKind::AdmitAll,
            scheduling,
            retry: crate::topology::RetryPolicy::default(),
            scaling: ScalingPolicyKind::Off,
        }
    }

    /// A single-tenant policy with the given decode-fleet scaling policy
    /// (autoscaling experiments).
    pub fn autoscaled(scaling: ScalingPolicyKind) -> Self {
        Self {
            scaling,
            ..Self::default()
        }
    }

    /// A single-tenant policy with the given dispatch policy (heterogeneous-
    /// fleet routing experiments).
    pub fn dispatched(dispatch: DispatchPolicyKind) -> Self {
        Self {
            dispatch,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    fn request(id: u64, tenant: u32, arrival: f64) -> Request {
        Request {
            id,
            tenant: TenantId(tenant),
            arrival,
            input_len: 100,
            output_len: 10,
            session: 0,
            parent: None,
            shared_prefix_tokens: 0,
        }
    }

    /// Per-tenant sub-queue heads of an arrival-ordered flat queue.
    fn heads_of(queue: &VecDeque<usize>, requests: &[Request]) -> [Option<usize>; MAX_TENANTS] {
        let mut heads = [None; MAX_TENANTS];
        for &req in queue {
            let t = requests[req].tenant.index().min(MAX_TENANTS - 1);
            if heads[t].is_none() {
                heads[t] = Some(req);
            }
        }
        heads
    }

    // --- The retired O(queue) scan selections, kept verbatim as the oracle
    // --- the O(tenants) head-based policies are pinned against.

    fn scan_wrr(
        credit: &mut [f64; MAX_TENANTS],
        queue: &VecDeque<usize>,
        requests: &[Request],
        classes: &TenantClasses,
    ) -> usize {
        let mut present = [false; MAX_TENANTS];
        for &req in queue {
            present[requests[req].tenant.index().min(MAX_TENANTS - 1)] = true;
        }
        let mut round_total = 0.0;
        let mut winner = MAX_TENANTS;
        for (t, _) in present.iter().enumerate().filter(|(_, &p)| p) {
            let weight = classes.get(TenantId(t as u32)).weight;
            credit[t] += weight;
            round_total += weight;
            if winner == MAX_TENANTS || credit[t] > credit[winner] {
                winner = t;
            }
        }
        credit[winner] -= round_total;
        queue
            .iter()
            .position(|&req| requests[req].tenant.index().min(MAX_TENANTS - 1) == winner)
            .expect("winner was marked present from this queue")
    }

    fn scan_edf(queue: &VecDeque<usize>, requests: &[Request], classes: &TenantClasses) -> usize {
        let deadline = |req: usize| {
            let r = &requests[req];
            r.arrival + classes.get(r.tenant).slo_jct
        };
        let mut best = 0;
        for pos in 1..queue.len() {
            if deadline(queue[pos]) < deadline(queue[best]) {
                best = pos;
            }
        }
        best
    }

    #[test]
    fn tenant_classes_default_beyond_configured_set() {
        let classes = TenantClasses::new(&[
            TenantClass {
                weight: 3.0,
                slo_jct: 60.0,
            },
            TenantClass {
                weight: 1.0,
                slo_jct: 600.0,
            },
        ]);
        assert_eq!(classes.len(), 2);
        assert_eq!(classes.get(TenantId(0)).weight, 3.0);
        assert_eq!(classes.get(TenantId(1)).slo_jct, 600.0);
        // Unconfigured tenant falls back to the default class.
        assert_eq!(classes.get(TenantId(5)).weight, 1.0);
        assert!(classes.get(TenantId(5)).slo_jct.is_infinite());
    }

    #[test]
    fn fcfs_picks_the_tenant_with_the_earliest_head() {
        let requests = vec![request(0, 1, 0.0), request(1, 0, 1.0)];
        let classes = TenantClasses::single_tenant();
        let mut fcfs = Fcfs;
        // Tenant 1's head (request 0) arrived before tenant 0's (request 1).
        let mut heads = [None; MAX_TENANTS];
        heads[0] = Some(1);
        heads[1] = Some(0);
        assert_eq!(fcfs.select_tenant(&heads, &requests, &classes, 5.0), 1);
    }

    #[test]
    fn wrr_shares_service_by_weight() {
        // Tenant 0 (weight 2) and tenant 1 (weight 1), both always backlogged:
        // over 3 selections tenant 0 must win twice, tenant 1 once.
        let requests: Vec<Request> = (0..12)
            .map(|i| request(i, (i % 2) as u32, i as f64))
            .collect();
        let classes = TenantClasses::new(&[
            TenantClass {
                weight: 2.0,
                slo_jct: f64::INFINITY,
            },
            TenantClass {
                weight: 1.0,
                slo_jct: f64::INFINITY,
            },
        ]);
        let mut wrr = WeightedRoundRobin::default();
        let queue: VecDeque<usize> = [0, 1, 2, 3, 4, 5].into_iter().collect();
        let heads = heads_of(&queue, &requests);
        let mut wins = [0usize; 2];
        for _ in 0..6 {
            wins[wrr.select_tenant(&heads, &requests, &classes, 0.0)] += 1;
        }
        assert_eq!(wins, [4, 2], "2:1 weights over 6 turns");
    }

    #[test]
    fn wrr_serves_a_lone_tenant_in_arrival_order() {
        let requests: Vec<Request> = (0..4).map(|i| request(i, 0, i as f64)).collect();
        let classes = TenantClasses::single_tenant();
        let mut wrr = WeightedRoundRobin::default();
        let queue: VecDeque<usize> = [0, 1, 2, 3].into_iter().collect();
        // Only tenant 0 present: always tenant 0 (whose head is the earliest
        // arrival).
        for _ in 0..4 {
            assert_eq!(
                wrr.select_tenant(&heads_of(&queue, &requests), &requests, &classes, 0.0),
                0
            );
        }
    }

    #[test]
    fn slo_edf_prioritises_tight_deadlines_and_breaks_ties_by_arrival() {
        let requests = vec![
            request(0, 0, 0.0), // deadline 0 + 1000
            request(1, 1, 5.0), // deadline 5 + 10 = 15
            request(2, 1, 8.0), // deadline 8 + 10 = 18
        ];
        let classes = TenantClasses::new(&[
            TenantClass {
                weight: 1.0,
                slo_jct: 1000.0,
            },
            TenantClass {
                weight: 1.0,
                slo_jct: 10.0,
            },
        ]);
        let mut edf = SloEdf;
        let queue: VecDeque<usize> = [0, 1, 2].into_iter().collect();
        assert_eq!(
            edf.select_tenant(&heads_of(&queue, &requests), &requests, &classes, 9.0),
            1
        );
        // Equal deadlines: the earliest-queued request wins.
        let twins = vec![request(0, 0, 1.0), request(1, 1, 1.0)];
        let classes = TenantClasses::new(&[TenantClass::default(), TenantClass::default()]);
        let queue: VecDeque<usize> = [0, 1].into_iter().collect();
        assert_eq!(
            edf.select_tenant(&heads_of(&queue, &twins), &twins, &classes, 2.0),
            0
        );
    }

    #[test]
    fn head_based_policies_match_the_retired_queue_scan() {
        // Drive the O(tenants) head-based selection and the retired O(queue)
        // scan through identical randomized queue evolutions; every selection
        // must pick the same request. This pins the per-tenant sub-queue
        // redesign bit-identical to the scan path it replaced.
        let classes = TenantClasses::new(&[
            TenantClass {
                weight: 3.0,
                slo_jct: 45.0,
            },
            TenantClass {
                weight: 1.0,
                slo_jct: 800.0,
            },
            TenantClass {
                weight: 2.0,
                slo_jct: f64::INFINITY,
            },
        ]);
        // Deterministic pseudo-random stream (no external RNG in this crate).
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let requests: Vec<Request> = (0..64)
            .map(|i| {
                request(
                    i,
                    (next() % 3) as u32,
                    i as f64 + (next() % 7) as f64 * 0.125,
                )
            })
            .collect();

        let mut wrr_heads = WeightedRoundRobin::default();
        let mut wrr_scan_credit = [0.0f64; MAX_TENANTS];
        let mut edf_heads = SloEdf;

        let mut queue: VecDeque<usize> = VecDeque::new();
        let mut arrivals = 0usize;
        for step in 0..200 {
            // Randomly push the next arrival(s) (arrival order preserved).
            while arrivals < requests.len() && next() % 2 == 0 {
                queue.push_back(arrivals);
                arrivals += 1;
            }
            if queue.is_empty() {
                continue;
            }
            let heads = heads_of(&queue, &requests);

            // EDF: stateless, compare directly.
            let scan_pos = scan_edf(&queue, &requests, &classes);
            let tenant = edf_heads.select_tenant(&heads, &requests, &classes, step as f64);
            assert_eq!(
                heads[tenant],
                Some(queue[scan_pos]),
                "step {step}: EDF head selection diverged from the scan"
            );

            // WRR: stateful; advance both copies with the same selection.
            let scan_pos = scan_wrr(&mut wrr_scan_credit, &queue, &requests, &classes);
            let tenant = wrr_heads.select_tenant(&heads, &requests, &classes, step as f64);
            let scan_req = queue[scan_pos];
            assert_eq!(
                heads[tenant],
                Some(scan_req),
                "step {step}: WRR head selection diverged from the scan"
            );
            queue.remove(scan_pos);
        }
    }

    #[test]
    fn token_bucket_enforces_weighted_rates_and_bursts() {
        let classes = TenantClasses::new(&[
            TenantClass {
                weight: 2.0,
                slo_jct: f64::INFINITY,
            },
            TenantClass {
                weight: 1.0,
                slo_jct: f64::INFINITY,
            },
        ]);
        let mut bucket = TenantTokenBucket::new(0.5, 2.0, &classes);
        // Burst of 2 admitted at t=0; the third is rejected.
        assert!(bucket.admit(&request(0, 1, 0.0), 0.0));
        assert!(bucket.admit(&request(1, 1, 0.0), 0.0));
        assert!(!bucket.admit(&request(2, 1, 0.0), 0.0));
        // Tenant 1 refills at 0.5/s: one token back after 2 s.
        assert!(bucket.admit(&request(3, 1, 2.0), 2.0));
        assert!(!bucket.admit(&request(4, 1, 2.0), 2.0));
        // Tenant 0 (weight 2) refills twice as fast — its own bucket is
        // untouched by tenant 1's spending.
        assert!(bucket.admit(&request(5, 0, 0.0), 0.0));
        assert!(bucket.admit(&request(6, 0, 0.0), 0.0));
        assert!(!bucket.admit(&request(7, 0, 0.0), 0.0));
        assert!(bucket.admit(&request(8, 0, 1.0), 1.0));
    }

    fn load(group: usize, queued_tokens: usize, busy: bool, service_secs: f64) -> ReplicaLoad {
        ReplicaLoad {
            group,
            queued_tokens,
            queue_len: usize::from(queued_tokens > 0),
            busy,
            service_secs,
        }
    }

    #[test]
    fn least_loaded_matches_the_pre_fleet_metric() {
        let mut policy = LeastLoaded;
        let req = request(0, 0, 0.0); // input_len = 100
                                      // Replica 1 has fewer queued tokens, but replica 2 is idle: idle beats
                                      // a busy replica whose in-service request counts at this length.
        let loads = [
            load(0, 300, false, 1.0),
            load(0, 50, true, 1.0),
            load(0, 120, false, 1.0),
        ];
        assert_eq!(policy.route(&loads, &req, 0.0), 2);
        // First minimum wins ties.
        let tied = [load(0, 80, false, 1.0), load(0, 80, false, 1.0)];
        assert_eq!(policy.route(&tied, &req, 0.0), 0);
    }

    #[test]
    fn fastest_eligible_prefers_the_faster_group_under_equal_load() {
        let mut policy = FastestEligible;
        let req = request(0, 0, 0.0);
        // Same backlog; group 1 serves this prompt twice as fast.
        let loads = [load(0, 200, false, 2.0), load(1, 200, false, 1.0)];
        assert_eq!(policy.route(&loads, &req, 0.0), 1);
        // A fast group with a deep queue loses to an idle slow one.
        let loads = [load(0, 0, false, 2.0), load(1, 5_000, true, 1.0)];
        assert_eq!(policy.route(&loads, &req, 0.0), 0);
    }

    #[test]
    fn session_affinity_pins_sessions_and_spills_under_load() {
        let mut policy = SessionAffinity::default();
        let mut req = request(0, 0, 0.0); // input_len = 100
        req.session = 7;
        // First turn of the session routes least-loaded and pins there.
        let loads = [load(0, 300, false, 1.0), load(0, 50, false, 1.0)];
        assert_eq!(policy.route(&loads, &req, 0.0), 1);
        // Follow-ups stick to the pin even when it is no longer least-loaded
        // (400 <= 2 * 200 + 100).
        let loads = [load(0, 200, false, 1.0), load(0, 400, false, 1.0)];
        assert_eq!(policy.route(&loads, &req, 0.0), 1);
        // ... until the pinned backlog crosses the spill threshold
        // (901 > 2 * 400 + 100); the session re-pins on the spill target.
        let loads = [load(0, 400, false, 1.0), load(0, 901, false, 1.0)];
        assert_eq!(policy.route(&loads, &req, 0.0), 0);
        let loads = [load(0, 500, false, 1.0), load(0, 450, false, 1.0)];
        assert_eq!(policy.route(&loads, &req, 0.0), 0, "re-pinned after spill");
        // Independent requests (session 0) always route least-loaded.
        assert_eq!(policy.route(&loads, &request(1, 0, 0.0), 0.0), 1);
        // Different sessions pin independently.
        let mut other = request(2, 0, 0.0);
        other.session = 9;
        assert_eq!(policy.route(&loads, &other, 0.0), 1);
    }

    #[test]
    fn group_affinity_pins_tenants_to_groups() {
        let mut policy = GroupAffinity;
        let loads = [
            load(0, 500, false, 1.0),
            load(0, 0, false, 1.0),
            load(1, 0, false, 1.0),
            load(1, 100, false, 1.0),
        ];
        // Tenant 0 -> group 0 (least-loaded within it), tenant 1 -> group 1,
        // tenant 2 wraps to group 0 again.
        assert_eq!(policy.route(&loads, &request(0, 0, 0.0), 0.0), 1);
        assert_eq!(policy.route(&loads, &request(1, 1, 0.0), 0.0), 2);
        assert_eq!(policy.route(&loads, &request(2, 2, 0.0), 0.0), 1);
    }

    #[test]
    fn kinds_build_their_policies() {
        let classes = TenantClasses::single_tenant();
        let requests = vec![request(0, 0, 0.0)];
        let mut heads = [None; MAX_TENANTS];
        heads[0] = Some(0);
        for kind in SchedulingPolicyKind::all() {
            let mut policy = kind.build();
            assert_eq!(policy.select_tenant(&heads, &requests, &classes, 0.0), 0);
            assert!(!kind.name().is_empty());
        }
        for kind in DispatchPolicyKind::all() {
            let mut policy = kind.build();
            let loads = [load(0, 0, false, 1.0)];
            assert_eq!(policy.route(&loads, &requests[0], 0.0), 0);
            assert!(!kind.name().is_empty());
        }
        let mut admit = AdmissionPolicyKind::AdmitAll.build(&classes);
        assert!(admit.admit(&requests[0], 0.0));
        let mut bucket = AdmissionPolicyKind::TokenBucket {
            rate_per_weight: 1.0,
            burst: 1.0,
        }
        .build(&classes);
        assert!(bucket.admit(&requests[0], 0.0));
        assert!(!bucket.admit(&requests[0], 0.0));
    }

    fn view(live: usize, provisioning: usize, active: usize, queued: usize) -> GroupScalingView {
        GroupScalingView {
            group: 0,
            live,
            provisioning,
            draining: 0,
            capacity: 8,
            active,
            batch: 8,
            queued,
            arrived: 0,
        }
    }

    #[test]
    fn scaling_policies_track_load() {
        // Off instantiates to no controller at all; everything else to one.
        assert!(ScalingPolicyKind::Off.instantiate().is_none());
        for kind in ScalingPolicyKind::all(1.0).into_iter().skip(1) {
            assert!(kind.instantiate().is_some(), "{}", kind.name());
        }

        // The inert policy holds whatever is committed, including in-flight
        // provisioning orders.
        assert_eq!(HoldSteady.desired(&view(3, 1, 0, 100), 10.0), 4);

        // Threshold: backlog per committed replica against the watermarks.
        let mut th = ThresholdScaler::new(4.0, 1.0);
        assert_eq!(th.desired(&view(2, 0, 0, 10), 0.0), 3, "10/2 > 4 grows");
        assert_eq!(th.desired(&view(2, 0, 0, 1), 0.0), 1, "1/2 < 1 shrinks");
        assert_eq!(th.desired(&view(2, 0, 0, 4), 0.0), 2, "2 <= 4/2 <= 4 holds");
        // Provisioning replicas count as committed: no double-ordering while
        // the first order is still in flight.
        assert_eq!(th.desired(&view(2, 1, 0, 13), 0.0), 4);
        assert_eq!(th.desired(&view(2, 1, 0, 9), 0.0), 3);

        // Target utilization: demand over committed batch slots, hysteresis
        // band holds in between.
        let mut tu = TargetUtilizationScaler::new(0.7, 0.15);
        assert_eq!(tu.desired(&view(2, 0, 14, 0), 0.0), 3, "14/16 > 0.85");
        assert_eq!(tu.desired(&view(2, 0, 4, 0), 0.0), 1, "4/16 < 0.55");
        assert_eq!(tu.desired(&view(2, 0, 11, 0), 0.0), 2, "0.69 in band");

        // Predictive: the first tick seeds the EWMA, later ticks smooth it;
        // desired is the padded forecast over per-replica throughput.
        let mut pr = PredictiveScaler::new(0.5, 1.0, 1.0);
        let mut v = view(1, 0, 0, 0);
        v.arrived = 40;
        assert_eq!(pr.desired(&v, 10.0), 4, "seed: 4 rps / 1 rps per replica");
        v.arrived = 0;
        assert_eq!(pr.desired(&v, 20.0), 2, "EWMA 2 rps after an idle tick");
        // A zero-dt tick holds instead of dividing by zero.
        assert_eq!(pr.desired(&v, 20.0), 1);
    }
}
