//! Declarative, serializable experiment specs: one [`Scenario`] value
//! describes workload + cluster + policy and materializes into a
//! runnable simulation.
//!
//! Experiments are *data*: a `Scenario` round-trips through the
//! dependency-free [`jsonio`] layer (`scenarios/*.json`) and is shared
//! verbatim by tests, benches, and CI. Serving knobs are declared once,
//! in [`PolicySpec`], which the [`Evaluator`] holds whole.
//!
//! The JSON codec is table-driven: each spec object (the top level,
//! `techniques`, `cluster`, `cluster.pools[i]`, `policies`,
//! `workload[i]`) has one table of fields, and each entry holds a key's
//! spelling, its writer and its reader. One generic writer emits an
//! object in table order; one generic reader rejects unknown keys
//! (naming the closest known one) before it reads any value, and every
//! error names its path: `cluster.pools[0]: router: unknown value "dns"`.
//! Enum-valued keys spell through their type's `ALL` and `label()`;
//! integers that do not fit their field are errors. The [`keys`] lists
//! are read off the same tables, so adding a knob takes its struct
//! field, one table entry and its `docs/scenarios.md` row.
//!
//! ```text
//! scenarios/*.json ──parse──▶ Scenario ──materialize──▶ Materialized
//!                                  (evaluators + pools + routers + trace)
//!                                                        │
//!                          Materialized::serve ◀─────────┘──▶ ServingReport
//! ```
//!
//! Multi-tenant traffic is first-class: the workload is a list of
//! [`TenantSpec`]s, each with its own arrival process, dataset, decode
//! spec, priority class, and optional TTFT SLO target. Tenant traces
//! are generated independently (per-tenant seeds, so one tenant's knobs
//! never perturb another's RNG stream), tagged with their tenant id,
//! and merged into one globally arrival-ordered trace; the serving
//! report then carries per-tenant latency percentiles, SLO attainment,
//! and goodput (fed into the Jain tenant-fairness index,
//! [`crate::ServingReport::tenant_fairness`]).
//!
//! A one-tenant scenario with priority 0 and default knobs is
//! **bit-exact** with the historical `TraceBuilder` + `Evaluator` path
//! (enforced by `tests/scenario_properties.rs` against the golden
//! pins): the spec layer adds no arithmetic, only structure.

use crate::cluster::{run_pools, Cluster, PoolRun, RouterKind};
use crate::config::{SystemConfig, SystemKind, Techniques};
pub use crate::policy::PolicySpec;
use crate::policy::{
    KvTransferConfig, PoolRole, PreemptionPolicy, PrefillConfig, SchedulingPolicy, SheddingPolicy,
    VictimOrder,
};
use crate::serve::{Evaluator, ServingReport};
use jsonio::Json;
use llm_model::ModelConfig;
use pim_compiler::ParallelConfig;
use workload::{ArrivalProcess, Dataset, DatasetStats, DecodeSpec, Trace, TraceBuilder};

/// One tenant's traffic in a scenario: its own dataset, volume, decode
/// spec, arrival process, priority class, and optional TTFT SLO.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Human-readable tenant name (report tables key on it).
    pub name: String,
    /// Table II dataset the context lengths are drawn from.
    pub dataset: Dataset,
    /// Requests this tenant offers.
    pub requests: usize,
    /// RNG seed for this tenant's trace (independent per tenant).
    pub seed: u64,
    /// Per-request decode budget.
    pub decode: DecodeSpec,
    /// Arrival-time process.
    pub arrivals: ArrivalProcess,
    /// Scheduling priority class shared by every request of the tenant
    /// (higher is more urgent; priority diversity across tenants is
    /// what lets preemption policies evict).
    pub priority: u8,
    /// Priority classes the tenant's requests are drawn from: each
    /// request's class is uniform over `0..priority_levels`, drawn as
    /// `TraceBuilder::priority_levels` draws it. 1 (the default) gives
    /// every request `priority`; more levels require `priority` 0.
    pub priority_levels: u8,
    /// Optional TTFT SLO target in seconds — the report's per-tenant
    /// attainment is the fraction of completed requests meeting it.
    pub slo_ttft_p99: Option<f64>,
    /// Leading prompt tokens every request of this tenant shares (a
    /// common system prompt), clamped per request to its context
    /// length. 0 (the default) means no sharing; with
    /// `policies.prefix_caching` on, shared tokens hit the page-level
    /// prefix cache after the tenant's first admission.
    pub shared_prefix: u64,
    /// Factor on the dataset's context-length distribution: its mean,
    /// std, min and max are multiplied by it (min and max truncated to
    /// integers), and the max is capped so the longest prompt plus the
    /// largest decode budget fits the model's context window. 1.0 (the
    /// default) is the dataset itself.
    pub context_scale: f64,
}

impl TenantSpec {
    /// A tenant with the trace builder's defaults: 128 requests,
    /// seed 0, fixed 256-token decode, batch arrivals, priority 0, no
    /// SLO.
    pub fn new(name: impl Into<String>, dataset: Dataset) -> Self {
        TenantSpec {
            name: name.into(),
            dataset,
            requests: 128,
            seed: 0,
            decode: DecodeSpec::Fixed(256),
            arrivals: ArrivalProcess::Batch,
            priority: 0,
            priority_levels: 1,
            slo_ttft_p99: None,
            shared_prefix: 0,
            context_scale: 1.0,
        }
    }

    /// Sets the request count.
    pub fn requests(mut self, n: usize) -> Self {
        self.requests = n;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the decode budget spec.
    pub fn decode(mut self, spec: DecodeSpec) -> Self {
        self.decode = spec;
        self
    }

    /// Sets the arrival process.
    pub fn arrivals(mut self, process: ArrivalProcess) -> Self {
        self.arrivals = process;
        self
    }

    /// Sets the priority class.
    pub fn priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the TTFT SLO target in seconds.
    pub fn slo_ttft_p99(mut self, seconds: f64) -> Self {
        self.slo_ttft_p99 = Some(seconds);
        self
    }

    /// Sets the shared leading-prompt length in tokens.
    pub fn shared_prefix(mut self, tokens: u64) -> Self {
        self.shared_prefix = tokens;
        self
    }

    /// The context-length statistics this tenant's prompts are drawn
    /// from: the dataset's, scaled by [`Self::context_scale`], with the
    /// max capped at `context_window` minus the largest decode budget.
    fn context_stats(&self, context_window: u64) -> DatasetStats {
        let s = self.dataset.stats();
        let k = self.context_scale;
        let (DecodeSpec::Fixed(decode) | DecodeSpec::Uniform(_, decode)) = self.decode;
        DatasetStats {
            mean: s.mean * k,
            std: s.std * k,
            min: (s.min as f64 * k) as u64,
            max: ((s.max as f64 * k) as u64).min(context_window.saturating_sub(decode)),
            ..s
        }
    }

    /// Builds this tenant's trace, tagged with `tenant`, for a model
    /// with `context_window` tokens.
    fn build_trace(&self, tenant: u8, context_window: u64) -> Trace {
        let mut builder = TraceBuilder::from_stats(self.context_stats(context_window))
            .seed(self.seed)
            .requests(self.requests)
            .decode(self.decode)
            .arrivals(self.arrivals)
            .priority_levels(self.priority_levels)
            .tenant(tenant)
            .shared_prefix(self.shared_prefix);
        // A fixed priority would override the drawn levels; validation
        // keeps it 0 whenever levels are drawn.
        if self.priority > 0 {
            builder = builder.priority(self.priority);
        }
        builder.build()
    }

    /// Validates the spec for a model with `context_window` tokens,
    /// naming the offending field.
    fn validate(&self, idx: usize, context_window: u64) -> Result<(), String> {
        if self.requests == 0 {
            return Err(format!(
                "workload[{idx}] ({}): requests must be > 0",
                self.name
            ));
        }
        if !self.decode.is_valid() {
            return Err(format!(
                "workload[{idx}] ({}): decode range requires 1 <= lo <= hi, got {:?}",
                self.name, self.decode
            ));
        }
        if self.decode == DecodeSpec::Fixed(0) {
            // Zero-emission requests produce no latency samples, so a
            // whole tenant of them would silently vanish from the
            // per-tenant report — reject the spec instead.
            return Err(format!(
                "workload[{idx}] ({}): decode must be >= 1 token",
                self.name
            ));
        }
        if let Some(rate) = self.arrivals.rate() {
            if !(rate > 0.0 && rate.is_finite()) {
                return Err(format!(
                    "workload[{idx}] ({}): arrival rate must be positive and finite",
                    self.name
                ));
            }
        }
        if let ArrivalProcess::Bursty { cv, .. } = self.arrivals {
            if cv < 1.0 {
                return Err(format!(
                    "workload[{idx}] ({}): bursty cv must be >= 1",
                    self.name
                ));
            }
        }
        if let Some(slo) = self.slo_ttft_p99 {
            if !(slo > 0.0 && slo.is_finite()) {
                return Err(format!(
                    "workload[{idx}] ({}): slo_ttft_p99 must be positive and finite",
                    self.name
                ));
            }
        }
        if self.priority_levels == 0 {
            return Err(format!(
                "workload[{idx}] ({}): priority_levels must be >= 1",
                self.name
            ));
        }
        if self.priority_levels > 1 && self.priority != 0 {
            return Err(format!(
                "workload[{idx}] ({}): priority_levels {} draws each request's priority, \
                 so priority must be 0, got {}",
                self.name, self.priority_levels, self.priority
            ));
        }
        if !(self.context_scale > 0.0 && self.context_scale.is_finite()) {
            return Err(format!(
                "workload[{idx}] ({}): context_scale must be positive and finite",
                self.name
            ));
        }
        let stats = self.context_stats(context_window);
        if stats.min > stats.max {
            return Err(format!(
                "workload[{idx}] ({}): context_scale {} puts the shortest prompt at {} \
                 tokens, above the longest that fits the context window with the \
                 decode budget ({} tokens)",
                self.name, self.context_scale, stats.min, stats.max
            ));
        }
        Ok(())
    }
}

/// One replica pool of a disaggregated cluster: a named group of
/// identical replicas with a serving role, its own sizing, and
/// optionally its own system preset and router — so an xPU+PIM prefill
/// pool can front a PIM-only decode pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolSpec {
    /// Pool name (report breakdowns key on it; must be unique).
    pub name: String,
    /// Serving phase the pool owns. `mixed` runs the full lifecycle;
    /// `prefill` retires at prompt residency and hands the KV off;
    /// `decode` admits only handoffs.
    pub role: PoolRole,
    /// Replicas in the pool (>= 1).
    pub replicas: u32,
    /// Tensor-parallel degree of one replica; 0 (the default) means
    /// "whole node" — the pool's system preset unpartitioned.
    pub tp: u32,
    /// Pipeline-parallel degree of one replica.
    pub pp: u32,
    /// System preset override for this pool; `None` inherits the
    /// scenario-level `system`.
    pub system: Option<SystemKind>,
    /// Router override for this pool; `None` inherits
    /// `policies.router`.
    pub router: Option<RouterKind>,
}

impl PoolSpec {
    /// A pool of `replicas` whole-node replicas inheriting the
    /// scenario's system preset and router.
    pub fn new(name: impl Into<String>, role: PoolRole, replicas: u32) -> Self {
        PoolSpec {
            name: name.into(),
            role,
            replicas,
            tp: 0,
            pp: 1,
            system: None,
            router: None,
        }
    }

    /// Sets the per-replica TP/PP partitioning.
    pub fn parallel(mut self, tp: u32, pp: u32) -> Self {
        self.tp = tp;
        self.pp = pp;
        self
    }

    /// Overrides the pool's system preset.
    pub fn system(mut self, kind: SystemKind) -> Self {
        self.system = Some(kind);
        self
    }

    /// Overrides the pool's router.
    pub fn router(mut self, kind: RouterKind) -> Self {
        self.router = Some(kind);
        self
    }

    /// Validates the pool spec, naming the offending field.
    fn validate(&self, idx: usize) -> Result<(), String> {
        if self.name.is_empty() {
            return Err(format!("cluster.pools[{idx}]: name must be nonempty"));
        }
        if self.replicas == 0 {
            return Err(format!(
                "cluster.pools[{idx}] ({}): replicas must be >= 1",
                self.name
            ));
        }
        Ok(())
    }
}

/// Cluster sizing of a scenario: the parallelization of one replica and
/// the simulation thread count — plus, for disaggregated serving, the
/// heterogeneous replica pools.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterSpec {
    /// Tensor-parallel degree of one replica; 0 (the default) means
    /// "whole node" — the system preset's own parallelization (all
    /// modules in one replica, the paper's configuration).
    pub tp: u32,
    /// Pipeline-parallel degree of one replica.
    pub pp: u32,
    /// Total PIM modules in the node; 0 (the default) keeps the system
    /// preset's sizing. Overriding it scales the *cluster*: with the
    /// TP/PP override set, the replica count is
    /// `modules / (tp * pp)` — e.g. `modules: 200, tp: 2` simulates a
    /// 100-replica fleet of 2-module replicas.
    pub modules: u32,
    /// Replica-simulation threads (0 = one per available CPU; results
    /// are byte-identical whatever the count).
    pub threads: usize,
    /// Replica pools for disaggregated serving. Empty (the default)
    /// means the flat `tp`/`pp`/`modules` sizing above — exactly one
    /// anonymous mixed pool. A single all-default `mixed` pool entry
    /// is byte-identical with the equivalent flat form (the desugaring
    /// is pinned by `tests/disagg_properties.rs`); when pools are
    /// listed, the flat sizing fields are ignored.
    pub pools: Vec<PoolSpec>,
}

impl Default for ClusterSpec {
    fn default() -> Self {
        ClusterSpec {
            tp: 0,
            pp: 1,
            modules: 0,
            threads: 1,
            pools: Vec::new(),
        }
    }
}

/// A complete, serializable experiment description: model + system +
/// techniques + multi-tenant workload + cluster + policies. See the
/// module docs for the JSON format and the bit-exactness guarantee.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Table I model name (e.g. `"LLM-7B-32K"`).
    pub model: String,
    /// Node organization preset (PIM-only / xPU+PIM sizing).
    pub system: SystemKind,
    /// Enabled PIMphony techniques.
    pub techniques: Techniques,
    /// One entry per tenant; tenant ids are list positions.
    pub workload: Vec<TenantSpec>,
    /// Replica parallelization and simulation threads.
    pub cluster: ClusterSpec,
    /// Scheduling, routing, preemption, prefill, and memory knobs.
    pub policies: PolicySpec,
}

impl Scenario {
    /// A scenario with the orchestrator defaults — PIM-only sizing,
    /// full PIMphony techniques, wave scheduling, round-robin routing,
    /// no preemption/prefill, hardware KV capacity — and an empty
    /// workload.
    pub fn new(model: impl Into<String>) -> Self {
        Scenario {
            model: model.into(),
            system: SystemKind::PimOnly,
            techniques: Techniques::pimphony(),
            workload: Vec::new(),
            cluster: ClusterSpec::default(),
            policies: PolicySpec::default(),
        }
    }

    /// Appends a tenant to the workload.
    pub fn tenant(mut self, tenant: TenantSpec) -> Self {
        self.workload.push(tenant);
        self
    }

    /// Resolves the Table I model by name.
    pub fn resolve_model(&self) -> Result<ModelConfig, String> {
        ModelConfig::table1()
            .into_iter()
            .find(|m| m.name.eq_ignore_ascii_case(&self.model))
            .ok_or_else(|| {
                let known: Vec<&str> = ModelConfig::table1().iter().map(|m| m.name).collect();
                format!(
                    "unknown model {:?} (Table I models: {})",
                    self.model,
                    known.join(", ")
                )
            })
    }

    /// The system configuration this scenario describes for `model`
    /// (the preset sizing, with the cluster's TP/PP override applied).
    pub fn system_config_for(&self, model: &ModelConfig) -> SystemConfig {
        let mut sys = preset(self.system, model);
        if self.cluster.modules > 0 {
            sys.modules = self.cluster.modules;
        }
        if self.cluster.tp > 0 {
            sys.with_parallel(ParallelConfig::new(self.cluster.tp, self.cluster.pp.max(1)))
        } else {
            sys
        }
    }

    /// The system configuration of one pool: the pool's preset (or the
    /// scenario's), partitioned per the pool's TP/PP, with the module
    /// count sized so the replica count is exactly `pool.replicas`.
    pub fn pool_system_config(&self, pool: &PoolSpec, model: &ModelConfig) -> SystemConfig {
        let mut sys = preset(pool.system.unwrap_or(self.system), model);
        if pool.tp > 0 {
            sys = sys.with_parallel(ParallelConfig::new(pool.tp, pool.pp.max(1)));
        }
        sys.modules = sys.parallel.modules() * pool.replicas;
        sys
    }

    /// Builds the fully configured flat (pool-free) evaluator for
    /// `model` — normally [`Self::resolve_model`]'s result.
    pub fn evaluator_for(&self, model: ModelConfig) -> Evaluator {
        let sys = self.system_config_for(&model);
        self.evaluator_with(sys, model)
    }

    /// Builds one pool's evaluator: the shared policy bundle on the
    /// pool's own system sizing, tagged with the pool's role.
    pub fn pool_evaluator_for(&self, pool: &PoolSpec, model: ModelConfig) -> Evaluator {
        let sys = self.pool_system_config(pool, &model);
        self.evaluator_with(sys, model).with_pool_role(pool.role)
    }

    /// The shared evaluator construction over an explicit system
    /// config: the policy bundle goes in whole, so flat and pooled
    /// evaluators cannot drift apart.
    fn evaluator_with(&self, sys: SystemConfig, model: ModelConfig) -> Evaluator {
        let slos: Vec<(u8, f64)> = self
            .workload
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.slo_ttft_p99.map(|s| (i as u8, s)))
            .collect();
        Evaluator::new(sys, model, self.techniques)
            .with_policies(self.policies)
            .with_tenant_slos(slos)
    }

    /// Validates the whole spec without building anything: model name,
    /// tenant list (nonempty, ≤ 256, each tenant's fields), and policy
    /// knobs. Shared by [`Self::materialize`] and [`Self::from_json`],
    /// so a spec file that cannot materialize does not parse either.
    pub fn validate(&self) -> Result<(), String> {
        let model = self.resolve_model()?;
        if self.workload.is_empty() {
            return Err("workload must name at least one tenant".to_string());
        }
        if self.workload.len() > 256 {
            return Err("at most 256 tenants are supported (tenant ids are u8)".to_string());
        }
        for (i, t) in self.workload.iter().enumerate() {
            t.validate(i, model.context_window)?;
        }
        if !(self.policies.kv_capacity_factor > 0.0 && self.policies.kv_capacity_factor.is_finite())
        {
            return Err("policies.kv_capacity_factor must be positive and finite".to_string());
        }
        if self.policies.paged_kv.page_bytes == 0 {
            return Err("policies.page_bytes must be > 0".to_string());
        }
        let kt = self.policies.kv_transfer;
        if !(kt.page_latency_us >= 0.0 && kt.page_latency_us.is_finite()) {
            return Err(
                "policies.kv_transfer_page_latency_us must be nonnegative and finite".to_string(),
            );
        }
        if !(kt.gbps > 0.0 && kt.gbps.is_finite()) {
            return Err("policies.kv_transfer_gbps must be positive and finite".to_string());
        }
        if self.cluster.pools.is_empty() && self.cluster.tp > 0 {
            // The node must hold one replica: `SystemConfig::replicas`
            // would round a fraction of one up to a whole replica
            // built from modules that do not exist.
            let replica = u64::from(self.cluster.tp) * u64::from(self.cluster.pp.max(1));
            let modules = self.system_config_for(&model).modules;
            if replica > u64::from(modules) {
                return Err(format!(
                    "cluster: one replica (tp × pp = {replica} modules) does not fit the \
                     node's {modules} modules"
                ));
            }
        }
        self.validate_pools()
    }

    /// Validates the disaggregated pool topology: unique nonempty
    /// names, a runnable phase graph (prefill pools need a decode pool
    /// to hand off to and vice versa), and policy prerequisites (roles
    /// are a continuous-scheduling feature; a `prefill` pool without
    /// modeled prefill would retire instantly).
    fn validate_pools(&self) -> Result<(), String> {
        let pools = &self.cluster.pools;
        if pools.is_empty() {
            return Ok(());
        }
        for (i, p) in pools.iter().enumerate() {
            p.validate(i)?;
            if pools[..i].iter().any(|q| q.name == p.name) {
                return Err(format!(
                    "cluster.pools[{i}]: duplicate pool name {:?}",
                    p.name
                ));
            }
        }
        let roled = pools.iter().any(|p| p.role != PoolRole::Mixed);
        if roled && self.policies.scheduling != SchedulingPolicy::Continuous {
            return Err(
                "cluster.pools: prefill/decode roles require continuous scheduling".to_string(),
            );
        }
        if pools.iter().any(|p| p.role == PoolRole::Prefill) {
            if !self.policies.prefill.enabled {
                return Err(
                    "cluster.pools: a prefill pool requires policies.prefill_chunk > 0 \
                     (unmodeled prefill would retire instantly)"
                        .to_string(),
                );
            }
            if !pools.iter().any(|p| p.role == PoolRole::Decode) {
                return Err(
                    "cluster.pools: a prefill pool hands requests off, so at least one \
                     decode pool is required"
                        .to_string(),
                );
            }
        }
        if pools.iter().any(|p| p.role == PoolRole::Decode)
            && !pools.iter().any(|p| p.role == PoolRole::Prefill)
        {
            // Mixed pools keep their own decodes, so only a prefill
            // pool feeds a decode pool; without one it would idle.
            return Err(
                "cluster.pools: a decode pool admits only handoffs, so at least one \
                 prefill pool is required"
                    .to_string(),
            );
        }
        Ok(())
    }

    /// Validates the scenario and builds the runnable pieces: the fully
    /// configured [`Evaluator`] and the merged, tenant-tagged,
    /// arrival-ordered [`Trace`], bundled with the routing/threading
    /// choices as a [`Materialized`] simulation.
    pub fn materialize(&self) -> Result<Materialized, String> {
        self.validate()?;
        let model = self.resolve_model()?;
        let trace = Trace::merge(
            self.workload
                .iter()
                .enumerate()
                .map(|(i, t)| t.build_trace(i as u8, model.context_window)),
        );
        let pools = self
            .cluster
            .pools
            .iter()
            .map(|p| MaterializedPool {
                name: p.name.clone(),
                evaluator: self.pool_evaluator_for(p, model),
                router: p.router.unwrap_or(self.policies.router),
            })
            .collect();
        Ok(Materialized {
            evaluator: self.evaluator_for(model),
            trace,
            router: self.policies.router,
            threads: self.cluster.threads,
            tenant_names: self.workload.iter().map(|t| t.name.clone()).collect(),
            pools,
        })
    }

    /// Serializes the scenario as a [`Json`] tree (see the checked-in
    /// `scenarios/*.json` for the format).
    pub fn to_json(&self) -> Json {
        write_obj(self, SCENARIO_FIELDS)
    }

    /// Serializes to the pretty-printed JSON document format of the
    /// checked-in `scenarios/*.json` files.
    pub fn to_pretty(&self) -> String {
        self.to_json().to_pretty()
    }

    /// Parses a scenario from a JSON document.
    pub fn parse(text: &str) -> Result<Scenario, String> {
        let doc = Json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
        Self::from_json(&doc)
    }

    /// Reads and parses a scenario file.
    pub fn from_file(path: &str) -> Result<Scenario, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Self::parse(&text).map_err(|e| format!("{path}: {e}"))
    }

    /// Deserializes a scenario from a [`Json`] tree. Missing keys take
    /// their defaults, so spec files only state what they change;
    /// `model` and a nonempty `workload` are required.
    pub fn from_json(doc: &Json) -> Result<Scenario, String> {
        let mut scenario = Scenario::new(String::new());
        read_obj(doc, SCENARIO_FIELDS, &mut scenario).map_err(ReadError::render)?;
        // Fail fast: a spec file that cannot materialize should not
        // parse either.
        scenario.validate()?;
        Ok(scenario)
    }
}

/// The paper's sizing of the `kind` preset for `model`.
fn preset(kind: SystemKind, model: &ModelConfig) -> SystemConfig {
    match kind {
        SystemKind::PimOnly => SystemConfig::cent_for(model),
        SystemKind::XpuPim => SystemConfig::neupims_for(model),
    }
}

/// The keys each JSON object of a spec accepts, read off the codec's
/// field tables: the codec rejects any other key (see
/// [`Scenario::from_json`]), and `docs/scenarios.md` lists exactly
/// these.
pub mod keys {
    use super::{
        names, CLUSTER_FIELDS, POLICY_FIELDS, POOL_FIELDS, SCENARIO_FIELDS, TECHNIQUE_FIELDS,
        TENANT_FIELDS,
    };

    /// Top-level keys.
    pub const TOP: &[&str] = &names::<_, { SCENARIO_FIELDS.len() }>(SCENARIO_FIELDS);
    /// Keys of the `techniques` object.
    pub const TECHNIQUES: &[&str] = &names::<_, { TECHNIQUE_FIELDS.len() }>(TECHNIQUE_FIELDS);
    /// Keys of the `cluster` object.
    pub const CLUSTER: &[&str] = &names::<_, { CLUSTER_FIELDS.len() }>(CLUSTER_FIELDS);
    /// Keys of one `cluster.pools` entry.
    pub const POOL: &[&str] = &names::<_, { POOL_FIELDS.len() }>(POOL_FIELDS);
    /// Keys of the `policies` object.
    pub const POLICIES: &[&str] = &names::<_, { POLICY_FIELDS.len() }>(POLICY_FIELDS);
    /// Keys of one `workload` (tenant) entry.
    pub const TENANT: &[&str] = &names::<_, { TENANT_FIELDS.len() }>(TENANT_FIELDS);
    /// Keys of a tenant's `decode` object.
    pub const DECODE: &[&str] = &["fixed", "lo", "hi"];
    /// Keys of a tenant's `arrivals` object.
    pub const ARRIVALS: &[&str] = &["process", "rate", "cv"];
}

/// A validated, runnable scenario: the configured evaluator, the merged
/// tenant-tagged trace, and the routing/threading choices — everything
/// [`Materialized::run`] needs to produce a [`ServingReport`].
#[derive(Debug)]
pub struct Materialized {
    /// The fully configured evaluator (policies, preemption, prefill,
    /// KV factor, stride, tenant SLOs). For pooled specs this is the
    /// scenario-level (flat) evaluator — each pool carries its own in
    /// [`Self::pools`].
    pub evaluator: Evaluator,
    /// The merged multi-tenant trace in global arrival order.
    pub trace: Trace,
    /// The cross-replica load balancer to route with.
    pub router: RouterKind,
    /// Replica-simulation threads (0 = one per CPU).
    pub threads: usize,
    /// Tenant names, indexed by tenant id (workload order).
    pub tenant_names: Vec<String>,
    /// Per-pool evaluators and routers, in `cluster.pools` order;
    /// empty for flat (pool-free) specs.
    pub pools: Vec<MaterializedPool>,
}

/// One materialized replica pool: its evaluator (sized to the pool,
/// tagged with its role) and the router serving it.
#[derive(Debug)]
pub struct MaterializedPool {
    /// Pool name from the spec.
    pub name: String,
    /// The pool's fully configured evaluator.
    pub evaluator: Evaluator,
    /// The pool's router kind (the spec override or the shared
    /// `policies.router`).
    pub router: RouterKind,
}

impl Materialized {
    /// Serves the scenario's own trace; see [`Self::serve`].
    pub fn run(&self) -> ServingReport {
        self.serve(&self.trace)
    }

    /// Serves `trace` through the cluster layer on [`Self::threads`]
    /// threads and returns the report (with per-tenant latency, SLO
    /// attainment and goodput in `latency_by_tenant`). Pooled specs run
    /// the phase-aware two-level path ([`run_pools`]); flat specs keep
    /// the historical single-pool path — one and the same machinery.
    ///
    /// This is the one place a scenario's evaluators, pools, routers
    /// and threads turn into a report: `Scenario` runs, the `pimphony`
    /// orchestrator and the bench binaries all come through here.
    pub fn serve(&self, trace: &Trace) -> ServingReport {
        if !self.pools.is_empty() {
            // `build_for`: each pool's router routes on that pool's
            // calibrated prefill rate and tenant SLOs.
            let mut runs: Vec<PoolRun<'_>> = self
                .pools
                .iter()
                .map(|p| PoolRun {
                    name: p.name.clone(),
                    eval: &p.evaluator,
                    router: p.router.build_for(&p.evaluator),
                })
                .collect();
            return run_pools(
                &mut runs,
                self.evaluator.scheduling_policy(),
                self.threads,
                trace,
            );
        }
        // The SLO-aware router routes on the evaluator's real tenant
        // SLOs and calibrated prefill rate.
        let mut router = self.router.build_for(&self.evaluator);
        Cluster::new(&self.evaluator, self.evaluator.scheduling_policy())
            .with_threads(self.threads)
            .run(trace, router.as_mut())
    }

    /// The name of a tenant id (`"tenant-N"` fallback for ids outside
    /// the workload list, which cannot occur for materialized traces).
    pub fn tenant_name(&self, tenant: u8) -> String {
        self.tenant_names
            .get(tenant as usize)
            .cloned()
            .unwrap_or_else(|| format!("tenant-{tenant}"))
    }
}

/// One key of a spec object: its spelling, its writer (`None` omits the
/// key) and its reader. One table of these per object drives
/// [`write_obj`], [`read_obj`] and the [`keys`] lists, so each key is
/// spelled exactly once.
struct Field<T> {
    key: &'static str,
    /// Whether [`read_obj`] rejects an object that omits the key.
    required: bool,
    write: fn(&T) -> Option<Json>,
    read: fn(&mut T, &Json) -> Result<(), ReadError>,
}

/// An optional key: an object without it keeps the default.
const fn field<T>(
    key: &'static str,
    write: fn(&T) -> Option<Json>,
    read: fn(&mut T, &Json) -> Result<(), ReadError>,
) -> Field<T> {
    Field {
        key,
        required: false,
        write,
        read,
    }
}

/// `f`, made mandatory.
const fn required<T>(f: Field<T>) -> Field<T> {
    Field {
        required: true,
        ..f
    }
}

/// The entry of a key whose value is its struct field's [`Value`]
/// spelling: `plain!("key", struct_field)` or `plain!("key", sub.field)`.
macro_rules! plain {
    ($key:literal, $($field:ident).+) => {
        field(
            $key,
            |t| Value::write(&t.$($field).+),
            |t, v| set(&mut t.$($field).+, Value::read(v)),
        )
    };
}

/// The keys of a field table, in table order.
const fn names<T, const N: usize>(fields: &[Field<T>]) -> [&'static str; N] {
    let mut out = [""; N];
    let mut i = 0;
    while i < N {
        out[i] = fields[i].key;
        i += 1;
    }
    out
}

const SCENARIO_FIELDS: &[Field<Scenario>] = &[
    required(plain!("model", model)),
    plain!("system", system),
    // A present `techniques` object starts from all-false: it lists
    // what is on.
    field(
        "techniques",
        |s| Some(write_obj(&s.techniques, TECHNIQUE_FIELDS)),
        |s, v| {
            s.techniques = Techniques::baseline();
            read_obj(v, TECHNIQUE_FIELDS, &mut s.techniques)
        },
    ),
    field(
        "cluster",
        |s| Some(write_obj(&s.cluster, CLUSTER_FIELDS)),
        |s, v| read_obj(v, CLUSTER_FIELDS, &mut s.cluster),
    ),
    field(
        "policies",
        |s| Some(write_obj(&s.policies, POLICY_FIELDS)),
        |s, v| read_obj(v, POLICY_FIELDS, &mut s.policies),
    ),
    required(field(
        "workload",
        |s| Some(write_arr(&s.workload, TENANT_FIELDS)),
        |s, v| {
            let tenant = TenantSpec::new("", Dataset::ALL[0]);
            set(&mut s.workload, read_arr(v, TENANT_FIELDS, &tenant))
        },
    )),
];

const TECHNIQUE_FIELDS: &[Field<Techniques>] =
    &[plain!("tcp", tcp), plain!("dcs", dcs), plain!("dpa", dpa)];

const CLUSTER_FIELDS: &[Field<ClusterSpec>] = &[
    plain!("tp", tp),
    plain!("pp", pp),
    plain!("modules", modules),
    plain!("threads", threads),
    // Written only when nonempty, so pool-free spec files keep their
    // historical canonical form byte-for-byte.
    field(
        "pools",
        |c| (!c.pools.is_empty()).then(|| write_arr(&c.pools, POOL_FIELDS)),
        |c, v| {
            let pool = PoolSpec::new("", PoolRole::Mixed, 1);
            set(&mut c.pools, read_arr(v, POOL_FIELDS, &pool))
        },
    ),
];

const POOL_FIELDS: &[Field<PoolSpec>] = &[
    required(plain!("name", name)),
    plain!("role", role),
    plain!("replicas", replicas),
    plain!("tp", tp),
    plain!("pp", pp),
    plain!("system", system),
    plain!("router", router),
];

const POLICY_FIELDS: &[Field<PolicySpec>] = &[
    plain!("scheduling", scheduling),
    plain!("router", router),
    plain!("preemption", preemption),
    // 0 means prefill is not modeled.
    field(
        "prefill_chunk",
        |p| {
            let pre = p.prefill;
            (if pre.enabled { pre.chunk_tokens } else { 0 }).write()
        },
        |p, v| {
            let chunk = u64::read(v).map(|n| match n {
                0 => PrefillConfig::disabled(),
                n => PrefillConfig::chunked(n),
            });
            set(&mut p.prefill, chunk)
        },
    ),
    plain!("kv_capacity_factor", kv_capacity_factor),
    plain!("stride", stride),
    plain!("prefix_caching", paged_kv.prefix_caching),
    plain!("page_bytes", paged_kv.page_bytes),
    plain!("shedding", shedding),
    plain!("victim_order", victim_order),
    // The transfer pair is written only off-default, keeping
    // pre-disaggregation spec files canonical.
    field(
        "kv_transfer_page_latency_us",
        |p| transfer_term(p, p.kv_transfer.page_latency_us),
        |p, v| set(&mut p.kv_transfer.page_latency_us, f64::read(v)),
    ),
    field(
        "kv_transfer_gbps",
        |p| transfer_term(p, p.kv_transfer.gbps),
        |p, v| set(&mut p.kv_transfer.gbps, f64::read(v)),
    ),
];

const TENANT_FIELDS: &[Field<TenantSpec>] = &[
    required(plain!("name", name)),
    required(plain!("dataset", dataset)),
    plain!("requests", requests),
    plain!("seed", seed),
    plain!("decode", decode),
    plain!("arrivals", arrivals),
    plain!("priority", priority),
    // The two trace-shape keys are written only off-default, keeping
    // spec files that predate them canonical.
    field(
        "priority_levels",
        |t| t.priority_levels.write().filter(|_| t.priority_levels != 1),
        |t, v| set(&mut t.priority_levels, Value::read(v)),
    ),
    // Written as `null` when unset.
    field(
        "slo_ttft_p99",
        |t| Some(t.slo_ttft_p99.map_or(Json::Null, Json::num)),
        |t, v| {
            let slo = match v {
                Json::Null => Ok(None),
                v => f64::read(v).map(Some),
            };
            set(&mut t.slo_ttft_p99, slo)
        },
    ),
    plain!("shared_prefix", shared_prefix),
    field(
        "context_scale",
        |t| t.context_scale.write().filter(|_| t.context_scale != 1.0),
        |t, v| set(&mut t.context_scale, Value::read(v)),
    ),
];

/// Serializes `value` as an object, keys in table order.
fn write_obj<T>(value: &T, fields: &[Field<T>]) -> Json {
    Json::obj(
        fields
            .iter()
            .filter_map(|f| Some((f.key, (f.write)(value)?))),
    )
}

fn write_arr<T>(items: &[T], fields: &[Field<T>]) -> Json {
    Json::Arr(items.iter().map(|item| write_obj(item, fields)).collect())
}

/// Deserializes an object into `value`, which holds the object's
/// default: every key must be in the table (checked before any value
/// is read), every required key present, and every error is located
/// under its key.
fn read_obj<T>(obj: &Json, fields: &[Field<T>], value: &mut T) -> Result<(), ReadError> {
    let known: Vec<&str> = fields.iter().map(|f| f.key).collect();
    check_keys(obj, &known).map_err(ReadError::here)?;
    for f in fields {
        match obj.get(f.key) {
            Some(v) => (f.read)(value, v).map_err(|e| e.under(f.key))?,
            None if f.required => return Err(ReadError::here(format!("{}: required", f.key))),
            None => {}
        }
    }
    Ok(())
}

/// Deserializes an array of objects, each into a copy of `default`.
fn read_arr<T: Clone>(arr: &Json, fields: &[Field<T>], default: &T) -> Result<Vec<T>, ReadError> {
    let Json::Arr(items) = arr else {
        return Err(ReadError::Value("expected an array".to_string()));
    };
    let read = |(i, item)| {
        let mut value = default.clone();
        read_obj(item, fields, &mut value).map_err(|e| e.at_index(i))?;
        Ok(value)
    };
    items.iter().enumerate().map(read).collect()
}

/// Stores a read value in its field.
fn set<X, E: Into<ReadError>>(slot: &mut X, value: Result<X, E>) -> Result<(), ReadError> {
    *slot = value.map_err(Into::into)?;
    Ok(())
}

/// A transfer term, written only when the link is off-default.
fn transfer_term(p: &PolicySpec, x: f64) -> Option<Json> {
    (p.kv_transfer != KvTransferConfig::default()).then_some(Json::num(x))
}

/// A codec error on its way out of the nested objects. A reader's own
/// message is a bare [`ReadError::Value`]; [`read_obj`] locates it
/// under the reader's key, and every enclosing object and array adds
/// its segment, so the rendered error names the full path
/// (`cluster.pools[0]: router: ...`).
enum ReadError {
    /// A message about a value, not yet attributed to its key.
    Value(String),
    /// A message about the object at `path` below the one being read
    /// (`""` for that object itself, else `.key` and `[i]` segments).
    At { path: String, msg: String },
}

impl From<String> for ReadError {
    fn from(msg: String) -> Self {
        ReadError::Value(msg)
    }
}

impl ReadError {
    /// A message about the object being read.
    fn here(msg: String) -> Self {
        ReadError::At {
            path: String::new(),
            msg,
        }
    }

    /// Locates the error under `key` of the object being read.
    fn under(self, key: &str) -> Self {
        match self {
            ReadError::Value(msg) => ReadError::here(format!("{key}: {msg}")),
            ReadError::At { path, msg } => ReadError::At {
                path: format!(".{key}{path}"),
                msg,
            },
        }
    }

    /// Locates the error at element `i` of the array being read.
    fn at_index(self, i: usize) -> Self {
        let (path, msg) = match self {
            ReadError::Value(msg) => (String::new(), msg),
            ReadError::At { path, msg } => (path, msg),
        };
        ReadError::At {
            path: format!("[{i}]{path}"),
            msg,
        }
    }

    /// `path: message`, or the bare message for the document itself.
    fn render(self) -> String {
        match self {
            ReadError::Value(msg) => msg,
            ReadError::At { path, msg } => match path.trim_start_matches('.') {
                "" => msg,
                path => format!("{path}: {msg}"),
            },
        }
    }
}

/// A field type's JSON spelling: the writer and reader [`plain!`]
/// entries use.
trait Value: Sized {
    fn write(&self) -> Option<Json>;
    fn read(v: &Json) -> Result<Self, String>;
}

/// Integers: a value that does not fit the field's type is an error,
/// never a silent wrap.
macro_rules! int_value {
    ($($t:ty),*) => {$(
        impl Value for $t {
            fn write(&self) -> Option<Json> {
                Some(Json::num(*self as f64))
            }
            fn read(v: &Json) -> Result<Self, String> {
                let x = f64::read(v)?;
                // `u64::MAX as f64` rounds up to 2^64, the first value
                // `as u64` would saturate.
                if x < 0.0 || x.fract() != 0.0 || x >= u64::MAX as f64 {
                    return Err(format!("expected a nonnegative integer, got {x}"));
                }
                let n = x as u64;
                Self::try_from(n).map_err(|_| format!("{n} does not fit in {}", stringify!($t)))
            }
        }
    )*};
}
int_value!(u8, u32, u64, usize);

/// Enums: every spelling goes through the one lookup over the type's
/// `ALL` and `label()`.
macro_rules! label_value {
    ($($t:ty),*) => {$(
        impl Value for $t {
            fn write(&self) -> Option<Json> {
                Some(Json::str(self.label()))
            }
            fn read(v: &Json) -> Result<Self, String> {
                let s = String::read(v)?;
                Self::ALL.into_iter().find(|e| e.label() == s).ok_or_else(|| {
                    let known: Vec<&str> = Self::ALL.iter().map(Self::label).collect();
                    format!("unknown value {s:?} (expected one of: {})", known.join(", "))
                })
            }
        }
    )*};
}
label_value!(
    SystemKind,
    SchedulingPolicy,
    RouterKind,
    PreemptionPolicy,
    SheddingPolicy,
    VictimOrder,
    PoolRole
);

impl Value for f64 {
    fn write(&self) -> Option<Json> {
        Some(Json::num(*self))
    }
    fn read(v: &Json) -> Result<Self, String> {
        v.as_f64().ok_or_else(|| "expected a number".to_string())
    }
}

impl Value for bool {
    fn write(&self) -> Option<Json> {
        Some(Json::Bool(*self))
    }
    fn read(v: &Json) -> Result<Self, String> {
        match v {
            Json::Bool(b) => Ok(*b),
            _ => Err("expected a boolean".to_string()),
        }
    }
}

impl Value for String {
    fn write(&self) -> Option<Json> {
        Some(Json::str(self.as_str()))
    }
    fn read(v: &Json) -> Result<Self, String> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| "expected a string".to_string())
    }
}

/// An optional override: omitted when unset.
impl<E: Value> Value for Option<E> {
    fn write(&self) -> Option<Json> {
        self.as_ref().and_then(E::write)
    }
    fn read(v: &Json) -> Result<Self, String> {
        E::read(v).map(Some)
    }
}

/// Table II datasets match case-insensitively.
impl Value for Dataset {
    fn write(&self) -> Option<Json> {
        Some(Json::str(self.name()))
    }
    fn read(v: &Json) -> Result<Self, String> {
        let name = String::read(v)?;
        Dataset::ALL
            .into_iter()
            .find(|d| d.name().eq_ignore_ascii_case(&name))
            .ok_or_else(|| {
                let known: Vec<&str> = Dataset::ALL.iter().map(|d| d.name()).collect();
                format!(
                    "unknown dataset {name:?} (Table II datasets: {})",
                    known.join(", ")
                )
            })
    }
}

impl Value for DecodeSpec {
    fn write(&self) -> Option<Json> {
        Some(match *self {
            DecodeSpec::Fixed(n) => Json::obj([("fixed", Json::num(n as f64))]),
            DecodeSpec::Uniform(lo, hi) => {
                Json::obj([("lo", Json::num(lo as f64)), ("hi", Json::num(hi as f64))])
            }
        })
    }
    fn read(d: &Json) -> Result<Self, String> {
        check_keys(d, keys::DECODE)?;
        let get = |key: &str| {
            d.get(key)
                .map_or(Ok(0), u64::read)
                .map_err(|e| format!("{key}: {e}"))
        };
        if d.get("fixed").is_some() {
            Ok(DecodeSpec::Fixed(get("fixed")?))
        } else if d.get("lo").is_some() || d.get("hi").is_some() {
            Ok(DecodeSpec::Uniform(get("lo")?, get("hi")?))
        } else {
            Err("expected {\"fixed\": n} or {\"lo\": n, \"hi\": n}".to_string())
        }
    }
}

impl Value for ArrivalProcess {
    fn write(&self) -> Option<Json> {
        Some(match *self {
            ArrivalProcess::Batch => Json::obj([("process", Json::str("batch"))]),
            ArrivalProcess::Poisson { rate } => {
                Json::obj([("process", Json::str("poisson")), ("rate", Json::num(rate))])
            }
            ArrivalProcess::Bursty { rate, cv } => Json::obj([
                ("process", Json::str("bursty")),
                ("rate", Json::num(rate)),
                ("cv", Json::num(cv)),
            ]),
        })
    }
    fn read(a: &Json) -> Result<Self, String> {
        check_keys(a, keys::ARRIVALS)?;
        let process = a
            .get("process")
            .map_or(Ok("batch".to_string()), String::read)
            .map_err(|e| format!("process: {e}"))?;
        let get = |key: &str| {
            a.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{process} requires {key:?}"))
        };
        match process.as_str() {
            "batch" => Ok(ArrivalProcess::Batch),
            "poisson" => Ok(ArrivalProcess::Poisson { rate: get("rate")? }),
            "bursty" => Ok(ArrivalProcess::Bursty {
                rate: get("rate")?,
                cv: get("cv")?,
            }),
            other => Err(format!("unknown process {other:?}")),
        }
    }
}

/// Rejects `obj` unless it is an object whose keys are all in `known`;
/// an unknown key's error names the closest known key.
fn check_keys(obj: &Json, known: &[&str]) -> Result<(), String> {
    let Json::Obj(pairs) = obj else {
        return Err("expected an object".to_string());
    };
    match pairs.iter().find(|(k, _)| !known.contains(&k.as_str())) {
        None => Ok(()),
        Some((key, _)) => {
            let closest = known
                .iter()
                .min_by_key(|k| edit_distance(key, k))
                .copied()
                .unwrap_or_default();
            Err(format!(
                "unknown key {key:?} (did you mean {closest:?}? known keys: {})",
                known.join(", ")
            ))
        }
    }
}

/// Levenshtein distance between two strings, in chars.
fn edit_distance(a: &str, b: &str) -> usize {
    let b: Vec<char> = b.chars().collect();
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.chars().enumerate() {
        let mut diag = row[0];
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let next = (diag + usize::from(ca != cb))
                .min(row[j] + 1)
                .min(row[j + 1] + 1);
            diag = row[j + 1];
            row[j + 1] = next;
        }
    }
    row[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_tenant_scenario() -> Scenario {
        let mut s = Scenario::new("LLM-7B-32K");
        s.cluster.tp = 2;
        s.cluster.threads = 2;
        s.policies.scheduling = SchedulingPolicy::Continuous;
        s.policies.router = RouterKind::JoinShortestQueue;
        s.policies.preemption = PreemptionPolicy::EvictPause;
        s.policies.prefill = PrefillConfig::chunked(512);
        s.policies.kv_capacity_factor = 0.5;
        s.tenant(
            TenantSpec::new("interactive", Dataset::QmSum)
                .requests(12)
                .seed(7)
                .decode(DecodeSpec::Uniform(8, 32))
                .arrivals(ArrivalProcess::Bursty { rate: 4.0, cv: 2.0 })
                .priority(1)
                .slo_ttft_p99(30.0),
        )
        .tenant(
            TenantSpec::new("batch", Dataset::Musique)
                .requests(8)
                .seed(9)
                .decode(DecodeSpec::Fixed(64))
                .arrivals(ArrivalProcess::Poisson { rate: 1.0 }),
        )
    }

    #[test]
    fn json_round_trip_is_identity() {
        let s = two_tenant_scenario();
        let text = s.to_pretty();
        let back = Scenario::parse(&text).expect("parse back");
        assert_eq!(back, s);
        // And the re-serialization is byte-identical (deterministic
        // writer, insertion-ordered keys).
        assert_eq!(back.to_pretty(), text);
    }

    #[test]
    fn defaults_fill_missing_sections() {
        let s = Scenario::parse(
            r#"{"model": "LLM-7B-32K",
                "workload": [{"name": "only", "dataset": "QMSum"}]}"#,
        )
        .expect("minimal spec");
        assert_eq!(s.system, SystemKind::PimOnly);
        assert_eq!(s.techniques, Techniques::pimphony());
        assert_eq!(s.cluster, ClusterSpec::default());
        assert_eq!(s.policies, PolicySpec::default());
        let t = &s.workload[0];
        assert_eq!(t.requests, 128);
        assert_eq!(t.decode, DecodeSpec::Fixed(256));
        assert_eq!(t.arrivals, ArrivalProcess::Batch);
        assert_eq!(t.priority, 0);
        assert_eq!(t.slo_ttft_p99, None);
    }

    #[test]
    fn parse_rejects_unknown_names_with_candidates() {
        let bad_model = Scenario::parse(
            r#"{"model": "GPT-5", "workload": [{"name": "t", "dataset": "QMSum"}]}"#,
        )
        .unwrap_err();
        assert!(bad_model.contains("unknown model"), "{bad_model}");
        assert!(bad_model.contains("LLM-7B-32K"), "{bad_model}");
        let bad_dataset = Scenario::parse(
            r#"{"model": "LLM-7B-32K", "workload": [{"name": "t", "dataset": "imagenet"}]}"#,
        )
        .unwrap_err();
        assert!(bad_dataset.contains("unknown dataset"), "{bad_dataset}");
        assert!(bad_dataset.contains("QMSum"), "{bad_dataset}");
        let bad_router = Scenario::parse(
            r#"{"model": "LLM-7B-32K", "policies": {"router": "dns"},
                "workload": [{"name": "t", "dataset": "QMSum"}]}"#,
        )
        .unwrap_err();
        assert!(
            bad_router.starts_with("policies: router: unknown value \"dns\""),
            "{bad_router}"
        );
        let empty = Scenario::parse(r#"{"model": "LLM-7B-32K", "workload": []}"#).unwrap_err();
        assert!(empty.contains("at least one tenant"), "{empty}");
    }

    #[test]
    fn parse_fails_fast_on_specs_that_cannot_materialize() {
        // Tenant-level problems are rejected at parse time, not
        // deferred to materialize.
        let zero_requests = Scenario::parse(
            r#"{"model": "LLM-7B-32K",
                "workload": [{"name": "t", "dataset": "QMSum", "requests": 0}]}"#,
        )
        .unwrap_err();
        assert!(
            zero_requests.contains("requests must be > 0"),
            "{zero_requests}"
        );
        let bad_kv = Scenario::parse(
            r#"{"model": "LLM-7B-32K", "policies": {"kv_capacity_factor": 0},
                "workload": [{"name": "t", "dataset": "QMSum"}]}"#,
        )
        .unwrap_err();
        assert!(bad_kv.contains("kv_capacity_factor"), "{bad_kv}");
        // Decode fields get full integer validation: negatives and
        // fractions are errors, not silent casts, and a fixed 0-token
        // decode (a tenant that would vanish from the report) is
        // rejected.
        for (decode, want) in [
            (r#"{"fixed": -5}"#, "nonnegative integer"),
            (r#"{"fixed": 2.5}"#, "nonnegative integer"),
            (r#"{"fixed": 0}"#, "decode must be >= 1"),
            (r#"{"lo": 9, "hi": 3}"#, "decode range"),
            (r#"{}"#, "expected"),
        ] {
            let err = Scenario::parse(&format!(
                r#"{{"model": "LLM-7B-32K",
                    "workload": [{{"name": "t", "dataset": "QMSum", "decode": {decode}}}]}}"#,
            ))
            .unwrap_err();
            assert!(err.contains(want), "decode {decode}: {err}");
        }
    }

    /// A fully populated spec: pools with every optional key, an
    /// off-default transfer link, and a bursty uniform-decode tenant
    /// with drawn priorities and scaled contexts.
    fn every_key_scenario() -> Scenario {
        let mut s = two_tenant_scenario();
        s.workload[0].priority = 0;
        s.workload[0].priority_levels = 2;
        s.workload[0].context_scale = 0.75;
        s.policies.kv_transfer.gbps = 32.0;
        s.policies.router = RouterKind::LeastLoaded;
        s.cluster.pools = vec![
            PoolSpec::new("prefill", PoolRole::Prefill, 1)
                .parallel(2, 1)
                .system(SystemKind::XpuPim)
                .router(RouterKind::JoinShortestQueue),
            PoolSpec::new("decode", PoolRole::Decode, 2),
        ];
        s
    }

    #[test]
    fn writer_emits_exactly_the_accepted_keys() {
        let doc = every_key_scenario().to_json();
        let cluster = doc.get("cluster").unwrap();
        let tenant = &doc.get("workload").unwrap().as_arr().unwrap()[0];
        for (obj, want) in [
            (&doc, keys::TOP),
            (doc.get("techniques").unwrap(), keys::TECHNIQUES),
            (cluster, keys::CLUSTER),
            (
                &cluster.get("pools").unwrap().as_arr().unwrap()[0],
                keys::POOL,
            ),
            (doc.get("policies").unwrap(), keys::POLICIES),
            (tenant, keys::TENANT),
            (tenant.get("decode").unwrap(), &["lo", "hi"][..]),
            (tenant.get("arrivals").unwrap(), keys::ARRIVALS),
        ] {
            let Json::Obj(pairs) = obj else {
                panic!("not an object: {obj:?}")
            };
            let got: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(got, want);
        }
        // And the fully populated spec parses back to itself.
        let back = Scenario::from_json(&doc).expect("parse back");
        assert_eq!(back, every_key_scenario());
    }

    #[test]
    fn unknown_keys_are_rejected_at_every_level_with_a_suggestion() {
        let text = every_key_scenario().to_pretty();
        for (from, to, path, suggestion) in [
            ("\"model\"", "\"modle\"", "", "model"),
            ("\"dcs\"", "\"dsc\"", "techniques: ", "dcs"),
            ("\"modules\"", "\"module\"", "cluster: ", "modules"),
            (
                "\"replicas\"",
                "\"replica\"",
                "cluster.pools[0]: ",
                "replicas",
            ),
            (
                "\"preemption\"",
                "\"preemptoin\"",
                "policies: ",
                "preemption",
            ),
            (
                "\"shared_prefix\"",
                "\"shared_prefx\"",
                "workload[0]: ",
                "shared_prefix",
            ),
            ("\"lo\"", "\"low\"", "workload[0]: decode: ", "lo"),
            ("\"cv\"", "\"cov\"", "workload[0]: arrivals: ", "cv"),
        ] {
            let bad = text.replacen(from, to, 1);
            assert_ne!(bad, text, "{from} not in the spec");
            let err = Scenario::parse(&bad).unwrap_err();
            let want = format!("{path}unknown key {to} (did you mean \"{suggestion}\"?");
            assert!(err.starts_with(&want), "{err}\n  want prefix: {want}");
        }
        let not_object = Scenario::parse(
            r#"{"model": "LLM-7B-32K", "policies": 3,
                "workload": [{"name": "t", "dataset": "QMSum"}]}"#,
        )
        .unwrap_err();
        assert_eq!(not_object, "policies: expected an object");
    }

    #[test]
    fn integers_that_do_not_fit_their_field_are_rejected() {
        // Each error names its full path: object, then key. Bad enum
        // labels are checked alongside, at every level they occur.
        let parse = |top: &str, cluster: &str, pool: &str, tenant: &str| {
            Scenario::parse(&format!(
                r#"{{"model": "LLM-7B-32K", {top}
                    "cluster": {{{cluster} "pools": [{{"name": "p", {pool} "role": "mixed"}}]}},
                    "workload": [{{"name": "t", "dataset": "QMSum" {tenant}}}]}}"#
            ))
        };
        // 4294967298 = 2^32 + 2: wraps to 2 as u32.
        for (top, cluster, pool, tenant, want) in [
            (
                "",
                r#""tp": 4294967298,"#,
                "",
                "",
                "cluster: tp: 4294967298 does not fit in u32",
            ),
            (
                "",
                r#""pp": 4294967298,"#,
                "",
                "",
                "cluster: pp: 4294967298 does not fit in u32",
            ),
            (
                "",
                r#""modules": 4294967298,"#,
                "",
                "",
                "cluster: modules: 4294967298 does not fit in u32",
            ),
            (
                "",
                "",
                r#""replicas": 4294967298,"#,
                "",
                "cluster.pools[0]: replicas: 4294967298 does not fit in u32",
            ),
            (
                "",
                "",
                r#""tp": 4294967298,"#,
                "",
                "cluster.pools[0]: tp: 4294967298 does not fit in u32",
            ),
            (
                "",
                "",
                r#""pp": 4294967298,"#,
                "",
                "cluster.pools[0]: pp: 4294967298 does not fit in u32",
            ),
            (
                "",
                "",
                "",
                r#", "priority": 257"#,
                "workload[0]: priority: 257 does not fit in u8",
            ),
            (
                "",
                "",
                "",
                r#", "seed": 1e20"#,
                "workload[0]: seed: expected a nonnegative integer, got 100000000000000000000",
            ),
            (
                "",
                "",
                r#""router": "dns","#,
                "",
                "cluster.pools[0]: router: unknown value \"dns\" \
                 (expected one of: round-robin, jsq, least-loaded, least-prefill, slo-aware)",
            ),
            (
                "",
                "",
                r#""system": "tpu","#,
                "",
                "cluster.pools[0]: system: unknown value \"tpu\" \
                 (expected one of: pim-only, xpu-pim)",
            ),
            (
                r#""policies": {"scheduling": "fifo"},"#,
                "",
                "",
                "",
                "policies: scheduling: unknown value \"fifo\" \
                 (expected one of: wave, continuous)",
            ),
            (
                r#""system": "tpu","#,
                "",
                "",
                "",
                "system: unknown value \"tpu\" (expected one of: pim-only, xpu-pim)",
            ),
        ] {
            let err = parse(top, cluster, pool, tenant).unwrap_err();
            assert_eq!(err, want);
        }
        // The largest values that fit still parse.
        let ok = parse("", "", r#""replicas": 1,"#, r#", "priority": 255"#).expect("fits");
        assert_eq!(ok.workload[0].priority, 255);
    }

    #[test]
    fn materialize_validates_degenerate_workloads() {
        let mut s = two_tenant_scenario();
        s.workload[0].requests = 0;
        let err = s.materialize().unwrap_err();
        assert!(err.contains("requests must be > 0"), "{err}");
        let mut s = two_tenant_scenario();
        s.workload[1].decode = DecodeSpec::Uniform(9, 3);
        let err = s.materialize().unwrap_err();
        assert!(err.contains("decode range"), "{err}");
        let mut s = two_tenant_scenario();
        s.workload.clear();
        assert!(s.materialize().is_err());
    }

    #[test]
    fn materialize_merges_tenant_tagged_traces_in_arrival_order() {
        let s = two_tenant_scenario();
        let m = s.materialize().expect("materialize");
        assert_eq!(m.trace.len(), 20);
        assert_eq!(m.trace.tenants(), vec![0, 1]);
        assert_eq!(m.tenant_name(0), "interactive");
        assert_eq!(m.tenant_name(1), "batch");
        // Globally arrival-ordered, unique ids.
        let reqs = m.trace.requests();
        assert!(reqs
            .windows(2)
            .all(|w| (w[0].arrival_us, w[0].id) < (w[1].arrival_us, w[1].id)));
        let mut ids: Vec<u64> = reqs.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 20);
        // Priorities follow the tenant specs.
        assert!(reqs
            .iter()
            .all(|r| r.priority == if r.tenant == 0 { 1 } else { 0 }));
        // SLO targets reach the evaluator.
        assert_eq!(m.evaluator.tenant_slos(), &[(0u8, 30.0)]);
    }

    #[test]
    fn materialized_run_reports_per_tenant() {
        let m = two_tenant_scenario().materialize().expect("materialize");
        let r = m.run();
        assert_eq!(r.latency.completed, 20);
        assert_eq!(r.latency_by_tenant.len(), 2);
        let interactive = &r.latency_by_tenant[0];
        assert_eq!(interactive.tenant, 0);
        assert_eq!(interactive.latency.completed, 12);
        assert_eq!(interactive.slo_ttft, 30.0);
        assert!((0.0..=1.0).contains(&interactive.slo_attainment));
        let batch = &r.latency_by_tenant[1];
        assert_eq!(batch.latency.completed, 8);
        assert_eq!(batch.slo_ttft, f64::INFINITY);
        assert_eq!(batch.slo_attainment, 1.0, "no target is vacuously met");
        assert_eq!(batch.tokens, 8 * 64);
        let f = r.tenant_fairness();
        assert!(f > 0.0 && f <= 1.0, "{f}");
    }

    #[test]
    fn whole_node_cluster_spec_uses_preset_parallelization() {
        let s =
            Scenario::new("LLM-7B-32K").tenant(TenantSpec::new("t", Dataset::QmSum).requests(4));
        let model = s.resolve_model().unwrap();
        let sys = s.system_config_for(&model);
        assert_eq!(sys, SystemConfig::cent_for(&model));
        let mut tp2 = s.clone();
        tp2.cluster.tp = 2;
        assert_eq!(tp2.system_config_for(&model).parallel.tp, 2);
        assert_eq!(tp2.system_config_for(&model).replicas(), 4);
    }

    #[test]
    fn modules_override_scales_the_replica_count() {
        let s =
            Scenario::new("LLM-7B-32K").tenant(TenantSpec::new("t", Dataset::QmSum).requests(4));
        let model = s.resolve_model().unwrap();
        let mut big = s.clone();
        big.cluster.tp = 2;
        big.cluster.modules = 200;
        let sys = big.system_config_for(&model);
        assert_eq!(sys.modules, 200);
        assert_eq!(sys.replicas(), 100);
        // modules: 0 keeps the preset sizing.
        assert_eq!(
            s.system_config_for(&model).modules,
            SystemConfig::cent_for(&model).modules
        );
        // And the knob survives the JSON round trip.
        let back = Scenario::parse(&big.to_pretty()).expect("parse back");
        assert_eq!(back.cluster.modules, 200);
        assert_eq!(back, big);
    }

    /// A one-tenant spec: a bursty QMSum tenant with ranged decode
    /// budgets whose object ends with the `extra` JSON fields.
    fn tenant_spec(extra: &str) -> Result<Scenario, String> {
        Scenario::parse(&format!(
            r#"{{"model": "LLM-7B-32K",
                "workload": [{{"name": "t", "dataset": "QMSum", "requests": 48, "seed": 7,
                               "decode": {{"lo": 16, "hi": 96}},
                               "arrivals": {{"process": "bursty", "rate": 2, "cv": 2.5}}{extra}}}]}}"#
        ))
    }

    /// The builder chain a default tenant of [`tenant_spec`] stands for.
    fn tenant_builder() -> TraceBuilder {
        TraceBuilder::new(Dataset::QmSum)
            .seed(7)
            .requests(48)
            .decode_range(16, 96)
            .bursty(2.0, 2.5)
    }

    fn trace_of(s: &Scenario) -> Trace {
        s.materialize().expect("materialize").trace
    }

    #[test]
    fn priority_levels_draw_what_the_trace_builder_draws() {
        let s = tenant_spec(r#", "priority_levels": 3"#).unwrap();
        let trace = trace_of(&s);
        assert_eq!(trace, tenant_builder().priority_levels(3).build());
        let classes: std::collections::BTreeSet<u8> = trace.iter().map(|r| r.priority).collect();
        assert_eq!(classes.into_iter().collect::<Vec<_>>(), [0, 1, 2]);
    }

    #[test]
    fn omitted_trace_shape_keys_give_a_byte_identical_trace() {
        let plain = tenant_spec("").unwrap();
        assert_eq!(trace_of(&plain), tenant_builder().build());
        let explicit = tenant_spec(r#", "priority_levels": 1, "context_scale": 1"#).unwrap();
        assert_eq!(explicit, plain);
        assert_eq!(trace_of(&explicit), trace_of(&plain));
    }

    #[test]
    fn writer_omits_the_trace_shape_keys_at_their_defaults() {
        let text = two_tenant_scenario().to_pretty();
        assert!(!text.contains("priority_levels"), "{text}");
        assert!(!text.contains("context_scale"), "{text}");
        let scaled = tenant_spec(r#", "priority_levels": 2, "context_scale": 0.5"#).unwrap();
        let tenant = scaled.to_json();
        let tenant = &tenant.get("workload").unwrap().as_arr().unwrap()[0];
        assert_eq!(tenant.get("priority_levels").unwrap().as_f64(), Some(2.0));
        assert_eq!(tenant.get("context_scale").unwrap().as_f64(), Some(0.5));
    }

    #[test]
    fn conflicting_or_empty_priority_levels_are_rejected() {
        let err = tenant_spec(r#", "priority_levels": 0"#).unwrap_err();
        assert_eq!(err, "workload[0] (t): priority_levels must be >= 1");
        let err = tenant_spec(r#", "priority_levels": 2, "priority": 1"#).unwrap_err();
        assert!(
            err.contains("priority_levels 2 draws each request's priority")
                && err.contains("priority must be 0, got 1"),
            "{err}"
        );
        // One level keeps the fixed class.
        let fixed = tenant_spec(r#", "priority_levels": 1, "priority": 1"#).unwrap();
        assert!(trace_of(&fixed).iter().all(|r| r.priority == 1));
    }

    #[test]
    fn scaled_context_max_is_capped_by_the_window_and_decode_budget() {
        let s = tenant_spec(r#", "context_scale": 1.5"#).unwrap();
        let qmsum = Dataset::QmSum.stats();
        let stats = s.workload[0].context_stats(32 * 1024);
        assert_eq!(stats.mean, qmsum.mean * 1.5);
        assert_eq!(stats.std, qmsum.std * 1.5);
        assert_eq!(stats.min, (qmsum.min as f64 * 1.5) as u64);
        // 1.5 × 30456 = 45684 would not fit: the max leaves room for
        // the largest decode budget (96 tokens).
        assert_eq!(stats.max, 32 * 1024 - 96);
        let trace = trace_of(&s);
        assert_eq!(
            trace,
            TraceBuilder::from_stats(stats)
                .seed(7)
                .requests(48)
                .decode_range(16, 96)
                .bursty(2.0, 2.5)
                .build()
        );
        assert!(trace.iter().all(|r| r.final_len() <= 32 * 1024));
        // At scale 1 the dataset's own max already fits: no cap.
        let unscaled = tenant_spec("").unwrap().workload[0].context_stats(32 * 1024);
        assert_eq!(unscaled, qmsum);
    }

    #[test]
    fn context_scale_must_be_positive_finite_and_fit_the_window() {
        for bad in ["0", "-0.5"] {
            let err = tenant_spec(&format!(r#", "context_scale": {bad}"#)).unwrap_err();
            assert_eq!(
                err, "workload[0] (t): context_scale must be positive and finite",
                "{bad}"
            );
        }
        let mut s = tenant_spec("").unwrap();
        for bad in [f64::NAN, f64::INFINITY] {
            s.workload[0].context_scale = bad;
            let err = s.validate().unwrap_err();
            assert!(
                err.contains("context_scale must be positive and finite"),
                "{err}"
            );
        }
        // 20 × QMSum's 2651-token minimum cannot fit 32K tokens.
        let err = tenant_spec(r#", "context_scale": 20"#).unwrap_err();
        assert!(err.contains("shortest prompt at 53020 tokens"), "{err}");
    }

    #[test]
    fn a_flat_replica_larger_than_its_node_is_rejected() {
        // LLM-7B-32K's CENT node has 8 modules.
        let parse = |cluster: &str| {
            Scenario::parse(&format!(
                r#"{{"model": "LLM-7B-32K", "cluster": {{{cluster}}},
                    "workload": [{{"name": "t", "dataset": "QMSum"}}]}}"#
            ))
        };
        for (cluster, replica, modules) in [
            (r#""tp": 16"#, 16, 8),
            (r#""tp": 4, "pp": 4"#, 16, 8),
            (r#""tp": 4, "modules": 2"#, 4, 2),
            // No u32 overflow on the way to the error.
            (r#""tp": 65536, "pp": 65536"#, 1u64 << 32, 8),
        ] {
            let err = parse(cluster).unwrap_err();
            assert_eq!(
                err,
                format!(
                    "cluster: one replica (tp × pp = {replica} modules) does not fit \
                     the node's {modules} modules"
                ),
                "{cluster}"
            );
        }
        for ok in [
            r#""tp": 8"#,
            r#""tp": 2, "pp": 4"#,
            r#""tp": 16, "modules": 32"#,
        ] {
            parse(ok).unwrap_or_else(|e| panic!("{ok}: {e}"));
        }
        // Pools size themselves; the flat keys are ignored.
        let pooled = parse(r#""tp": 16, "pools": [{"name": "p"}]"#);
        assert!(pooled.is_ok(), "{pooled:?}");
    }
}
