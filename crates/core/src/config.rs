//! The Damaris XML configuration (paper §III-B "Configuration file").
//!
//! Static information about the data — names, layouts, units — lives in an
//! external XML file rather than flowing through shared memory, "to keep a
//! high-level description of the datasets within the server" and let
//! clients send only minimal descriptors. The same file binds event names
//! to actions, defining the dedicated core's behaviour.
//!
//! Supported schema (elements may appear at the root or inside `<data>` /
//! `<actions>` groups):
//!
//! ```xml
//! <damaris>
//!   <buffer size="67108864" allocator="partition" queue="1024"/>
//!   <layout name="my_layout" type="real" dimensions="64,16,2" language="fortran"/>
//!   <variable name="my_variable" layout="my_layout" unit="K"/>
//!   <event name="my_event" action="do_something" using="my_plugin.so" scope="local"/>
//! </damaris>
//! ```

use crate::error::DamarisError;
use crate::layout::LayoutDef;
use damaris_xml::Element;
use std::collections::HashMap;
use std::time::Duration;

/// A variable declaration: which layout it uses plus free-form attributes
/// (unit, description, …) that the persistency layer stores alongside.
#[derive(Debug, Clone, PartialEq)]
pub struct VariableDef {
    pub name: String,
    pub layout: String,
    /// Extra attributes copied verbatim into the output format.
    pub attrs: Vec<(String, String)>,
}

/// An event→action binding (§III-C "Behavior management").
#[derive(Debug, Clone, PartialEq)]
pub struct ActionBinding {
    /// Event name clients pass to `df_signal`.
    pub event: String,
    /// Action identifier resolved against the plugin registry.
    pub action: String,
    /// Plugin parameter (the paper's `using="my_plugin.so"`); free-form,
    /// e.g. a codec spec for the compression action.
    pub using: Option<String>,
    /// `local` = fires on this node's events only (the only scope a single
    /// node runtime has; kept for config compatibility).
    pub scope: String,
}

/// What a client does when the shared buffer cannot satisfy a reservation
/// (the buffer is full because the dedicated core has not yet released
/// earlier iterations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackpressurePolicy {
    /// Wait with bounded exponential backoff; after `timeout` the write
    /// fails with [`DamarisError::Buffer`]. The default — preserves every
    /// byte while turning the old unbounded busy-wait into a bounded one.
    Block { timeout: Duration },
    /// Drop the write after a short grace period and keep computing. The
    /// dropped payloads are counted in `NodeReport::writes_dropped` — the
    /// "lossy telemetry" mode for data that ages out anyway.
    DropIteration,
    /// Bypass shared memory: the client writes the payload synchronously to
    /// the storage backend itself (paying the jitter Damaris normally
    /// hides). Counted in `NodeReport::sync_fallback_writes`.
    SyncFallback,
}

impl Default for BackpressurePolicy {
    fn default() -> Self {
        BackpressurePolicy::Block {
            timeout: Duration::from_secs(30),
        }
    }
}

/// What the dedicated core does with an iteration that can never complete
/// because one of the node's clients died (liveness lease expired) before
/// sending its end-of-iteration notification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OnClientFailure {
    /// Keep waiting for the full client count — the pre-lease behaviour
    /// and the default. Lease expiry is still *detected* and counted, but
    /// no reclamation or partial fire happens; a dead client stalls its
    /// iterations forever (they drain at terminate).
    #[default]
    Wait,
    /// Fire the iteration with the surviving clients' data and persist it
    /// with a presence bitmap recording which ranks contributed, so the
    /// recovery scan and downstream readers can tell a partial iteration
    /// from a complete one. Counted in `NodeReport::partial_iterations`.
    Partial,
    /// Discard the whole iteration (all ranks' data released, nothing
    /// persisted). Counted in `NodeReport::iterations_degraded`.
    DropIteration,
}

impl OnClientFailure {
    /// The `on_client_failure` attribute value, which
    /// [`FromStr`](std::str::FromStr) reads back.
    pub fn as_str(self) -> &'static str {
        match self {
            OnClientFailure::Wait => "wait",
            OnClientFailure::Partial => "partial",
            OnClientFailure::DropIteration => "drop-iteration",
        }
    }
}

impl std::str::FromStr for OnClientFailure {
    type Err = DamarisError;

    /// The one parser of a policy name — the XML attribute's, the process
    /// node's environment's and `cm1_proc --policy`'s.
    fn from_str(s: &str) -> Result<OnClientFailure, DamarisError> {
        match s {
            "wait" => Ok(OnClientFailure::Wait),
            "partial" => Ok(OnClientFailure::Partial),
            "drop-iteration" | "drop_iteration" => Ok(OnClientFailure::DropIteration),
            other => Err(DamarisError::Config(format!(
                "unknown on_client_failure policy '{other}' \
                 (expected wait, partial, or drop-iteration)"
            ))),
        }
    }
}

/// What the dedicated core does with iterations that become ready while
/// the storage-pressure machine is in `ReadOnly` (disk quota exhausted;
/// see [`crate::pressure::PressureMachine`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OnDiskFull {
    /// Hold ready iterations resident (data stays in shared memory, the
    /// buffer fills, clients block per `backpressure`) until space
    /// returns, then fire them — no data loss, at the cost of stalling
    /// the pipeline. The default.
    #[default]
    Block,
    /// Discard ready iterations whole while read-only (all ranks' data
    /// released, nothing persisted). Counted in both
    /// `NodeReport::iterations_degraded` and
    /// `NodeReport::storage_pressure_sheds`.
    DropIteration,
    /// Fire iterations normally and let persist fail fast: the `ENOSPC`
    /// is classified permanent, so the iteration degrades immediately
    /// without burning the retry deadline. Data that happens to fit
    /// (space freed between poll and commit) still lands.
    Partial,
}

/// Degradation policies for the whole I/O path, set by the `<resilience>`
/// configuration element:
///
/// ```xml
/// <resilience backpressure="block" timeout_ms="30000"
///             persist_retries="2" retry_base_ms="10"
///             persist_deadline_ms="2000"
///             plugin_quarantine="3"
///             epe_respawn="1" heartbeat_timeout_ms="1000"
///             on_client_failure="partial" client_lease_timeout_ms="500"
///             disk_quota_bytes="1073741824" disk_high_pct="85"
///             disk_low_pct="70" on_disk_full="drop-iteration"/>
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResilienceConfig {
    /// Client behaviour on a full buffer.
    pub backpressure: BackpressurePolicy,
    /// Persist retries after the first failed attempt (0 = no retry).
    pub persist_retries: u32,
    /// First retry backoff; doubles per attempt, with jitter.
    pub retry_base: Duration,
    /// Wall-clock budget for one iteration's persist (attempts + backoff).
    /// Exhausting it degrades the iteration (data dropped, counted in
    /// `NodeReport::iterations_degraded`) instead of aborting the server.
    pub persist_deadline: Duration,
    /// Consecutive failures after which a plugin is quarantined (disabled,
    /// EPE keeps running). 0 = fail fast: the first plugin error aborts the
    /// run — the pre-resilience behaviour, and the default.
    pub plugin_quarantine: u32,
    /// How many times a dead dedicated core is respawned (each respawn
    /// replays the notices the dead core took and did not apply, then
    /// bumps the heartbeat epoch).
    /// 0 = no respawn: the crash surfaces at `finish` — the default.
    pub epe_respawn: u32,
    /// How long the heartbeat word may stay unchanged before clients treat
    /// the dedicated core as dead and degrade per `backpressure`. Must
    /// exceed the longest plugin action (the server does not beat while a
    /// plugin runs).
    pub heartbeat_timeout: Duration,
    /// How the dedicated core completes iterations missing a dead client's
    /// end-of-iteration notification.
    pub on_client_failure: OnClientFailure,
    /// How long a client's lease word may stay unchanged before the
    /// sweeper revokes it and reclaims the client's shared-memory
    /// resources. Must exceed the client's longest gap between Damaris API
    /// calls (compute phases do not renew unless the application ticks
    /// `renew_lease`). Runs on the backend's `IoClock`, so chaos tests can
    /// drive it on virtual time.
    pub client_lease_timeout: Duration,
    /// Disk quota in bytes for the node's output directory. `None` (the
    /// default) means unlimited: no sentinel is attached and the pressure
    /// state machine stays dormant. Only applies to backends the runtime
    /// constructs itself ([`crate::NodeRuntime::start`]); an explicit
    /// backend brings its own sentinel.
    pub disk_quota: Option<u64>,
    /// Percent of the quota at which the node enters `Degraded`
    /// (compactor paused, superseded files gc'd).
    pub disk_high_pct: u8,
    /// Percent of the quota usage must fall below before a degraded node
    /// returns to `Normal` (hysteresis; must be below `disk_high_pct`).
    pub disk_low_pct: u8,
    /// How ready iterations are shed while the quota is exhausted.
    pub on_disk_full: OnDiskFull,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            backpressure: BackpressurePolicy::default(),
            persist_retries: 2,
            retry_base: Duration::from_millis(10),
            persist_deadline: Duration::from_secs(2),
            plugin_quarantine: 0,
            epe_respawn: 0,
            heartbeat_timeout: Duration::from_secs(1),
            on_client_failure: OnClientFailure::Wait,
            client_lease_timeout: Duration::from_secs(5),
            disk_quota: None,
            disk_high_pct: damaris_fs::DiskSentinel::DEFAULT_HIGH_PCT as u8,
            disk_low_pct: damaris_fs::DiskSentinel::DEFAULT_LOW_PCT as u8,
            on_disk_full: OnDiskFull::Block,
        }
    }
}

/// Observability settings, set by the `<observability>` element:
///
/// ```xml
/// <observability enabled="true" ring_capacity="4096"
///                trace_dir="out/traces"/>
/// ```
///
/// Tracing is *always-on* by default (the obs overhead budget is <5%);
/// `enabled="false"` reduces every instrumentation point to one branch.
/// `trace_dir` makes the dedicated core flush the node's trace rings into
/// `<trace_dir>/node-<id>.dtrc` between iterations; without it the rings
/// still feed the metrics registry but nothing is persisted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObservabilityConfig {
    /// Record trace events at runtime.
    pub enabled: bool,
    /// Slots per trace ring (power of two, >= 4). The ring drops oldest
    /// on overflow, so this bounds memory, not correctness.
    pub ring_capacity: usize,
    /// Directory for per-node DTRC trace files (created on demand).
    pub trace_dir: Option<String>,
}

impl Default for ObservabilityConfig {
    fn default() -> Self {
        ObservabilityConfig {
            enabled: true,
            ring_capacity: 4096,
            trace_dir: None,
        }
    }
}

/// Parsed configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Shared-memory buffer size in bytes, split evenly between the
    /// node's clients: each reserves through a ring of its own (§III-B).
    pub buffer_size: usize,
    /// Notice slots of the node (`<buffer queue=…>`), split between its
    /// clients' notice rings: `queue / clients` each, rounded down to a
    /// power of two, at least 2.
    pub queue_capacity: usize,
    /// Layout definitions by name.
    pub layouts: HashMap<String, LayoutDef>,
    /// Variable definitions in declaration order.
    pub variables: Vec<VariableDef>,
    /// Event bindings in declaration order.
    pub actions: Vec<ActionBinding>,
    /// Failure-handling policies (see [`ResilienceConfig`]).
    pub resilience: ResilienceConfig,
    /// Tracing/metrics settings (see [`ObservabilityConfig`]).
    pub observability: ObservabilityConfig,
}

impl Config {
    /// Parses a configuration document.
    pub fn from_xml(xml: &str) -> Result<Self, DamarisError> {
        let root =
            damaris_xml::parse(xml).map_err(|e| DamarisError::Config(format!("XML error: {e}")))?;
        Self::from_element(&root)
    }

    /// Parses from an already-built element tree.
    pub fn from_element(root: &Element) -> Result<Self, DamarisError> {
        if root.name != "damaris" && root.name != "simulation" {
            return Err(DamarisError::Config(format!(
                "root element must be <damaris>, found <{}>",
                root.name
            )));
        }

        let mut config = Config {
            buffer_size: 64 << 20,
            queue_capacity: 1024,
            layouts: HashMap::new(),
            variables: Vec::new(),
            actions: Vec::new(),
            resilience: ResilienceConfig::default(),
            observability: ObservabilityConfig::default(),
        };

        // Elements may sit at the root or inside grouping elements.
        // Document order is preserved: action bindings fire in the order
        // they are declared.
        let mut queue: std::collections::VecDeque<&Element> = root.child_elements().collect();
        while let Some(e) = queue.pop_front() {
            match e.name.as_str() {
                "buffer" => {
                    if let Some(size) = e
                        .attr_parse::<usize>("size")
                        .map_err(DamarisError::Config)?
                    {
                        config.buffer_size = size;
                    }
                    if let Some(q) = e
                        .attr_parse::<usize>("queue")
                        .map_err(DamarisError::Config)?
                    {
                        config.queue_capacity = q;
                    }
                    // The per-client ring is the one scheme; its two names
                    // still parse, so configurations that spell it out do.
                    match e.attr("allocator") {
                        None | Some("partition") | Some("lockfree") => {}
                        Some(other) => {
                            return Err(DamarisError::Config(format!(
                                "unknown allocator '{other}' (expected partition)"
                            )))
                        }
                    }
                }
                "layout" => {
                    let def = LayoutDef::from_xml(e)?;
                    if config
                        .layouts
                        .insert(def.name.clone(), def.clone())
                        .is_some()
                    {
                        return Err(DamarisError::Config(format!(
                            "duplicate layout '{}'",
                            def.name
                        )));
                    }
                }
                "variable" => {
                    let name = e
                        .attr("name")
                        .ok_or_else(|| DamarisError::Config("<variable> missing 'name'".into()))?
                        .to_string();
                    // The name is a path segment and a query key: stored
                    // files refuse an empty one, and `/` would split it.
                    if name.is_empty() || name.contains('/') {
                        return Err(DamarisError::Config(format!(
                            "variable name {name:?} must be non-empty and hold no '/'"
                        )));
                    }
                    let layout = e
                        .attr("layout")
                        .ok_or_else(|| {
                            DamarisError::Config(format!("variable '{name}' missing 'layout'"))
                        })?
                        .to_string();
                    let attrs = e
                        .attributes
                        .iter()
                        .filter(|(k, _)| k != "name" && k != "layout")
                        .cloned()
                        .collect();
                    if config.variables.iter().any(|v| v.name == name) {
                        return Err(DamarisError::Config(format!("duplicate variable '{name}'")));
                    }
                    config.variables.push(VariableDef {
                        name,
                        layout,
                        attrs,
                    });
                }
                "event" => {
                    let event = e
                        .attr("name")
                        .ok_or_else(|| DamarisError::Config("<event> missing 'name'".into()))?
                        .to_string();
                    let action = e
                        .attr("action")
                        .ok_or_else(|| {
                            DamarisError::Config(format!("event '{event}' missing 'action'"))
                        })?
                        .to_string();
                    config.actions.push(ActionBinding {
                        event,
                        action,
                        using: e.attr("using").map(str::to_string),
                        scope: e.attr("scope").unwrap_or("local").to_string(),
                    });
                }
                "resilience" => {
                    let r = &mut config.resilience;
                    let timeout = e
                        .attr_parse::<u64>("timeout_ms")
                        .map_err(DamarisError::Config)?
                        .map(Duration::from_millis);
                    match e.attr("backpressure") {
                        None | Some("block") => {
                            r.backpressure = BackpressurePolicy::Block {
                                timeout: timeout.unwrap_or(Duration::from_secs(30)),
                            }
                        }
                        Some("drop") => r.backpressure = BackpressurePolicy::DropIteration,
                        Some("sync-fallback") | Some("sync") => {
                            r.backpressure = BackpressurePolicy::SyncFallback
                        }
                        Some(other) => {
                            return Err(DamarisError::Config(format!(
                                "unknown backpressure policy '{other}' \
                                 (expected block, drop, or sync-fallback)"
                            )))
                        }
                    }
                    if let Some(n) = e
                        .attr_parse::<u32>("persist_retries")
                        .map_err(DamarisError::Config)?
                    {
                        r.persist_retries = n;
                    }
                    if let Some(ms) = e
                        .attr_parse::<u64>("retry_base_ms")
                        .map_err(DamarisError::Config)?
                    {
                        r.retry_base = Duration::from_millis(ms);
                    }
                    if let Some(ms) = e
                        .attr_parse::<u64>("persist_deadline_ms")
                        .map_err(DamarisError::Config)?
                    {
                        r.persist_deadline = Duration::from_millis(ms);
                    }
                    if let Some(k) = e
                        .attr_parse::<u32>("plugin_quarantine")
                        .map_err(DamarisError::Config)?
                    {
                        r.plugin_quarantine = k;
                    }
                    if let Some(n) = e
                        .attr_parse::<u32>("epe_respawn")
                        .map_err(DamarisError::Config)?
                    {
                        r.epe_respawn = n;
                    }
                    if let Some(ms) = e
                        .attr_parse::<u64>("heartbeat_timeout_ms")
                        .map_err(DamarisError::Config)?
                    {
                        if ms == 0 {
                            return Err(DamarisError::Config(
                                "heartbeat_timeout_ms must be positive".into(),
                            ));
                        }
                        r.heartbeat_timeout = Duration::from_millis(ms);
                    }
                    r.on_client_failure = match e.attr("on_client_failure") {
                        None => OnClientFailure::Wait,
                        Some(policy) => policy.parse()?,
                    };
                    if let Some(ms) = e
                        .attr_parse::<u64>("client_lease_timeout_ms")
                        .map_err(DamarisError::Config)?
                    {
                        if ms == 0 {
                            return Err(DamarisError::Config(
                                "client_lease_timeout_ms must be positive".into(),
                            ));
                        }
                        r.client_lease_timeout = Duration::from_millis(ms);
                    }
                    // Every node scans its output at boot; configurations
                    // that spell the scan out still parse.
                    if let Some(other) = e.attr("recovery_scan").filter(|v| *v != "true") {
                        let refused = format!("recovery_scan=\"{other}\": the scan always runs");
                        return Err(DamarisError::Config(refused));
                    }
                    if let Some(q) = e
                        .attr_parse::<u64>("disk_quota_bytes")
                        .map_err(DamarisError::Config)?
                    {
                        if q == 0 {
                            return Err(DamarisError::Config(
                                "disk_quota_bytes must be positive".into(),
                            ));
                        }
                        r.disk_quota = Some(q);
                    }
                    if let Some(p) = e
                        .attr_parse::<u8>("disk_high_pct")
                        .map_err(DamarisError::Config)?
                    {
                        r.disk_high_pct = p;
                    }
                    if let Some(p) = e
                        .attr_parse::<u8>("disk_low_pct")
                        .map_err(DamarisError::Config)?
                    {
                        r.disk_low_pct = p;
                    }
                    if !(r.disk_low_pct < r.disk_high_pct && r.disk_high_pct <= 100) {
                        return Err(DamarisError::Config(format!(
                            "disk watermarks must satisfy low < high <= 100, got \
                             disk_low_pct={} disk_high_pct={}",
                            r.disk_low_pct, r.disk_high_pct
                        )));
                    }
                    match e.attr("on_disk_full") {
                        None | Some("block") => r.on_disk_full = OnDiskFull::Block,
                        Some("drop-iteration") | Some("drop_iteration") => {
                            r.on_disk_full = OnDiskFull::DropIteration
                        }
                        Some("partial") => r.on_disk_full = OnDiskFull::Partial,
                        Some(other) => {
                            return Err(DamarisError::Config(format!(
                                "unknown on_disk_full policy '{other}' \
                                 (expected block, drop-iteration, or partial)"
                            )))
                        }
                    }
                }
                "observability" => {
                    let o = &mut config.observability;
                    match e.attr("enabled") {
                        None => {}
                        Some("true") => o.enabled = true,
                        Some("false") => o.enabled = false,
                        Some(other) => {
                            return Err(DamarisError::Config(format!(
                                "observability enabled must be true or false, got '{other}'"
                            )))
                        }
                    }
                    if let Some(n) = e
                        .attr_parse::<usize>("ring_capacity")
                        .map_err(DamarisError::Config)?
                    {
                        if n < 4 || !n.is_power_of_two() {
                            return Err(DamarisError::Config(format!(
                                "ring_capacity must be a power of two >= 4, got {n}"
                            )));
                        }
                        o.ring_capacity = n;
                    }
                    if let Some(dir) = e.attr("trace_dir") {
                        o.trace_dir = Some(dir.to_string());
                    }
                }
                // Grouping elements: descend (children keep their order
                // relative to each other).
                "data" | "actions" | "architecture" => {
                    for (i, child) in e.child_elements().enumerate() {
                        queue.insert(i, child);
                    }
                }
                other => {
                    return Err(DamarisError::Config(format!("unknown element <{other}>")));
                }
            }
        }

        // Cross-check variable → layout references.
        for v in &config.variables {
            if !config.layouts.contains_key(&v.layout) {
                return Err(DamarisError::Config(format!(
                    "variable '{}' references unknown layout '{}'",
                    v.name, v.layout
                )));
            }
        }
        Ok(config)
    }

    /// Variable id by name (ids are declaration order).
    pub fn variable_id(&self, name: &str) -> Option<u32> {
        self.variables
            .iter()
            .position(|v| v.name == name)
            .map(|i| i as u32)
    }

    /// Variable definition by id.
    pub fn variable(&self, id: u32) -> Option<&VariableDef> {
        self.variables.get(id as usize)
    }

    /// Variable id and definition in one scan. A running node's clients
    /// do not scan: they resolve names through an index the node builds
    /// from its configuration when it starts.
    pub fn variable_by_name(&self, name: &str) -> Option<(u32, &VariableDef)> {
        self.variables
            .iter()
            .enumerate()
            .find(|(_, v)| v.name == name)
            .map(|(i, v)| (i as u32, v))
    }

    /// The layout definition backing a variable.
    pub fn layout_of(&self, var: &VariableDef) -> &LayoutDef {
        self.layouts
            .get(&var.layout)
            // invariant: parse-time validation rejects configs whose
            // variables reference undefined layouts.
            // ANALYZE: in-bounds(parse-time validation rejects configs whose variables reference undefined layouts)
            .expect("validated at parse time")
    }

    /// Bindings for a given event name.
    pub fn bindings_for(&self, event: &str) -> Vec<&ActionBinding> {
        self.actions.iter().filter(|a| a.event == event).collect()
    }

    /// Sizing diagnostics for a deployment with `n_clients` compute cores
    /// per node. Returns human-readable warnings (empty = no concerns):
    /// the buffer must hold at least ~2 in-flight iterations (the server
    /// reclaims an iteration only once every client ends it), every
    /// static variable must fit one client's share of it, and each
    /// client's notice ring should absorb two iterations of its notices.
    pub fn diagnostics(&self, n_clients: usize) -> Vec<String> {
        use damaris_shm::ring::{ring_rounded, RING_ALIGN};
        let mut warnings = Vec::new();
        let static_bytes: u64 = self
            .variables
            .iter()
            .map(|v| {
                let l = self.layout_of(v);
                if l.dynamic {
                    0
                } else {
                    l.byte_size()
                }
            })
            .sum();
        let per_iteration = static_bytes * n_clients as u64;
        if per_iteration > 0 && (self.buffer_size as u64) < 2 * per_iteration {
            warnings.push(format!(
                "buffer ({} bytes) holds fewer than two in-flight iterations \
                 ({} bytes each for {n_clients} clients); clients may stall \
                 waiting for the dedicated core",
                self.buffer_size, per_iteration
            ));
        }
        // The share `MappedNode` gives each client's ring.
        let region = (self.buffer_size / n_clients.max(1)) as u64 / RING_ALIGN * RING_ALIGN;
        for v in &self.variables {
            let l = self.layout_of(v);
            if !l.dynamic && ring_rounded(l.byte_size()) > region {
                warnings.push(format!(
                    "variable '{}' ({} bytes) does not fit a client's share of the \
                     buffer ({region} bytes for {n_clients} clients); its first write \
                     fails",
                    v.name,
                    l.byte_size()
                ));
            }
        }
        let (slots, notices) = (self.notice_slots(n_clients), self.variables.len() + 1);
        if slots < 2 * notices {
            warnings.push(format!(
                "each client's notice ring ({slots} slots of the event queue's {}) \
                 holds fewer than two iterations of its notices ({notices} per iteration); \
                 a client may wait for the previous iteration's commit",
                self.queue_capacity
            ));
        }
        if self.variables.iter().any(|v| self.layout_of(v).dynamic) {
            warnings.push(format!(
                "dynamic-shape variables: size each client's share of the buffer \
                 ({region} bytes) for the worst-case shape"
            ));
        }
        warnings
    }

    /// The slots `MappedNode` gives each client's notice ring.
    fn notice_slots(&self, n_clients: usize) -> usize {
        1 << (self.queue_capacity / n_clients.max(1)).max(2).ilog2()
    }

    /// Refuses an event queue whose per-client notice ring cannot hold one
    /// iteration's notices, a write of each variable and the end. A slot
    /// is held until its iteration commits, so such a client would fill
    /// its ring with writes, could not post the end that commits them,
    /// and would fail once its backpressure wait ran out.
    pub fn check_notice_ring(&self, n_clients: usize) -> Result<(), DamarisError> {
        let (slots, notices) = (self.notice_slots(n_clients), self.variables.len() + 1);
        if slots >= notices {
            return Ok(());
        }
        Err(DamarisError::Config(format!(
            "<buffer queue=\"{}\">: each of {n_clients} clients gets {slots} notice slots, \
             fewer than one iteration's {notices} notices ({} variables and the end); \
             a client would block on its full ring and fail",
            self.queue_capacity,
            self.variables.len()
        )))
    }

    /// Serializes back to the XML schema (compact form).
    pub fn to_xml(&self) -> String {
        let mut root = Element::new("damaris").with_child(
            Element::new("buffer")
                .with_attr("size", self.buffer_size.to_string())
                .with_attr("queue", self.queue_capacity.to_string()),
        );
        let r = &self.resilience;
        let mut res = Element::new("resilience");
        match r.backpressure {
            BackpressurePolicy::Block { timeout } => {
                res.set_attr("backpressure", "block");
                res.set_attr("timeout_ms", timeout.as_millis().to_string());
            }
            BackpressurePolicy::DropIteration => res.set_attr("backpressure", "drop"),
            BackpressurePolicy::SyncFallback => res.set_attr("backpressure", "sync-fallback"),
        }
        res.set_attr("persist_retries", r.persist_retries.to_string());
        res.set_attr("retry_base_ms", r.retry_base.as_millis().to_string());
        res.set_attr(
            "persist_deadline_ms",
            r.persist_deadline.as_millis().to_string(),
        );
        res.set_attr("plugin_quarantine", r.plugin_quarantine.to_string());
        res.set_attr("epe_respawn", r.epe_respawn.to_string());
        res.set_attr(
            "heartbeat_timeout_ms",
            r.heartbeat_timeout.as_millis().to_string(),
        );
        res.set_attr("on_client_failure", r.on_client_failure.as_str());
        res.set_attr(
            "client_lease_timeout_ms",
            r.client_lease_timeout.as_millis().to_string(),
        );
        if let Some(q) = r.disk_quota {
            res.set_attr("disk_quota_bytes", q.to_string());
        }
        res.set_attr("disk_high_pct", r.disk_high_pct.to_string());
        res.set_attr("disk_low_pct", r.disk_low_pct.to_string());
        res.set_attr(
            "on_disk_full",
            match r.on_disk_full {
                OnDiskFull::Block => "block",
                OnDiskFull::DropIteration => "drop-iteration",
                OnDiskFull::Partial => "partial",
            },
        );
        root.children.push(damaris_xml::Node::Element(res));
        let o = &self.observability;
        let mut obs = Element::new("observability")
            .with_attr("enabled", if o.enabled { "true" } else { "false" })
            .with_attr("ring_capacity", o.ring_capacity.to_string());
        if let Some(dir) = &o.trace_dir {
            obs.set_attr("trace_dir", dir.clone());
        }
        root.children.push(damaris_xml::Node::Element(obs));
        let mut names: Vec<&String> = self.layouts.keys().collect();
        names.sort();
        for name in names {
            let l = &self.layouts[name];
            let dims = l
                .declared_dims
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join(",");
            let mut e = Element::new("layout")
                .with_attr("name", name.clone())
                .with_attr(
                    "type",
                    match l.dtype {
                        damaris_format::DataType::F32 => "real",
                        damaris_format::DataType::F64 => "double",
                        damaris_format::DataType::I32 => "integer",
                        damaris_format::DataType::I64 => "long",
                        damaris_format::DataType::U8 => "byte",
                    },
                )
                .with_attr("dimensions", dims);
            if l.language == crate::layout::Language::Fortran {
                e.set_attr("language", "fortran");
            }
            root.children.push(damaris_xml::Node::Element(e));
        }
        for v in &self.variables {
            let mut e = Element::new("variable")
                .with_attr("name", v.name.clone())
                .with_attr("layout", v.layout.clone());
            for (k, val) in &v.attrs {
                e.set_attr(k.clone(), val.clone());
            }
            root.children.push(damaris_xml::Node::Element(e));
        }
        for a in &self.actions {
            let mut e = Element::new("event")
                .with_attr("name", a.event.clone())
                .with_attr("action", a.action.clone());
            if let Some(u) = &a.using {
                e.set_attr("using", u.clone());
            }
            e.set_attr("scope", a.scope.clone());
            root.children.push(damaris_xml::Node::Element(e));
        }
        root.to_xml_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAPER_CONFIG: &str = r#"
        <damaris>
          <buffer size="8388608" allocator="partition" queue="128"/>
          <layout name="my_layout" type="real" dimensions="64,16,2" language="fortran"/>
          <variable name="my_variable" layout="my_layout" unit="K"/>
          <event name="my_event" action="do_something" using="my_plugin.so" scope="local"/>
        </damaris>"#;

    #[test]
    fn parses_paper_schema() {
        let c = Config::from_xml(PAPER_CONFIG).unwrap();
        assert_eq!(c.buffer_size, 8 << 20);
        assert_eq!(c.queue_capacity, 128);
        assert_eq!(c.variables.len(), 1);
        assert_eq!(c.variable_id("my_variable"), Some(0));
        assert_eq!(c.variable_id("nope"), None);
        let v = c.variable(0).unwrap();
        assert_eq!(c.layout_of(v).byte_size(), 64 * 16 * 2 * 4);
        assert_eq!(v.attrs, vec![("unit".to_string(), "K".to_string())]);
        let b = c.bindings_for("my_event");
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].action, "do_something");
        assert_eq!(b[0].using.as_deref(), Some("my_plugin.so"));
    }

    #[test]
    fn grouped_elements_supported() {
        let c = Config::from_xml(
            r#"<damaris>
                 <data>
                   <layout name="l" type="integer" dimensions="8"/>
                   <variable name="v" layout="l"/>
                 </data>
                 <actions>
                   <event name="e" action="persist"/>
                 </actions>
               </damaris>"#,
        )
        .unwrap();
        assert_eq!(c.variables.len(), 1);
        assert_eq!(c.actions.len(), 1);
    }

    #[test]
    fn defaults_without_buffer_element() {
        let c =
            Config::from_xml(r#"<damaris><layout name="l" type="real" dimensions="1"/></damaris>"#)
                .unwrap();
        assert_eq!(c.buffer_size, 64 << 20);
    }

    #[test]
    fn rejects_bad_configs() {
        for bad in [
            "<nope/>",
            r#"<damaris><variable name="v" layout="missing"/></damaris>"#,
            r#"<damaris><mystery/></damaris>"#,
            r#"<damaris><layout name="l" type="real" dimensions="1"/>
                       <layout name="l" type="real" dimensions="2"/></damaris>"#,
            r#"<damaris><layout name="l" type="real" dimensions="1"/>
                       <variable name="v" layout="l"/>
                       <variable name="v" layout="l"/></damaris>"#,
            r#"<damaris><event name="e"/></damaris>"#,
            r#"<damaris><buffer size="abc"/></damaris>"#,
        ] {
            assert!(Config::from_xml(bad).is_err(), "{bad}");
        }
        // A variable name is one path segment: not empty, no `/`.
        for name in ["", "a/b"] {
            let refused = Config::from_xml(&format!(
                r#"<damaris><layout name="l" type="real" dimensions="1"/>
                   <variable name="{name}" layout="l"/></damaris>"#
            ));
            assert!(
                matches!(&refused, Err(DamarisError::Config(m)) if m.contains("variable name")),
                "{name:?}: {refused:?}"
            );
        }
        // The per-client ring is the only reservation scheme, under either
        // of its names; the mutex free list is gone.
        let buffer = |name: &str| {
            Config::from_xml(&format!(
                r#"<damaris><buffer allocator="{name}"/></damaris>"#
            ))
        };
        assert!(buffer("partition").is_ok() && buffer("lockfree").is_ok());
        for name in ["mutex", "slab"] {
            let refused = buffer(name);
            assert!(
                matches!(&refused, Err(DamarisError::Config(m)) if m.contains(name)),
                "{refused:?}"
            );
        }
    }

    #[test]
    fn xml_roundtrip() {
        let c = Config::from_xml(PAPER_CONFIG).unwrap();
        let xml = c.to_xml();
        assert!(!xml.contains("allocator"), "{xml}");
        let c2 = Config::from_xml(&xml).unwrap();
        assert_eq!(c2.buffer_size, c.buffer_size);
        assert_eq!(c2.variables, c.variables);
        assert_eq!(c2.actions, c.actions);
        assert_eq!(c2.layouts.len(), c.layouts.len());
        assert_eq!(c2.layouts["my_layout"], c.layouts["my_layout"]);
    }

    #[test]
    fn action_order_preserved() {
        // Order matters: e.g. `visualize` must run before `persist` drains
        // the store. Both flat and grouped declarations keep document order.
        let c = Config::from_xml(
            r#"<damaris>
                 <event name="end_of_iteration" action="visualize"/>
                 <event name="end_of_iteration" action="persist"/>
                 <event name="other" action="stats"/>
               </damaris>"#,
        )
        .unwrap();
        let order: Vec<&str> = c.actions.iter().map(|a| a.action.as_str()).collect();
        assert_eq!(order, vec!["visualize", "persist", "stats"]);

        let grouped = Config::from_xml(
            r#"<damaris>
                 <actions>
                   <event name="e" action="visualize"/>
                   <event name="e" action="persist"/>
                 </actions>
               </damaris>"#,
        )
        .unwrap();
        let order: Vec<&str> = grouped.actions.iter().map(|a| a.action.as_str()).collect();
        assert_eq!(order, vec!["visualize", "persist"]);
    }

    #[test]
    fn diagnostics_flag_undersized_resources() {
        let c = Config::from_xml(
            r#"<damaris>
                 <buffer size="1000" queue="4"/>
                 <layout name="l" type="real" dimensions="256"/>
                 <variable name="v" layout="l"/>
               </damaris>"#,
        )
        .unwrap();
        let warnings = c.diagnostics(4);
        assert_eq!(warnings.len(), 3, "{warnings:?}");
        assert!(warnings[0].contains("buffer"));
        // 1000 / 4 clients, rounded down to the ring's 8 bytes: 248, and
        // `v` is 1024.
        assert!(warnings[1].contains("'v' (1024 bytes)"), "{warnings:?}");
        assert!(
            warnings[1].contains("248 bytes for 4 clients"),
            "{warnings:?}"
        );
        assert!(warnings[2].contains("queue"));
        // One sentence each, wrapped in the source, not in the text.
        assert!(warnings.iter().all(|w| !w.contains("  ")), "{warnings:?}");
        // Generous sizing: no warnings.
        let c = Config::from_xml(
            r#"<damaris>
                 <buffer size="1048576" queue="1024"/>
                 <layout name="l" type="real" dimensions="256"/>
                 <variable name="v" layout="l"/>
               </damaris>"#,
        )
        .unwrap();
        assert!(c.diagnostics(4).is_empty());
    }

    #[test]
    fn a_queue_that_cannot_hold_one_iteration_is_refused() {
        let c = Config::from_xml(
            r#"<damaris>
                 <buffer size="1048576" queue="16"/>
                 <layout name="l" type="real" dimensions="4"/>
                 <variable name="a" layout="l"/>
                 <variable name="b" layout="l"/>
                 <variable name="c" layout="l"/>
               </damaris>"#,
        )
        .unwrap();
        // 4 slots each for 4 clients: three writes and the end fit.
        assert!(c.check_notice_ring(4).is_ok());
        assert!(c
            .diagnostics(4)
            .iter()
            .any(|w| w.contains("previous iteration")));
        // 2 slots each for 8 clients do not.
        let err = c.check_notice_ring(8).unwrap_err().to_string();
        assert!(err.contains("2 notice slots"), "{err}");
        assert!(err.contains("4 notices (3 variables and the end)"), "{err}");
    }

    #[test]
    fn diagnostics_flag_dynamic_with_partition() {
        // Every buffer is partitioned now, whether or not it says so.
        for allocator in ["", r#" allocator="partition""#] {
            let c = Config::from_xml(&format!(
                r#"<damaris>
                     <buffer size="1048576"{allocator} queue="1024"/>
                     <layout name="p" type="real" dimensions="?"/>
                     <variable name="pos" layout="p"/>
                   </damaris>"#
            ))
            .unwrap();
            let warnings = c.diagnostics(2);
            assert_eq!(warnings.len(), 1, "{allocator}");
            assert!(warnings[0].contains("dynamic"));
            assert!(warnings[0].contains("(524288 bytes)"), "{warnings:?}");
            assert!(!warnings[0].contains("  "), "{warnings:?}");
        }
    }

    #[test]
    fn resilience_defaults_and_overrides() {
        let c = Config::from_xml("<damaris/>").unwrap();
        assert_eq!(c.resilience, ResilienceConfig::default());
        assert_eq!(
            c.resilience.backpressure,
            BackpressurePolicy::Block {
                timeout: Duration::from_secs(30)
            }
        );
        assert_eq!(c.resilience.plugin_quarantine, 0);

        assert_eq!(c.resilience.on_client_failure, OnClientFailure::Wait);
        assert_eq!(c.resilience.client_lease_timeout, Duration::from_secs(5));

        let c = Config::from_xml(
            r#"<damaris>
                 <resilience backpressure="drop" persist_retries="5"
                             retry_base_ms="7" persist_deadline_ms="900"
                             plugin_quarantine="3" recovery_scan="true"
                             epe_respawn="2" heartbeat_timeout_ms="350"
                             on_client_failure="partial"
                             client_lease_timeout_ms="450"/>
               </damaris>"#,
        )
        .unwrap();
        assert_eq!(c.resilience.backpressure, BackpressurePolicy::DropIteration);
        assert_eq!(c.resilience.persist_retries, 5);
        assert_eq!(c.resilience.retry_base, Duration::from_millis(7));
        assert_eq!(c.resilience.persist_deadline, Duration::from_millis(900));
        assert_eq!(c.resilience.plugin_quarantine, 3);
        assert_eq!(c.resilience.epe_respawn, 2);
        assert_eq!(c.resilience.heartbeat_timeout, Duration::from_millis(350));
        assert_eq!(c.resilience.on_client_failure, OnClientFailure::Partial);
        assert_eq!(
            c.resilience.client_lease_timeout,
            Duration::from_millis(450)
        );

        let c = Config::from_xml(
            r#"<damaris><resilience on_client_failure="drop-iteration"/></damaris>"#,
        )
        .unwrap();
        assert_eq!(
            c.resilience.on_client_failure,
            OnClientFailure::DropIteration
        );

        let c = Config::from_xml(
            r#"<damaris><resilience backpressure="block" timeout_ms="250"/></damaris>"#,
        )
        .unwrap();
        assert_eq!(
            c.resilience.backpressure,
            BackpressurePolicy::Block {
                timeout: Duration::from_millis(250)
            }
        );
        let c =
            Config::from_xml(r#"<damaris><resilience backpressure="sync-fallback"/></damaris>"#)
                .unwrap();
        assert_eq!(c.resilience.backpressure, BackpressurePolicy::SyncFallback);
    }

    #[test]
    fn resilience_rejects_bad_values() {
        for bad in [
            r#"<damaris><resilience backpressure="explode"/></damaris>"#,
            r#"<damaris><resilience recovery_scan="maybe"/></damaris>"#,
            r#"<damaris><resilience persist_retries="lots"/></damaris>"#,
            r#"<damaris><resilience epe_respawn="forever"/></damaris>"#,
            r#"<damaris><resilience heartbeat_timeout_ms="0"/></damaris>"#,
            r#"<damaris><resilience on_client_failure="shrug"/></damaris>"#,
            r#"<damaris><resilience client_lease_timeout_ms="0"/></damaris>"#,
            r#"<damaris><resilience disk_quota_bytes="0"/></damaris>"#,
            r#"<damaris><resilience on_disk_full="panic"/></damaris>"#,
            // Watermarks must satisfy low < high <= 100.
            r#"<damaris><resilience disk_high_pct="101"/></damaris>"#,
            r#"<damaris><resilience disk_high_pct="50" disk_low_pct="60"/></damaris>"#,
            r#"<damaris><resilience disk_high_pct="70" disk_low_pct="70"/></damaris>"#,
        ] {
            assert!(Config::from_xml(bad).is_err(), "{bad}");
        }
        // The scan always runs: turning it off is refused, typed.
        let off = Config::from_xml(r#"<damaris><resilience recovery_scan="false"/></damaris>"#);
        assert!(
            matches!(&off, Err(DamarisError::Config(m)) if m.contains("always runs")),
            "{off:?}"
        );
    }

    /// One parser for every place a policy name arrives: each name reads
    /// back as what it says, and a misspelt one is refused, not taken for
    /// the default.
    #[test]
    fn a_misspelt_client_failure_policy_is_refused() {
        for policy in [
            OnClientFailure::Wait,
            OnClientFailure::Partial,
            OnClientFailure::DropIteration,
        ] {
            assert_eq!(policy.as_str().parse::<OnClientFailure>().unwrap(), policy);
        }
        let misspelt = "parital".parse::<OnClientFailure>().unwrap_err();
        assert!(misspelt.to_string().contains("'parital'"), "{misspelt}");
        let xml = r#"<damaris><resilience on_client_failure="parital"/></damaris>"#;
        assert!(matches!(
            Config::from_xml(xml),
            Err(DamarisError::Config(_))
        ));
    }

    #[test]
    fn disk_pressure_defaults_and_overrides() {
        let c = Config::from_xml("<damaris/>").unwrap();
        assert_eq!(c.resilience.disk_quota, None);
        assert_eq!(c.resilience.disk_high_pct, 85);
        assert_eq!(c.resilience.disk_low_pct, 70);
        assert_eq!(c.resilience.on_disk_full, OnDiskFull::Block);

        let c = Config::from_xml(
            r#"<damaris>
                 <resilience disk_quota_bytes="65536" disk_high_pct="90"
                             disk_low_pct="50" on_disk_full="drop-iteration"/>
               </damaris>"#,
        )
        .unwrap();
        assert_eq!(c.resilience.disk_quota, Some(65536));
        assert_eq!(c.resilience.disk_high_pct, 90);
        assert_eq!(c.resilience.disk_low_pct, 50);
        assert_eq!(c.resilience.on_disk_full, OnDiskFull::DropIteration);

        let c =
            Config::from_xml(r#"<damaris><resilience on_disk_full="partial"/></damaris>"#).unwrap();
        assert_eq!(c.resilience.on_disk_full, OnDiskFull::Partial);

        let c2 = Config::from_xml(&c.to_xml()).unwrap();
        assert_eq!(c2.resilience, c.resilience);
    }

    #[test]
    fn resilience_roundtrips_through_xml() {
        let c = Config::from_xml(
            r#"<damaris>
                 <resilience backpressure="sync-fallback" persist_retries="4"
                             plugin_quarantine="2" epe_respawn="1"
                             heartbeat_timeout_ms="1250"
                             on_client_failure="partial"
                             client_lease_timeout_ms="800"/>
               </damaris>"#,
        )
        .unwrap();
        let c2 = Config::from_xml(&c.to_xml()).unwrap();
        assert_eq!(c2.resilience, c.resilience);
    }

    #[test]
    fn observability_defaults_overrides_and_roundtrip() {
        let c = Config::from_xml("<damaris/>").unwrap();
        assert_eq!(c.observability, ObservabilityConfig::default());
        assert!(c.observability.enabled);
        assert_eq!(c.observability.ring_capacity, 4096);
        assert!(c.observability.trace_dir.is_none());

        let c = Config::from_xml(
            r#"<damaris>
                 <observability enabled="false" ring_capacity="64"
                                trace_dir="out/traces"/>
               </damaris>"#,
        )
        .unwrap();
        assert!(!c.observability.enabled);
        assert_eq!(c.observability.ring_capacity, 64);
        assert_eq!(c.observability.trace_dir.as_deref(), Some("out/traces"));

        let c2 = Config::from_xml(&c.to_xml()).unwrap();
        assert_eq!(c2.observability, c.observability);
    }

    #[test]
    fn observability_rejects_bad_values() {
        for bad in [
            r#"<damaris><observability enabled="sometimes"/></damaris>"#,
            r#"<damaris><observability ring_capacity="3"/></damaris>"#,
            r#"<damaris><observability ring_capacity="100"/></damaris>"#,
            r#"<damaris><observability ring_capacity="many"/></damaris>"#,
        ] {
            assert!(Config::from_xml(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn multiple_bindings_per_event() {
        let c = Config::from_xml(
            r#"<damaris>
                 <event name="checkpoint" action="stats"/>
                 <event name="checkpoint" action="persist"/>
               </damaris>"#,
        )
        .unwrap();
        assert_eq!(c.bindings_for("checkpoint").len(), 2);
        assert!(c.bindings_for("other").is_empty());
    }
}
