//! The persistency layer (paper §III-C): writes an iteration's resident
//! variables into one SDF file per node — "gathering data into large
//! files" is where Damaris' throughput advantage comes from.
//!
//! With a codec spec in the binding's `using` attribute (e.g. `"lzss"` or
//! `"precision16|lzss"`), data is compressed inside the dedicated core —
//! invisible to the simulation, unlike client-side compression (§IV-D).
//!
//! # Failure handling
//!
//! Files go through the crash-consistent `begin_sdf`/`commit_sdf` protocol
//! (tmp file + fsync + atomic rename): a crash mid-persist never publishes
//! a half-written file. Transient storage failures are retried with
//! exponential backoff + jitter under `<resilience persist_retries=…
//! retry_base_ms=… persist_deadline_ms=…>`; when the budget is exhausted
//! the iteration is *degraded* — its data is dropped, the shared memory is
//! released (so clients never deadlock on a sick file system), the event
//! is counted in `NodeReport::iterations_degraded`, and the server loop
//! keeps running.
//!
//! Errors are *classified* before retrying: a permanent out-of-space
//! failure (`ENOSPC`/`EDQUOT`/`EROFS`) is not transient — backing off and
//! trying again just burns the deadline against a disk that will not
//! drain itself. Those degrade the iteration immediately and escalate to
//! the storage-pressure state machine
//! ([`crate::pressure::PressureMachine`]), which pauses compaction and
//! gc's superseded files so space can actually return.

use crate::error::DamarisError;
use crate::node::FaultStats;
use crate::plugin::{ActionContext, EventInfo, Plugin};
use damaris_format::DatasetOptions;
use damaris_obs::EventKind;

/// Writes `/iter-N/rank-S/<variable>` datasets into `node-<id>/iter-N.sdf`.
pub struct PersistPlugin {
    filter: Option<String>,
    /// Compression accounting across the plugin's lifetime.
    logical_bytes: u64,
    stored_bytes: u64,
}

impl PersistPlugin {
    /// `filter`: optional codec pipeline spec for `damaris-compress`.
    pub fn new(filter: Option<String>) -> Self {
        PersistPlugin {
            filter: filter.filter(|f| !f.is_empty()),
            logical_bytes: 0,
            stored_bytes: 0,
        }
    }

    /// Paper-style compression ratio achieved so far (100% = none).
    pub fn ratio_percent(&self) -> f64 {
        damaris_compress::paper_ratio_percent(self.logical_bytes as usize, self.stored_bytes as usize)
    }

    /// One full write-and-commit attempt. On failure nothing is published
    /// (at worst a `*.tmp` is left for recovery/retry to overwrite).
    fn try_persist(
        &self,
        ctx: &ActionContext<'_>,
        iteration: u32,
        drained: &[crate::metadata::StoredVariable],
    ) -> Result<u64, DamarisError> {
        let file_name = format!("node-{}/iter-{:06}.sdf", ctx.node_id, iteration);
        let mut total_bytes = 0u64;
        let t_write = ctx.rec.begin();
        let mut writer = ctx.backend.begin_sdf(&file_name)?;
        for var in drained {
            let path = format!("/iter-{}/rank-{}/{}", iteration, var.key.source, var.name);
            let mut opts = DatasetOptions::plain()
                .with_attr("iteration", i64::from(iteration))
                .with_attr("source", i64::from(var.key.source));
            if let Some(bitmap) = ctx.presence {
                // Partial iteration (fenced clients): mark every dataset so
                // the recovery scan can report which ranks are present.
                opts = opts
                    .with_attr("partial", 1i64)
                    .with_attr("presence_bitmap", bitmap as i64);
            }
            // Static variable attributes from the configuration (unit, …).
            if let Some(def) = ctx.config.variable(var.key.variable_id) {
                for (k, v) in &def.attrs {
                    opts = opts.with_attr(k.clone(), v.as_str());
                }
            }
            if let Some(filter) = &self.filter {
                opts = opts.with_filter(filter.clone());
            }
            writer.write_dataset_bytes(&path, &var.layout, var.data(), &opts)?;
            total_bytes += var.segment.len() as u64;
        }
        ctx.rec
            .end(EventKind::BackendWrite, iteration, total_bytes, t_write);
        // The commit is where the fsync + atomic rename (and therefore the
        // storage-side jitter) lives — timed as its own phase.
        let t_sync = ctx.rec.begin();
        let stored = ctx.backend.commit_sdf(writer)?;
        ctx.rec
            .end(EventKind::BackendFsync, iteration, stored, t_sync);
        // Seal/publish hook for the read tier: announce the committed file
        // in the output manifest so concurrent QueryEngine readers can
        // snapshot it. Best-effort — the data itself is already durable,
        // and a missed publish is healed by the recovery scan's adoption
        // pass, so a manifest hiccup must not degrade the iteration.
        if let Err(e) = damaris_fs::manifest::publish_iteration(
            ctx.backend.root(),
            ctx.node_id,
            iteration,
            &file_name,
            stored,
        ) {
            eprintln!(
                "[damaris node {}] iteration {iteration}: manifest publish failed \
                 (readers lag until recovery adopts the file): {e}",
                ctx.node_id
            );
        }
        Ok(stored)
    }
}

impl Plugin for PersistPlugin {
    fn name(&self) -> &str {
        "persist"
    }

    fn handle(
        &mut self,
        ctx: &mut ActionContext<'_>,
        event: &EventInfo,
    ) -> Result<(), DamarisError> {
        let iteration = event.iteration;
        let all = ctx.store.drain_iteration(iteration);
        if all.is_empty() {
            return Ok(());
        }
        // End-to-end integrity gate: re-compute each segment's CRC-32 and
        // compare it against the checksum the client stamped over its
        // *source* bytes at write time. A mismatch means the shared-memory
        // copy tore (rank killed mid-`memcpy`) or the segment was
        // corrupted in flight — quarantine it (skip persisting, count it,
        // still release the memory) instead of writing garbage to storage.
        let t_verify = ctx.rec.begin();
        let verified: u64 = all.iter().map(|var| var.segment.len() as u64).sum();
        let (drained, torn): (Vec<_>, Vec<_>) = all
            .into_iter()
            .partition(|var| damaris_format::crc32(var.data()) == var.data_crc);
        ctx.rec
            .end(EventKind::Checksum, iteration, verified, t_verify);
        for var in torn {
            FaultStats::bump(&ctx.stats.crc_quarantined);
            eprintln!(
                "[damaris node {}] iteration {iteration} rank {} variable '{}': \
                 segment CRC mismatch — quarantined, not persisted",
                ctx.node_id, var.key.source, var.name
            );
            ctx.release_segment(var.key.source, var.seq, var.segment);
        }
        if drained.is_empty() {
            return Ok(());
        }
        let policy = ctx.config.resilience;
        // All waiting goes through the backend's clock: real time in
        // production, virtual time under test (injected stalls and retry
        // backoff then cost the test no wall time).
        let clock = ctx.backend.clock();
        let deadline = clock.now() + policy.persist_deadline;
        let mut backoff =
            crate::retry::Backoff::new(policy.retry_base, policy.persist_deadline / 4);
        let mut attempt = 0u32;
        loop {
            match self.try_persist(ctx, iteration, &drained) {
                Ok(total) => {
                    for var in &drained {
                        self.logical_bytes += var.segment.len() as u64;
                    }
                    self.stored_bytes += total;
                    ctx.backend.account_bytes(total);
                    break;
                }
                Err(error) => {
                    let permanent = error.is_no_space();
                    if permanent {
                        // Out of space: escalate so the next loop pass
                        // degrades the node (compactor pause + gc) — and
                        // skip the backoff below, which cannot help.
                        ctx.pressure.note_no_space();
                    }
                    let delay = backoff.delay();
                    let budget_left = !permanent
                        && attempt < policy.persist_retries
                        && clock.now() + delay < deadline;
                    if !budget_left {
                        // Degrade rather than abort: the iteration's data
                        // is lost, but the run — and every later
                        // iteration — continues.
                        FaultStats::bump(&ctx.stats.iterations_degraded);
                        if permanent {
                            FaultStats::bump(&ctx.stats.storage_pressure_sheds);
                        }
                        eprintln!(
                            "[damaris node {}] iteration {iteration} degraded: {} persist \
                             failure after {} attempt(s): {error}",
                            ctx.node_id,
                            if permanent { "permanent" } else { "transient" },
                            attempt + 1
                        );
                        break;
                    }
                    attempt += 1;
                    FaultStats::bump(&ctx.stats.persist_retries);
                    let t_retry = ctx.rec.begin();
                    clock.sleep(delay);
                    ctx.rec.end(EventKind::BackendRetry, iteration, 0, t_retry);
                }
            }
        }
        // Persisted or degraded: either way the shared memory is reclaimed
        // so clients can keep producing.
        ctx.release_all(drained);
        Ok(())
    }
}
