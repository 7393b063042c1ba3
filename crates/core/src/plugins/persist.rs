//! The persistency layer (paper §III-C): writes an iteration's resident
//! variables into one SDF file per node — "gathering data into large
//! files" is where Damaris' throughput advantage comes from.
//!
//! With a codec spec in the binding's `using` attribute (e.g. `"lzss"` or
//! `"precision16|lzss"`), data is compressed inside the dedicated core —
//! invisible to the simulation, unlike client-side compression (§IV-D).
//!
//! # Group commit
//!
//! When an iteration fires, its file is written under its temporary name
//! and the iteration is *parked*: writer open, segments held (behind
//! another parked one, the kernel is also asked to start writing the
//! files out). When the event queue goes quiet
//! ([`Plugin::quiet`]) everything parked is committed as one batch — every
//! file synced, then every file renamed, one directory sync, **one**
//! manifest publish listing them all — and only then released. A core
//! that keeps up commits batches of one, the same system calls in the same
//! order as a commit per iteration; a core that has fallen behind pays the
//! directory sync and the manifest append once per backlog instead of once
//! per iteration. No count, timer or thread bounds the batch: the shared
//! buffer does, because clients block once parked iterations hold it all,
//! and a blocked client is a quiet queue.
//!
//! # Failure handling
//!
//! Files go through the crash-consistent `begin_sdf`/`commit_batch`
//! protocol (tmp file + fsync + atomic rename): a crash mid-persist never
//! publishes a half-written file. A batch stops at the first file that
//! fails: what committed before it is published and released, the failed
//! iteration — now the oldest parked — is written and committed again on
//! its own, and the rest follow once it is settled, so files commit and
//! segments release in fire order whatever fails. Transient storage
//! failures are retried with
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
use crate::plugin::{ActionContext, EventInfo, Parked, Plugin};
use damaris_format::{DatasetOptions, SdfError, SdfWriter};
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
        let mut plugin = PersistPlugin {
            filter: None,
            logical_bytes: 0,
            stored_bytes: 0,
        };
        plugin.set_filter(filter);
        plugin
    }

    /// Changes the codec pipeline for the iterations handled from now on
    /// (`None` or empty: raw).
    pub fn set_filter(&mut self, filter: Option<String>) {
        self.filter = filter.filter(|f| !f.is_empty());
    }

    /// Paper-style compression ratio achieved so far (100% = none).
    pub fn ratio_percent(&self) -> f64 {
        damaris_compress::paper_ratio_percent(self.logical_bytes as usize, self.stored_bytes as usize)
    }

    /// Writes one iteration's file, whole, under its temporary name. On
    /// failure nothing is published (at worst a `*.tmp` is left for
    /// recovery, or the next attempt, to overwrite).
    fn write(ctx: &ActionContext<'_>, it: &Parked) -> Result<SdfWriter, SdfError> {
        let iteration = it.iteration;
        let mut total_bytes = 0u64;
        let t_write = ctx.rec.begin();
        let mut writer = ctx.backend.begin_sdf(&it.file_name)?;
        for var in &it.variables {
            let path = format!("/iter-{}/rank-{}/{}", iteration, var.key.source, var.name);
            let mut opts = DatasetOptions::plain().with_coords(iteration, var.key.source);
            if let Some(bitmap) = it.presence {
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
            if let Some(filter) = &it.filter {
                opts = opts.with_filter(filter.clone());
            }
            writer.write_dataset_bytes(&path, &var.layout, var.data(), &opts)?;
            total_bytes += var.segment.len() as u64;
        }
        writer.seal()?;
        ctx.rec
            .end(EventKind::BackendWrite, iteration, total_bytes, t_write);
        if it.filter.is_some() {
            // The codec's share of the span just closed, by the writer's
            // own clock: once per iteration, so looked up by name.
            ctx.metrics
                .histogram("phase.filter_encode_ns")
                .observe(writer.filter_encode_ns());
        }
        Ok(writer)
    }

    /// Commits everything parked, oldest first, until nothing is: each
    /// iteration ends up published and released, or degraded and released,
    /// in the order it fired.
    fn commit_parked(&mut self, ctx: &mut ActionContext<'_>) {
        // After a failure the oldest goes alone until it is settled.
        let mut batch = usize::MAX;
        while let Some(oldest) = ctx.parked.front() {
            if oldest.writer.is_none() {
                // Its last attempt failed, or a batch took its writer and
                // stopped before it: the file is written again.
                match Self::write(ctx, oldest) {
                    Ok(writer) => ctx.parked[0].writer = Some(writer),
                    Err(error) => {
                        self.oldest_failed(ctx, error);
                        continue;
                    }
                }
            }
            let retrying = self
                .commit(ctx, batch)
                .is_some_and(|error| self.oldest_failed(ctx, error));
            batch = if retrying { 1 } else { usize::MAX };
        }
    }

    /// One batch: commits the oldest parked iterations that have their
    /// files written, at most `limit` of them, then publishes and releases
    /// those that committed. Returns what stopped the batch short.
    fn commit(&mut self, ctx: &mut ActionContext<'_>, limit: usize) -> Option<SdfError> {
        let ready = ctx.parked.iter().take(limit);
        let n = ready.take_while(|it| it.writer.is_some()).count();
        let last = ctx.parked[n - 1].iteration;
        // The commit is where the fsyncs + atomic renames (and therefore
        // the storage-side jitter) live — timed as its own phase, one
        // span per batch, tagged with its last iteration and total bytes.
        let t_sync = ctx.rec.begin();
        let mut writers = ctx.parked.iter_mut().take(n).map(|it| {
            // invariant: the first `n` were counted as having a writer.
            it.writer.take().expect("counted above")
        });
        let (stored, failed) = ctx.backend.commit_batch(&mut writers);
        ctx.rec
            .end(EventKind::BackendFsync, last, stored.iter().sum(), t_sync);
        FaultStats::bump(&ctx.stats.commit_batches);
        if stored.is_empty() {
            return failed;
        }
        // Seal/publish hook for the read tier: announce the committed
        // files in the output manifest, all in one appended frame, so
        // concurrent QueryEngine readers can snapshot them. Best-effort —
        // the data itself is already durable, and a missed publish is
        // healed by the recovery scan's adoption pass, so a manifest
        // hiccup must not degrade the iterations. Only after the commit
        // returned: the manifest never lists a name that is not durable.
        let sealed: Vec<(u32, &str, u64)> = ctx
            .parked
            .iter()
            .zip(&stored)
            .map(|(it, bytes)| (it.iteration, it.file_name.as_str(), *bytes))
            .collect();
        let newest = sealed[sealed.len() - 1].0;
        let t_publish = ctx.rec.begin();
        let published =
            damaris_fs::manifest::publish_iterations(ctx.backend.root(), ctx.node_id, &sealed);
        ctx.rec.end(
            EventKind::ManifestPublish,
            newest,
            sealed.len() as u64,
            t_publish,
        );
        FaultStats::bump(&ctx.stats.manifest_publishes);
        if let Err(e) = published {
            eprintln!(
                "[damaris node {}] iteration {newest}: manifest publish failed \
                 (readers lag until recovery adopts the file): {e}",
                ctx.node_id
            );
        }
        // Durable and announced: only now do the segments go back (into
        // the core's one sorted flush) so clients can keep producing.
        let committed: Vec<Parked> = ctx.parked.drain(..stored.len()).collect();
        for (it, total) in committed.into_iter().zip(stored) {
            let logical = it.variables.iter().map(|v| v.segment.len() as u64);
            self.logical_bytes += logical.sum::<u64>();
            self.stored_bytes += total;
            ctx.backend.account_bytes(total);
            ctx.release_all(it.variables);
        }
        failed
    }

    /// The oldest parked iteration failed to write or commit. Errors are
    /// classified, then either the retry budget pays for another attempt
    /// (true: after the backoff, the caller writes the file again) or the
    /// iteration is degraded and released (false).
    fn oldest_failed(&mut self, ctx: &mut ActionContext<'_>, error: SdfError) -> bool {
        let policy = ctx.config.resilience;
        // All waiting goes through the backend's clock: real time in
        // production, virtual time under test (injected stalls and retry
        // backoff then cost the test no wall time).
        let clock = ctx.backend.clock();
        let oldest = &mut ctx.parked[0];
        let iteration = oldest.iteration;
        let permanent = damaris_fs::sentinel::is_no_space(&error);
        if permanent {
            // Out of space: escalate so the next loop pass degrades the
            // node (compactor pause + gc) — and skip the backoff below,
            // which cannot help.
            ctx.pressure.note_no_space();
        }
        let delay = oldest.backoff.delay();
        let budget_left = !permanent
            && oldest.attempt < policy.persist_retries
            && clock.now() + delay < oldest.deadline;
        if budget_left {
            oldest.attempt += 1;
            FaultStats::bump(&ctx.stats.persist_retries);
            let t_retry = ctx.rec.begin();
            clock.sleep(delay);
            ctx.rec.end(EventKind::BackendRetry, iteration, 0, t_retry);
            return true;
        }
        // Degrade rather than abort: the iteration's data is lost, but the
        // run — and every later iteration — continues, and the shared
        // memory is reclaimed so clients never deadlock on a sick disk.
        FaultStats::bump(&ctx.stats.iterations_degraded);
        if permanent {
            FaultStats::bump(&ctx.stats.storage_pressure_sheds);
        }
        eprintln!(
            "[damaris node {}] iteration {iteration} degraded: {} persist \
             failure after {} attempt(s): {error}",
            ctx.node_id,
            if permanent { "permanent" } else { "transient" },
            oldest.attempt + 1
        );
        if let Some(degraded) = ctx.parked.pop_front() {
            ctx.release_all(degraded.variables);
        }
        false
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
        let drained = ctx.store.drain_iteration(iteration);
        if drained.is_empty() {
            return Ok(());
        }
        let policy = ctx.config.resilience;
        let mut fired = Parked {
            iteration,
            file_name: format!("node-{}/iter-{:06}.sdf", ctx.node_id, iteration),
            writer: None,
            variables: drained,
            presence: ctx.presence,
            filter: self.filter.clone(),
            attempt: 0,
            backoff: crate::retry::Backoff::new(policy.retry_base, policy.persist_deadline / 4),
            deadline: ctx.backend.clock().now() + policy.persist_deadline,
        };
        match Self::write(ctx, &fired) {
            Ok(writer) => {
                fired.writer = Some(writer);
                ctx.parked.push_back(fired);
                if ctx.parked.len() > 1 {
                    // The core is behind: the commit is a backlog away, so
                    // the device may as well start on the files now and
                    // the commit's syncs find most of the pages there. A
                    // core that keeps up never gets here and commits with
                    // the system calls it always did. A hint — the commit
                    // still syncs every file before it renames it.
                    let writers = ctx.parked.iter_mut().filter_map(|it| it.writer.as_mut());
                    writers.for_each(SdfWriter::start_writeback);
                }
            }
            Err(error) => {
                // Whatever is parked ahead commits first: a retry sleeps,
                // which they need not wait out, and a degraded iteration's
                // segments must not release before theirs.
                self.commit_parked(ctx);
                ctx.parked.push_back(fired);
                self.oldest_failed(ctx, error);
                self.commit_parked(ctx);
            }
        }
        Ok(())
    }

    fn quiet(&mut self, ctx: &mut ActionContext<'_>) -> Result<(), DamarisError> {
        self.commit_parked(ctx);
        Ok(())
    }

    fn finalize(&mut self, ctx: &mut ActionContext<'_>) -> Result<(), DamarisError> {
        self.commit_parked(ctx);
        Ok(())
    }
}
