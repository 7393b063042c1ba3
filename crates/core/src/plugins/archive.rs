//! Multi-iteration archiving (paper §V-B): "our approach using dedicated
//! cores in the simulation nodes permits keeping the data longer in memory
//! … and to smartly schedule all data operations and movements."
//!
//! [`ArchivePlugin`] holds iterations resident in shared memory and flushes
//! every `K` completed iterations into **one** SDF archive file — fewer,
//! larger files than per-iteration persistence, at the price of buffer
//! residency (use [`crate::Config::diagnostics`] to size the buffer for
//! `K + 1` in-flight iterations).
//!
//! Bind with the flush interval in `using`:
//!
//! ```xml
//! <event name="end_of_iteration" action="archive" using="10"/>
//! ```

use crate::error::DamarisError;
use crate::plugin::{ActionContext, EventInfo, Plugin};
use damaris_format::DatasetOptions;

/// Persists batches of `every` iterations into one archive file.
pub struct ArchivePlugin {
    /// Flush after this many completed iterations.
    every: u32,
    /// Optional codec pipeline for the archived datasets.
    filter: Option<String>,
    /// Iterations completed since the last flush.
    completed: u32,
    /// Highest iteration seen (names the shutdown archive).
    last_iteration: u32,
    /// Archives written (for reports/tests).
    pub archives_written: u64,
}

impl ArchivePlugin {
    /// New plugin flushing every `every` iterations (≥1).
    pub fn new(every: u32, filter: Option<String>) -> Self {
        ArchivePlugin {
            every: every.max(1),
            filter: filter.filter(|f| !f.is_empty()),
            completed: 0,
            last_iteration: 0,
            archives_written: 0,
        }
    }

    /// Parses the `using` spec: `K` or `K:filter` (e.g. `"10:lzss|huff"`).
    pub fn from_spec(spec: &str) -> Result<Self, DamarisError> {
        let (every, filter) = match spec.split_once(':') {
            Some((k, f)) => (k, Some(f.to_string())),
            None => (spec, None),
        };
        let every: u32 = every.trim().parse().map_err(|_| {
            DamarisError::Config(format!(
                "archive: 'using' must be 'K' or 'K:filter', got '{spec}'"
            ))
        })?;
        if every == 0 {
            return Err(DamarisError::Config("archive: K must be ≥ 1".into()));
        }
        Ok(Self::new(every, filter))
    }

    fn flush(&mut self, ctx: &mut ActionContext<'_>, upto: u32) -> Result<(), DamarisError> {
        // Only the iterations this archive is named for: a client that
        // ran ahead has later ones resident too, not yet complete.
        let mut pending = ctx.store.pending_iterations();
        pending.retain(|&iteration| iteration <= upto);
        if pending.is_empty() {
            return Ok(());
        }
        let file_name = format!("node-{}/archive-upto-{:06}.sdf", ctx.node_id, upto);
        let mut writer = ctx.backend.create_sdf(&file_name)?;
        let mut to_release = Vec::new();
        for iteration in pending {
            for var in ctx.store.drain_iteration(iteration) {
                let mut opts = DatasetOptions::plain().with_coords(iteration, var.key.source);
                if let Some(f) = &self.filter {
                    opts = opts.with_filter(f.clone());
                }
                writer.write_variable_bytes(&var.name, &var.layout, var.data(), &opts)?;
                to_release.push(var);
            }
        }
        let total = writer.finish()?;
        ctx.backend.account_bytes(total);
        ctx.release_all(to_release);
        self.archives_written += 1;
        self.completed = 0;
        Ok(())
    }
}

impl Plugin for ArchivePlugin {
    fn name(&self) -> &str {
        "archive"
    }

    fn handle(
        &mut self,
        ctx: &mut ActionContext<'_>,
        event: &EventInfo,
    ) -> Result<(), DamarisError> {
        self.completed += 1;
        self.last_iteration = self.last_iteration.max(event.iteration);
        if self.completed >= self.every {
            self.flush(ctx, event.iteration)?;
        }
        // Otherwise: data stays resident in shared memory — the §V-B point.
        Ok(())
    }

    fn finalize(&mut self, ctx: &mut ActionContext<'_>) -> Result<(), DamarisError> {
        // Flush whatever a partial batch still holds.
        self.flush(ctx, self.last_iteration)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::node::NodeRuntime;
    use damaris_format::SdfReader;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch(tag: &str) -> std::path::PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("damaris-arch-{tag}-{}-{n}", std::process::id()))
    }

    #[test]
    fn spec_parsing() {
        assert!(ArchivePlugin::from_spec("10").is_ok());
        let p = ArchivePlugin::from_spec("5:lzss|huff").unwrap();
        assert_eq!(p.every, 5);
        assert_eq!(p.filter.as_deref(), Some("lzss|huff"));
        assert!(ArchivePlugin::from_spec("0").is_err());
        assert!(ArchivePlugin::from_spec("x").is_err());
    }

    #[test]
    fn batches_k_iterations_per_file() {
        let cfg = Config::from_xml(
            r#"<damaris>
                 <buffer size="4194304"/>
                 <layout name="grid" type="real" dimensions="256"/>
                 <variable name="v" layout="grid"/>
                 <event name="end_of_iteration" action="archive" using="3"/>
               </damaris>"#,
        )
        .unwrap();
        let dir = scratch("batch");
        let runtime = NodeRuntime::start(cfg, 2, &dir).unwrap();
        let clients = runtime.clients();
        let gate = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for client in clients {
                let gate = &gate;
                s.spawn(move || {
                    for it in 0..6u32 {
                        client
                            .write_f32("v", it, &vec![(it * 10 + client.id()) as f32; 256])
                            .unwrap();
                        client.end_iteration(it).unwrap();
                        gate.wait();
                    }
                });
            }
        });
        let report = runtime.finish().unwrap();
        // 6 iterations → 2 archives of 3 iterations each.
        assert_eq!(report.files_created, 2);

        let a = SdfReader::open(dir.join("node-0/archive-upto-000002.sdf")).unwrap();
        assert_eq!(a.len(), 3 * 2); // 3 iterations × 2 clients
        assert_eq!(a.read_f32("/iter-1/rank-1/v").unwrap(), vec![11.0; 256]);
        let b = SdfReader::open(dir.join("node-0/archive-upto-000005.sdf")).unwrap();
        assert_eq!(b.len(), 6);
        assert!(b.info("/iter-5/rank-0/v").is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn terminate_flushes_partial_batch() {
        // A run ending mid-batch must not lose the resident iterations:
        // the server fires end_of_iteration for pending data on Terminate,
        // and the archive flushes whatever is resident.
        let cfg = Config::from_xml(
            r#"<damaris>
                 <buffer size="1048576"/>
                 <layout name="grid" type="real" dimensions="64"/>
                 <variable name="v" layout="grid"/>
                 <event name="end_of_iteration" action="archive" using="10"/>
               </damaris>"#,
        )
        .unwrap();
        let dir = scratch("partial");
        let runtime = NodeRuntime::start(cfg, 1, &dir).unwrap();
        let client = &runtime.clients()[0];
        for it in 0..2u32 {
            client.write_f32("v", it, &vec![it as f32; 64]).unwrap();
            client.end_iteration(it).unwrap();
        }
        // Only 2 of 10 iterations completed; finish() must still persist.
        let report = runtime.finish().unwrap();
        assert!(report.files_created >= 1, "partial batch lost");
        let files: Vec<_> = std::fs::read_dir(dir.join("node-0"))
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert!(files.iter().any(|f| f.starts_with("archive-")), "{files:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compressed_archive_roundtrips() {
        let cfg = Config::from_xml(
            r#"<damaris>
                 <buffer size="1048576"/>
                 <layout name="grid" type="real" dimensions="512"/>
                 <variable name="v" layout="grid"/>
                 <event name="end_of_iteration" action="archive" using="2:lzss|huff"/>
               </damaris>"#,
        )
        .unwrap();
        let dir = scratch("comp");
        let runtime = NodeRuntime::start(cfg, 1, &dir).unwrap();
        let client = &runtime.clients()[0];
        for it in 0..2u32 {
            client.write_f32("v", it, &vec![7.5; 512]).unwrap();
            client.end_iteration(it).unwrap();
        }
        let report = runtime.finish().unwrap();
        assert!(report.bytes_stored < report.bytes_received);
        let a = SdfReader::open(dir.join("node-0/archive-upto-000001.sdf")).unwrap();
        assert_eq!(a.read_f32("/iter-0/rank-0/v").unwrap(), vec![7.5; 512]);
        assert_eq!(a.read_f32("/iter-1/rank-0/v").unwrap(), vec![7.5; 512]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
