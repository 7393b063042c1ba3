//! Adaptive compression (paper §IV-D): "A potential optimization would be
//! to enable or disable compression at run time depending on the need to
//! reduce write time or storage space."
//!
//! [`AdaptiveCompressPlugin`] wraps the persistency layer and chooses per
//! iteration: if the previous persist (compression, write, and whatever
//! commit ran since) finished well within the spare-time budget, it keeps
//! (or enables) compression; if persisting starts to eat into the budget,
//! it drops to a cheaper pipeline or to raw writes. The budget is the
//! estimated compute window between write phases, the same quantity the
//! slot scheduler uses.

use crate::error::DamarisError;
use crate::plugin::{ActionContext, EventInfo, Plugin};
use crate::plugins::persist::PersistPlugin;
use std::time::{Duration, Instant};

/// Compression pipelines in decreasing cost/benefit order; the plugin
/// walks down this ladder under time pressure and back up when relaxed.
const LADDER: [&str; 3] = ["precision16|lzss|huff", "lzss|huff", ""];

/// Fraction of the window a persist may take before we back off.
const HIGH_WATER: f64 = 0.5;
/// Fraction under which we try the next stronger pipeline again.
const LOW_WATER: f64 = 0.2;

/// Persistency with runtime-adaptive compression.
pub struct AdaptiveCompressPlugin {
    /// Estimated compute window between write phases.
    window: Duration,
    /// Current rung on [`LADDER`] (0 = strongest).
    rung: usize,
    /// The wrapped persistency layer; its pipeline is set per iteration.
    persist: PersistPlugin,
    /// Time spent persisting since the last decision.
    spent: Duration,
    /// Decisions taken, for reports/tests: (iteration, pipeline).
    pub history: Vec<(u32, &'static str)>,
}

impl AdaptiveCompressPlugin {
    /// `window`: estimated compute time between write phases (the paper's
    /// dedicated cores estimate it from the first iteration).
    pub fn new(window: Duration) -> Self {
        AdaptiveCompressPlugin {
            window,
            rung: 0,
            persist: PersistPlugin::new(None),
            spent: Duration::ZERO,
            history: Vec::new(),
        }
    }

    /// Parses the `using` spec: the window in milliseconds.
    pub fn from_spec(spec: &str) -> Result<Self, DamarisError> {
        let ms: u64 = spec.trim().parse().map_err(|_| {
            DamarisError::Config(format!(
                "adaptive-compress: 'using' must be the window in ms, got '{spec}'"
            ))
        })?;
        Ok(Self::new(Duration::from_millis(ms)))
    }

    /// The pipeline currently in use (`""` = no compression).
    pub fn current_pipeline(&self) -> &'static str {
        LADDER[self.rung]
    }
}

impl Plugin for AdaptiveCompressPlugin {
    fn name(&self) -> &str {
        "adaptive-compress"
    }

    fn handle(
        &mut self,
        ctx: &mut ActionContext<'_>,
        event: &EventInfo,
    ) -> Result<(), DamarisError> {
        // Decide on what the previous iteration cost, its share of any
        // commit included (commits run when the rings go quiet).
        let share = self.spent.as_secs_f64() / self.window.as_secs_f64().max(1e-9);
        self.spent = Duration::ZERO;
        if share > HIGH_WATER && self.rung + 1 < LADDER.len() {
            self.rung += 1; // too slow: cheaper pipeline this time
        } else if share < LOW_WATER && self.rung > 0 {
            self.rung -= 1; // plenty of slack: compress harder
        }
        let spec = LADDER[self.rung];
        self.history.push((event.iteration, spec));
        self.persist.set_filter(Some(spec.to_string()));
        let t0 = Instant::now();
        let outcome = self.persist.handle(ctx, event);
        self.spent += t0.elapsed();
        outcome
    }

    fn quiet(&mut self, ctx: &mut ActionContext<'_>) -> Result<(), DamarisError> {
        let t0 = Instant::now();
        let outcome = self.persist.quiet(ctx);
        self.spent += t0.elapsed();
        outcome
    }

    fn finalize(&mut self, ctx: &mut ActionContext<'_>) -> Result<(), DamarisError> {
        self.persist.finalize(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::node::NodeRuntime;
    use crate::plugin::PluginFactory;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch(tag: &str) -> std::path::PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("damaris-adapt-{tag}-{}-{n}", std::process::id()))
    }

    #[test]
    fn spec_parsing() {
        assert!(AdaptiveCompressPlugin::from_spec("250").is_ok());
        assert!(AdaptiveCompressPlugin::from_spec("abc").is_err());
        let p = AdaptiveCompressPlugin::from_spec("1000").unwrap();
        assert_eq!(p.current_pipeline(), "precision16|lzss|huff");
    }

    #[test]
    fn tight_window_backs_off_compression() {
        // A 1 ms window with megabytes to compress: the plugin must step
        // down the ladder within a few iterations.
        let cfg = Config::from_xml(
            r#"<damaris>
                 <buffer size="33554432"/>
                 <layout name="grid" type="real" dimensions="262144"/>
                 <variable name="field" layout="grid"/>
                 <event name="end_of_iteration" action="adaptive-compress" using="1"/>
               </damaris>"#,
        )
        .unwrap();
        let dir = scratch("tight");
        let runtime = NodeRuntime::start(cfg, 1, &dir).unwrap();
        let client = &runtime.clients()[0];
        let data: Vec<f32> = (0..262_144).map(|i| (i % 97) as f32).collect();
        for it in 0..4u32 {
            client.write_f32("field", it, &data).unwrap();
            client.end_iteration(it).unwrap();
        }
        let report = runtime.finish().unwrap();
        assert_eq!(report.iterations_persisted, 4);
        // With no slack, later iterations must be stored raw: stored bytes
        // ≥ one full uncompressed iteration.
        assert!(report.bytes_stored >= 262_144 * 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn generous_window_keeps_compressing() {
        let cfg = Config::from_xml(
            r#"<damaris>
                 <buffer size="8388608"/>
                 <layout name="grid" type="real" dimensions="4096"/>
                 <variable name="field" layout="grid"/>
                 <event name="end_of_iteration" action="adaptive-compress" using="60000"/>
               </damaris>"#,
        )
        .unwrap();
        let dir = scratch("slack");
        let runtime = NodeRuntime::start(cfg, 1, &dir).unwrap();
        let client = &runtime.clients()[0];
        for it in 0..3u32 {
            client.write_f32("field", it, &vec![1.25; 4096]).unwrap();
            client.end_iteration(it).unwrap();
        }
        let report = runtime.finish().unwrap();
        // Constant data through the strongest pipeline: tiny on disk.
        assert!(
            report.bytes_stored < report.bytes_received / 4,
            "stored {} of {}",
            report.bytes_stored,
            report.bytes_received
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ladder_moves_both_ways() {
        // Drive the controller directly through a custom factory run is
        // overkill; unit-test the hysteresis logic via durations.
        let mut p = AdaptiveCompressPlugin::new(Duration::from_millis(100));
        assert_eq!(p.rung, 0);
        // Simulate: share > HIGH_WATER twice → down two rungs.
        p.rung = 0;
        for _ in 0..2 {
            let share = 0.9;
            if share > HIGH_WATER && p.rung + 1 < LADDER.len() {
                p.rung += 1;
            }
        }
        assert_eq!(p.current_pipeline(), "");
        // Relaxed: back up.
        let share = 0.1;
        if share < LOW_WATER && p.rung > 0 {
            p.rung -= 1;
        }
        assert_eq!(p.current_pipeline(), "lzss|huff");
    }

    #[test]
    fn usable_as_custom_factory() {
        let cfg = Config::from_xml(
            r#"<damaris>
                 <buffer size="1048576"/>
                 <layout name="grid" type="real" dimensions="256"/>
                 <variable name="v" layout="grid"/>
                 <event name="end_of_iteration" action="my-adaptive" using="5000"/>
               </damaris>"#,
        )
        .unwrap();
        let dir = scratch("factory");
        let factory: PluginFactory = Box::new(|binding| {
            Ok(Box::new(AdaptiveCompressPlugin::from_spec(
                binding.using.as_deref().unwrap_or("1000"),
            )?) as Box<dyn Plugin>)
        });
        let runtime =
            NodeRuntime::start_with(cfg, 1, &dir, 0, vec![("my-adaptive".into(), factory)])
                .unwrap();
        let client = &runtime.clients()[0];
        client.write_f32("v", 0, &[2.0; 256]).unwrap();
        client.end_iteration(0).unwrap();
        let report = runtime.finish().unwrap();
        assert_eq!(report.iterations_persisted, 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
