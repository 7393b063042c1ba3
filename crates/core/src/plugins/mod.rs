//! Built-in actions for the EPE (paper §III-C, §IV-D).
//!
//! | action name  | plugin                            | `using` parameter            |
//! |--------------|-----------------------------------|------------------------------|
//! | `persist`           | [`persist::PersistPlugin`]          | optional codec spec     |
//! | `stats`             | [`stats::StatsPlugin`]              | —                       |
//! | `schedule`          | [`schedule::SchedulePlugin`]        | `slot:count:window_ms`  |
//! | `visualize`         | [`visualize::VisualizePlugin`]      | —                       |
//! | `adaptive-compress` | [`adaptive::AdaptiveCompressPlugin`]| window in ms            |
//! | `archive`           | [`archive::ArchivePlugin`]          | `K` or `K:filter`       |
//! | `log`               | [`LogPlugin`]                       | —                       |

pub mod adaptive;
pub mod archive;
pub mod persist;
pub mod schedule;
pub mod stats;
pub mod visualize;

use crate::config::ActionBinding;
use crate::error::DamarisError;
use crate::plugin::{ActionContext, EventInfo, Plugin};

/// Resolves a built-in action name.
pub fn builtin(binding: &ActionBinding) -> Result<Box<dyn Plugin>, DamarisError> {
    match binding.action.as_str() {
        "archive" => Ok(Box::new(archive::ArchivePlugin::from_spec(
            binding.using.as_deref().unwrap_or("1"),
        )?)),
        "persist" => Ok(Box::new(persist::PersistPlugin::new(binding.using.clone()))),
        "stats" => Ok(Box::new(stats::StatsPlugin::new())),
        "schedule" => Ok(Box::new(schedule::SchedulePlugin::from_spec(
            binding.using.as_deref().unwrap_or(""),
        )?)),
        "visualize" => Ok(Box::new(visualize::VisualizePlugin::new())),
        "adaptive-compress" => Ok(Box::new(adaptive::AdaptiveCompressPlugin::from_spec(
            binding.using.as_deref().unwrap_or("1000"),
        )?)),
        "log" => Ok(Box::new(LogPlugin)),
        other => Err(DamarisError::Config(format!(
            "unknown action '{other}' (event '{}')",
            binding.event
        ))),
    }
}

/// Prints event occurrences to stderr — handy while wiring up a new
/// simulation.
pub struct LogPlugin;

impl Plugin for LogPlugin {
    fn name(&self) -> &str {
        "log"
    }

    fn handle(
        &mut self,
        ctx: &mut ActionContext<'_>,
        event: &EventInfo,
    ) -> Result<(), DamarisError> {
        eprintln!(
            "[damaris node {}] event '{}' it={} src={} ({} resident entries)",
            ctx.node_id,
            event.name,
            event.iteration,
            event.source,
            ctx.store.len()
        );
        Ok(())
    }
}
