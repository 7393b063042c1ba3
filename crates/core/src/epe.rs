//! The Event Processing Engine (paper §III-B).
//!
//! Takes events from the clients' notice rings (that part lives in
//! [`crate::server`]) and dispatches them to plugins according to the
//! event→action bindings of the configuration file. Multiple actions may
//! bind to one event; they run in declaration order.
//!
//! # Plugin isolation
//!
//! Every dispatch runs under `catch_unwind`: a panicking plugin cannot
//! take down the dedicated core (which would deadlock clients blocked on
//! a full buffer). What happens *after* the failure is governed by
//! `<resilience plugin_quarantine="K">`:
//!
//! * `K = 0` (default) — fail fast: the first failure (error return or
//!   panic) propagates and aborts the run, as before.
//! * `K > 0` — degrade: failures are counted per binding; after `K`
//!   *consecutive* failures the plugin is quarantined (skipped, with a
//!   logged reason) and the EPE keeps serving every other binding. One
//!   success resets the streak.

use crate::config::Config;
use crate::error::DamarisError;
use crate::node::FaultStats;
use crate::plugin::{ActionContext, EventInfo, Plugin, PluginFactory};
use crate::plugins;
use damaris_obs::EventKind;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The implicit event fired when every client of the node has ended an
/// iteration. Binding an action to it in the configuration overrides the
/// default persistence behaviour.
pub const END_OF_ITERATION: &str = "end_of_iteration";

struct Binding {
    event: String,
    plugin: Box<dyn Plugin>,
    consecutive_failures: u32,
    /// `Some(reason)` once the plugin is disabled.
    quarantined: Option<String>,
}

/// Event name → ordered plugin instances.
pub struct EventProcessingEngine {
    bindings: Vec<Binding>,
}

impl EventProcessingEngine {
    /// Instantiates plugins for every configured binding. `extra` factories
    /// (action name → factory) take precedence over built-ins — the paper's
    /// "plugin provided by the user". Borrowed (not consumed) so the node
    /// supervisor can rebuild a fresh engine from the same factories after
    /// a dedicated-core crash.
    pub fn build(config: &Config, extra: &[(String, PluginFactory)]) -> Result<Self, DamarisError> {
        let extra: HashMap<&str, &PluginFactory> =
            extra.iter().map(|(n, f)| (n.as_str(), f)).collect();
        let mut bindings = Vec::new();
        for action in &config.actions {
            let plugin: Box<dyn Plugin> = if let Some(factory) = extra.get(action.action.as_str()) {
                factory(action)?
            } else {
                plugins::builtin(action)?
            };
            bindings.push(Binding {
                event: action.event.clone(),
                plugin,
                consecutive_failures: 0,
                quarantined: None,
            });
        }
        // Default behaviour: persist every completed iteration unless the
        // configuration bound something else to end_of_iteration.
        if !bindings.iter().any(|b| b.event == END_OF_ITERATION) {
            bindings.push(Binding {
                event: END_OF_ITERATION.to_string(),
                plugin: Box::new(plugins::persist::PersistPlugin::new(None)),
                consecutive_failures: 0,
                quarantined: None,
            });
        }
        Ok(EventProcessingEngine { bindings })
    }

    /// Dispatches one event to every bound plugin, in order. Quarantined
    /// plugins are skipped; see the module docs for failure handling.
    pub fn fire(
        &mut self,
        ctx: &mut ActionContext<'_>,
        event: &EventInfo,
    ) -> Result<(), DamarisError> {
        let threshold = ctx.config.resilience.plugin_quarantine;
        for i in 0..self.bindings.len() {
            if self.bindings[i].event != event.name || self.bindings[i].quarantined.is_some() {
                continue;
            }
            let t = ctx.rec.begin();
            let outcome = {
                let b = &mut self.bindings[i];
                catch_unwind(AssertUnwindSafe(|| b.plugin.handle(ctx, event)))
            };
            ctx.rec.end(EventKind::PluginRun, event.iteration, 0, t);
            self.settle(i, outcome, ctx, threshold)?;
        }
        Ok(())
    }

    /// Shutdown pass: lets every plugin flush its state (in binding order).
    /// Quarantined plugins stay disabled; failures here follow the same
    /// fail-fast/degrade policy as [`EventProcessingEngine::fire`].
    pub fn finalize_all(&mut self, ctx: &mut ActionContext<'_>) -> Result<(), DamarisError> {
        self.each_plugin(ctx, |plugin, ctx| plugin.finalize(ctx))
    }

    /// The rings went quiet with work parked: lets every plugin finish
    /// what it deferred ([`Plugin::quiet`]), under the same rules. Each
    /// call is a `PluginRun` span tagged with `iteration`, the last fired.
    pub(crate) fn quiet_all(
        &mut self,
        ctx: &mut ActionContext<'_>,
        iteration: u32,
    ) -> Result<(), DamarisError> {
        self.each_plugin(ctx, |plugin, ctx| {
            let t = ctx.rec.begin();
            let outcome = plugin.quiet(ctx);
            ctx.rec.end(EventKind::PluginRun, iteration, 0, t);
            outcome
        })
    }

    /// Runs `call` on every plugin not quarantined, in binding order.
    fn each_plugin(
        &mut self,
        ctx: &mut ActionContext<'_>,
        call: impl Fn(&mut dyn Plugin, &mut ActionContext<'_>) -> Result<(), DamarisError>,
    ) -> Result<(), DamarisError> {
        let threshold = ctx.config.resilience.plugin_quarantine;
        for i in 0..self.bindings.len() {
            if self.bindings[i].quarantined.is_some() {
                continue;
            }
            let outcome = {
                let b = &mut self.bindings[i];
                catch_unwind(AssertUnwindSafe(|| call(b.plugin.as_mut(), ctx)))
            };
            self.settle(i, outcome, ctx, threshold)?;
        }
        Ok(())
    }

    /// Applies the failure policy to one dispatch outcome.
    fn settle(
        &mut self,
        i: usize,
        outcome: std::thread::Result<Result<(), DamarisError>>,
        ctx: &ActionContext<'_>,
        threshold: u32,
    ) -> Result<(), DamarisError> {
        let b = &mut self.bindings[i];
        let error = match outcome {
            Ok(Ok(())) => {
                b.consecutive_failures = 0;
                return Ok(());
            }
            Ok(Err(e)) => e,
            Err(panic) => DamarisError::Plugin {
                plugin: b.plugin.name().to_string(),
                // as_ref() so we downcast the payload, not the Box itself.
                message: format!("panicked: {}", panic_message(panic.as_ref())),
            },
        };
        FaultStats::bump(&ctx.stats.plugin_failures);
        if threshold == 0 {
            return Err(error);
        }
        b.consecutive_failures += 1;
        if b.consecutive_failures >= threshold {
            eprintln!(
                "[damaris node {}] plugin '{}' quarantined after {} consecutive \
                 failure(s), last: {error}",
                ctx.node_id,
                b.plugin.name(),
                b.consecutive_failures
            );
            b.quarantined = Some(error.to_string());
            FaultStats::bump(&ctx.stats.plugins_quarantined);
        } else {
            eprintln!(
                "[damaris node {}] plugin '{}' failed ({}/{threshold} before \
                 quarantine): {error}",
                ctx.node_id,
                b.plugin.name(),
                b.consecutive_failures
            );
        }
        Ok(())
    }

    /// Quarantined plugins as `(name, reason)` pairs.
    pub fn quarantined(&self) -> Vec<(String, String)> {
        self.bindings
            .iter()
            .filter_map(|b| {
                b.quarantined
                    .as_ref()
                    .map(|reason| (b.plugin.name().to_string(), reason.clone()))
            })
            .collect()
    }

    /// Number of instantiated bindings.
    pub fn len(&self) -> usize {
        self.bindings.len()
    }

    /// Always has at least the default persistence binding.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Extracts the payload of a caught panic, when it is a string.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ActionBinding;

    #[test]
    fn default_persist_added() {
        let c = Config::from_xml("<damaris/>").unwrap();
        let epe = EventProcessingEngine::build(&c, &[]).unwrap();
        assert_eq!(epe.len(), 1);
    }

    #[test]
    fn explicit_end_of_iteration_overrides_default() {
        let c = Config::from_xml(
            r#"<damaris><event name="end_of_iteration" action="persist" using="lzss"/></damaris>"#,
        )
        .unwrap();
        let epe = EventProcessingEngine::build(&c, &[]).unwrap();
        assert_eq!(epe.len(), 1);
    }

    #[test]
    fn unknown_action_rejected() {
        let c =
            Config::from_xml(r#"<damaris><event name="e" action="launch_missiles"/></damaris>"#)
                .unwrap();
        assert!(EventProcessingEngine::build(&c, &[]).is_err());
    }

    #[test]
    fn extra_factory_takes_precedence() {
        struct Nop;
        impl Plugin for Nop {
            fn name(&self) -> &str {
                "nop"
            }
            fn handle(
                &mut self,
                _ctx: &mut ActionContext<'_>,
                _event: &EventInfo,
            ) -> Result<(), DamarisError> {
                Ok(())
            }
        }
        let c =
            Config::from_xml(r#"<damaris><event name="e" action="persist"/></damaris>"#).unwrap();
        let factory: PluginFactory =
            Box::new(|_b: &ActionBinding| Ok(Box::new(Nop) as Box<dyn Plugin>));
        let epe = EventProcessingEngine::build(&c, &[("persist".to_string(), factory)]).unwrap();
        // One explicit binding + the default end_of_iteration persist.
        assert_eq!(epe.len(), 2);
    }
}
