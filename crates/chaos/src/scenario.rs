//! Seeded scenario generation: randomized-but-reproducible compositions
//! of the repo's existing fault injectors, plus the *model* of what a
//! correct node must do under them.
//!
//! A [`Scenario`] is generated from a single `u64` seed and nothing else.
//! Generation simulates the run as it builds the fault timeline, so every
//! scenario carries an exact [`Expectation`]: which iterations land on
//! disk, which are shed, how many persist retries fire, how many pressure
//! transitions the state machine takes. The runner then asserts the live
//! node matches the model **to the digit** — a chaos run is not "did it
//! crash?" but "did every counter land exactly where the plan says?".

use crate::rng::ChaosRng;

/// What the node does with ready iterations while the disk is full
/// (mirrors `<resilience on_disk_full=…>`; the scenario picks one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFullPolicy {
    /// Hold ready iterations resident until space returns.
    Block,
    /// Discard them whole.
    DropIteration,
    /// Fire them; persist fails fast on the permanent error.
    Partial,
}

impl DiskFullPolicy {
    /// The XML attribute value for `<resilience on_disk_full=…>`.
    pub fn as_xml(self) -> &'static str {
        match self {
            DiskFullPolicy::Block => "block",
            DiskFullPolicy::DropIteration => "drop-iteration",
            DiskFullPolicy::Partial => "partial",
        }
    }
}

/// One fault injection, applied *before* driving `iteration`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Action {
    pub iteration: u32,
    pub kind: ActionKind,
}

/// The composable injections, each mapping to an existing injector:
/// sentinel quota squeezes ([`damaris_fs::FaultyBackend::squeeze_no_space`]),
/// brownouts, scripted commit faults (`FaultPlan`), and client death
/// (lease expiry under the virtual clock).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ActionKind {
    /// Squeeze the disk quota to current usage: every later write hits
    /// `ENOSPC` until [`ActionKind::LiftQuota`].
    SqueezeQuota,
    /// Restore the pre-squeeze quota; the node must re-ascend to Normal.
    LiftQuota,
    /// Start a sustained commit slowdown.
    StartBrownout { factor: u32 },
    /// End it.
    LiftBrownout,
    /// The iteration's first commit attempt fails once with a transient
    /// error; the retry must succeed. `commit_ordinal` is the global
    /// 0-based commit count the model predicts for that attempt.
    TransientCommit { commit_ordinal: u64 },
    /// The iteration's commit stalls `ms` (on the virtual clock) first.
    StallCommit { commit_ordinal: u64, ms: u64 },
    /// Rank `rank` goes silent; the lease sweeper must fence it before
    /// the iteration is driven.
    KillClient { rank: u32 },
}

/// The modeled fate of one driven iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IterationOutcome {
    /// Fires and lands on disk (possibly after a scripted retry).
    Persisted,
    /// Discarded whole by the `drop-iteration` policy while read-only.
    Shed,
    /// Fires under `partial`; persist fails fast on `ENOSPC`.
    FailFast,
    /// Held resident by `block` while read-only; fires at the next
    /// [`ActionKind::LiftQuota`].
    HeldUntilLift,
}

/// Exact end-of-run targets derived while generating the timeline. Every
/// field maps 1:1 to a `NodeReport` counter or an injector count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Expectation {
    /// Iterations that fire (`iterations_persisted` counts firings, so
    /// `FailFast` iterations are included even though their bytes never
    /// reach disk).
    pub fired: u64,
    /// Files on disk at the end (`files_created`).
    pub files: u64,
    /// `iterations_degraded`: shed + fail-fast.
    pub degraded: u64,
    /// `storage_pressure_sheds`: disk-full-caused discards.
    pub sheds: u64,
    /// `persist_retries`: one per scripted transient commit fault.
    pub persist_retries: u64,
    /// `storage_pressure_degraded`: 2 per squeeze/lift episode
    /// (Normal→Degraded on the way down, ReadOnly→Degraded on the way up).
    pub pressure_degraded: u64,
    /// `storage_pressure_readonly`: 1 per episode.
    pub pressure_readonly: u64,
    /// `storage_pressure_recovered`: 1 per episode.
    pub pressure_recovered: u64,
    /// `client_leases_expired`.
    pub leases_expired: u64,
    /// `partial_iterations`: firings after the fence.
    pub partial_iterations: u64,
    /// Injector-side: transient errors the backend reports injecting.
    pub transient_errors: u64,
    /// Injector-side: stalls injected.
    pub stalls: u64,
    /// Injector-side: quota squeezes activated.
    pub squeezes: u64,
    /// Injector-side: brownouts activated.
    pub brownouts: u64,
}

/// A fully determined chaos scenario: the shape of the node, the fault
/// timeline, the modeled fate of every iteration, and the exact counter
/// targets. Everything derives from `seed`.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub seed: u64,
    /// Compute ranks sharing the node (3 or 4 — a kill must leave ≥ 2
    /// survivors renewing leases).
    pub clients: u32,
    /// Total iterations driven, drain included.
    pub iterations: u32,
    pub policy: DiskFullPolicy,
    /// Injections, sorted by `iteration` in application order.
    pub actions: Vec<Action>,
    /// `outcomes[i]` is the modeled fate of iteration `i`.
    pub outcomes: Vec<IterationOutcome>,
    /// `Some((rank, iteration))` if a rank is killed before `iteration`.
    pub kill: Option<(u32, u32)>,
    pub expect: Expectation,
}

impl Scenario {
    /// Builds the scenario for `seed`. The first fault episode is always
    /// a quota squeeze/lift cycle — storage pressure is the harness's
    /// reason to exist — followed by 1–2 further episodes drawn from the
    /// whole injector set, separated by clean iterations, and closed by a
    /// two-iteration fault-free drain that proves convergence.
    pub fn generate(seed: u64) -> Scenario {
        let mut rng = ChaosRng::new(seed);
        let clients = rng.range(3, 4) as u32;
        let policy = *rng.pick(&[
            DiskFullPolicy::Block,
            DiskFullPolicy::DropIteration,
            DiskFullPolicy::Partial,
        ]);

        let mut gen = Gen {
            rng,
            policy,
            clients,
            actions: Vec::new(),
            outcomes: Vec::new(),
            kill: None,
            expect: Expectation::default(),
            commits: 0,
            held: 0,
        };

        // Iteration 0 is always clean: it seeds the manifest so the query
        // tier has a key that must stay answerable through every fault.
        gen.clean();

        let episodes = gen.rng.range(2, 3);
        for e in 0..episodes {
            for _ in 0..gen.rng.below(2) {
                gen.clean();
            }
            if e == 0 {
                gen.pressure_episode();
            } else {
                match gen.rng.below(4) {
                    0 => gen.pressure_episode(),
                    1 => gen.brownout_episode(),
                    2 => gen.scripted_commit_fault(),
                    _ => gen.kill_episode(),
                }
            }
        }

        // Drain: the node must be fault-free and converged at the end.
        gen.clean();
        gen.clean();
        gen.finish(seed)
    }

    /// Machine-readable description (seed, shape, timeline, expectation)
    /// — what the sweep binary archives for a failing seed.
    pub fn describe(&self) -> serde_json::Value {
        let actions: Vec<serde_json::Value> = self
            .actions
            .iter()
            .map(|a| {
                serde_json::json!({
                    "iteration": a.iteration,
                    "kind": format!("{:?}", a.kind),
                })
            })
            .collect();
        let outcomes: Vec<serde_json::Value> = self
            .outcomes
            .iter()
            .map(|o| serde_json::json!(format!("{o:?}")))
            .collect();
        serde_json::json!({
            "seed": self.seed,
            "clients": self.clients,
            "iterations": self.iterations,
            "on_disk_full": self.policy.as_xml(),
            "actions": actions,
            "outcomes": outcomes,
            "expect": format!("{:?}", self.expect),
        })
    }
}

/// Generation state: the timeline being laid down plus the simulated
/// counters that make ordinals and expectations exact.
struct Gen {
    rng: ChaosRng,
    policy: DiskFullPolicy,
    clients: u32,
    actions: Vec<Action>,
    outcomes: Vec<IterationOutcome>,
    kill: Option<(u32, u32)>,
    expect: Expectation,
    /// Commits consumed so far in the model — the ordinal space scripted
    /// `FaultPlan` rules key on. One per landed file, +1 per retried
    /// transient fault; shed/fail-fast iterations consume none (`begin`
    /// refuses before any commit happens).
    commits: u64,
    /// Block-policy iterations currently held, to be flushed (in order)
    /// by the next quota lift.
    held: u64,
}

impl Gen {
    fn next_iteration(&self) -> u32 {
        self.outcomes.len() as u32
    }

    /// A clean iteration: fires, one commit, lands on disk.
    fn clean(&mut self) {
        self.outcomes.push(IterationOutcome::Persisted);
        self.commits += 1;
    }

    /// Squeeze the quota to zero slack, run 1–2 iterations against the
    /// full disk (fate decided by the policy), lift, and model the
    /// four pressure transitions of the episode.
    fn pressure_episode(&mut self) {
        self.actions.push(Action {
            iteration: self.next_iteration(),
            kind: ActionKind::SqueezeQuota,
        });
        self.expect.squeezes += 1;
        self.expect.pressure_degraded += 2;
        self.expect.pressure_readonly += 1;
        self.expect.pressure_recovered += 1;
        for _ in 0..self.rng.range(1, 2) {
            match self.policy {
                DiskFullPolicy::Block => {
                    self.outcomes.push(IterationOutcome::HeldUntilLift);
                    self.held += 1;
                }
                DiskFullPolicy::DropIteration => {
                    self.outcomes.push(IterationOutcome::Shed);
                }
                DiskFullPolicy::Partial => {
                    self.outcomes.push(IterationOutcome::FailFast);
                }
            }
        }
        self.actions.push(Action {
            iteration: self.next_iteration(),
            kind: ActionKind::LiftQuota,
        });
        // Held iterations flush at the lift, consuming their commits then.
        self.commits += self.held;
        self.held = 0;
    }

    /// A sustained commit slowdown across 1–2 iterations. Commits still
    /// land — a brownout is jitter, not loss — so the fate model is the
    /// clean one.
    fn brownout_episode(&mut self) {
        let factor = self.rng.range(2, 4) as u32;
        self.actions.push(Action {
            iteration: self.next_iteration(),
            kind: ActionKind::StartBrownout { factor },
        });
        self.expect.brownouts += 1;
        for _ in 0..self.rng.range(1, 2) {
            self.clean();
        }
        self.actions.push(Action {
            iteration: self.next_iteration(),
            kind: ActionKind::LiftBrownout,
        });
    }

    /// One scripted commit fault on the next iteration: a transient
    /// failure (retried: two commit ordinals, one retry counted) or a
    /// stall (one ordinal, no retry).
    fn scripted_commit_fault(&mut self) {
        let it = self.next_iteration();
        if self.rng.chance(1, 2) {
            self.actions.push(Action {
                iteration: it,
                kind: ActionKind::TransientCommit {
                    commit_ordinal: self.commits,
                },
            });
            self.expect.transient_errors += 1;
            self.expect.persist_retries += 1;
            self.outcomes.push(IterationOutcome::Persisted);
            self.commits += 2;
        } else {
            self.actions.push(Action {
                iteration: it,
                kind: ActionKind::StallCommit {
                    commit_ordinal: self.commits,
                    ms: self.rng.range(10, 50),
                },
            });
            self.expect.stalls += 1;
            self.clean();
        }
    }

    /// Kill one rank (never rank 0, at most once per scenario): it goes
    /// silent before the next iteration; every later firing is partial.
    fn kill_episode(&mut self) {
        if self.kill.is_some() {
            // Already one dead rank; a second would leave too few
            // survivors. Run a clean iteration instead.
            self.clean();
            return;
        }
        let it = self.next_iteration();
        let rank = self.rng.range(1, u64::from(self.clients) - 1) as u32;
        self.actions.push(Action {
            iteration: it,
            kind: ActionKind::KillClient { rank },
        });
        self.kill = Some((rank, it));
        self.expect.leases_expired += 1;
        self.clean();
    }

    /// Totals the expectation from the outcome timeline and seals the
    /// scenario.
    fn finish(mut self, seed: u64) -> Scenario {
        debug_assert_eq!(self.held, 0, "every squeeze must be lifted");
        let kill_it = self.kill.map(|(_, it)| it);
        for (i, outcome) in self.outcomes.iter().enumerate() {
            let fires = !matches!(outcome, IterationOutcome::Shed);
            let lands = matches!(
                outcome,
                IterationOutcome::Persisted | IterationOutcome::HeldUntilLift
            );
            if fires {
                self.expect.fired += 1;
                if kill_it.is_some_and(|k| i as u32 >= k) {
                    self.expect.partial_iterations += 1;
                }
            }
            if lands {
                self.expect.files += 1;
            }
            match outcome {
                IterationOutcome::Shed | IterationOutcome::FailFast => {
                    self.expect.degraded += 1;
                    self.expect.sheds += 1;
                }
                _ => {}
            }
        }
        Scenario {
            seed,
            clients: self.clients,
            iterations: self.outcomes.len() as u32,
            policy: self.policy,
            actions: self.actions,
            outcomes: self.outcomes,
            kill: self.kill,
            expect: self.expect,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in [0u64, 1, 42, u64::MAX, 0xDEAD_BEEF] {
            let a = Scenario::generate(seed);
            let b = Scenario::generate(seed);
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "seed {seed}");
        }
    }

    #[test]
    fn every_scenario_is_well_formed() {
        for seed in 0..200u64 {
            let s = Scenario::generate(seed);
            assert!(s.clients >= 3, "seed {seed}");
            assert!(s.iterations as usize == s.outcomes.len(), "seed {seed}");
            assert_eq!(
                s.outcomes[0],
                IterationOutcome::Persisted,
                "seed {seed}: iteration 0 must seed the manifest"
            );
            // The drain is fault-free and converged.
            let last = s.iterations - 1;
            assert_eq!(s.outcomes[last as usize], IterationOutcome::Persisted);
            assert!(
                s.actions.iter().all(|a| a.iteration <= last),
                "seed {seed}: action past the drain"
            );
            // Squeezes and lifts pair up in order.
            let mut depth = 0i32;
            for a in &s.actions {
                match a.kind {
                    ActionKind::SqueezeQuota => depth += 1,
                    ActionKind::LiftQuota => depth -= 1,
                    _ => {}
                }
                assert!((0..=1).contains(&depth), "seed {seed}");
            }
            assert_eq!(depth, 0, "seed {seed}: unlifted squeeze");
            // At least one pressure episode, always.
            assert!(s.expect.squeezes >= 1, "seed {seed}");
            // The books balance: every iteration fires or is shed, and
            // firing iterations either land on disk or fail fast.
            let fail_fast = s.expect.fired - s.expect.files;
            assert_eq!(s.expect.degraded, s.expect.sheds, "seed {seed}");
            assert!(s.expect.sheds >= fail_fast, "seed {seed}");
            assert_eq!(
                s.expect.fired as usize
                    + s.outcomes
                        .iter()
                        .filter(|o| matches!(o, IterationOutcome::Shed))
                        .count(),
                s.outcomes.len(),
                "seed {seed}"
            );
            // A kill never targets rank 0 and leaves ≥ 2 survivors.
            if let Some((rank, _)) = s.kill {
                assert!(rank >= 1 && rank < s.clients, "seed {seed}");
                assert!(s.clients > 2, "seed {seed}");
            }
        }
    }

    #[test]
    fn seeds_explore_every_policy_and_injector() {
        let mut policies = std::collections::BTreeSet::new();
        let mut kinds = std::collections::BTreeSet::new();
        for seed in 0..300u64 {
            let s = Scenario::generate(seed);
            policies.insert(s.policy.as_xml());
            for a in &s.actions {
                kinds.insert(match a.kind {
                    ActionKind::SqueezeQuota => "squeeze",
                    ActionKind::LiftQuota => "lift",
                    ActionKind::StartBrownout { .. } => "brownout",
                    ActionKind::LiftBrownout => "lift-brownout",
                    ActionKind::TransientCommit { .. } => "transient",
                    ActionKind::StallCommit { .. } => "stall",
                    ActionKind::KillClient { .. } => "kill",
                });
            }
        }
        assert_eq!(policies.len(), 3, "{policies:?}");
        assert_eq!(kinds.len(), 7, "{kinds:?}");
    }
}
