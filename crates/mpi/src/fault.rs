//! Deterministic fault injection for the transport.
//!
//! A [`FaultPlan`] describes, ahead of time, which messages misbehave and
//! which ranks die — the substrate-level faults whose *symptoms* (silent
//! peers, stalled collectives) the Damaris layers above must convert into
//! typed errors instead of hangs. Message faults are keyed by the ordinal
//! of the message on its `(source, destination)` world-rank pair, so a
//! deterministic program hits exactly the planned message on every run;
//! rank kills are cooperative, honored when the victim calls
//! `Communicator::fail_point` at the start of an iteration (mirroring how
//! a real rank dies *between* application-visible steps, not mid-`memcpy`).
//!
//! Plans are only consulted by `World::run_with_faults`; `World::run`
//! carries an empty plan and pays a single branch per send.

use std::collections::HashMap;
use std::time::Duration;

/// What happens to one planned message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgFault {
    /// The message is silently lost.
    Drop,
    /// Delivery is delayed by the given duration (the sender blocks,
    /// modelling a congested eager channel).
    Delay(Duration),
    /// The message is delivered twice.
    Duplicate,
}

/// Where inside a Damaris client operation a planned client kill strikes.
///
/// A whole-rank [`FaultPlan::kill_rank`] dies *between* iterations; a
/// client kill dies *inside* the shared-memory write path, which is what
/// exercises the node's abandoned-resource reclamation and end-to-end
/// integrity checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClientKillPhase {
    /// Dies after reserving a shared-memory segment, before writing or
    /// notifying — the reservation is abandoned un-journaled.
    Alloc,
    /// Dies mid-`memcpy`: the segment holds a torn prefix and no
    /// notification names it — the post follows the copy — so, as after
    /// `Alloc`, the lease sweep reclaims it unread.
    Memcpy,
    /// Dies after a complete, valid write but before ending the iteration
    /// — the iteration stays open until the lease sweeper fences the rank.
    PostCommit,
}

impl ClientKillPhase {
    /// The phase's name, which [`FromStr`](std::str::FromStr) reads back.
    pub fn as_str(self) -> &'static str {
        match self {
            ClientKillPhase::Alloc => "alloc",
            ClientKillPhase::Memcpy => "memcpy",
            ClientKillPhase::PostCommit => "postcommit",
        }
    }
}

impl std::str::FromStr for ClientKillPhase {
    type Err = String;

    /// The one parser of a phase name — `cm1_proc --kill-phase`'s and the
    /// process node's environment's.
    fn from_str(s: &str) -> Result<ClientKillPhase, String> {
        match s {
            "alloc" => Ok(ClientKillPhase::Alloc),
            "memcpy" => Ok(ClientKillPhase::Memcpy),
            "postcommit" => Ok(ClientKillPhase::PostCommit),
            other => Err(format!("unknown client kill phase '{other}'")),
        }
    }
}

/// A deterministic schedule of transport faults.
///
/// Built with the chained constructors and handed to
/// `World::run_with_faults`:
///
/// ```
/// use damaris_mpi::FaultPlan;
/// let plan = FaultPlan::new()
///     .drop_nth(0, 1, 2)      // third message 0→1 vanishes
///     .kill_rank(2, 3);       // rank 2 dies at iteration 3
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Message faults keyed by `(world source, world dest, ordinal)`.
    messages: HashMap<(usize, usize, u64), MsgFault>,
    /// World ranks scheduled to die, with the iteration at which their
    /// `fail_point` call fires.
    kills: HashMap<usize, u32>,
    /// World ranks scheduled to die *inside* a Damaris client operation,
    /// honored by `Communicator::client_fail_point`.
    client_kills: HashMap<usize, (u32, ClientKillPhase)>,
}

impl FaultPlan {
    /// An empty plan: no faults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops the `nth` (0-based) message sent from world rank `src` to
    /// world rank `dst`. Note the ordinal counts *all* traffic on the
    /// pair, including collective-internal messages.
    pub fn drop_nth(mut self, src: usize, dst: usize, nth: u64) -> Self {
        self.messages.insert((src, dst, nth), MsgFault::Drop);
        self
    }

    /// Delays the `nth` message from `src` to `dst` by `delay`.
    pub fn delay_nth(mut self, src: usize, dst: usize, nth: u64, delay: Duration) -> Self {
        self.messages
            .insert((src, dst, nth), MsgFault::Delay(delay));
        self
    }

    /// Duplicates the `nth` message from `src` to `dst`.
    pub fn duplicate_nth(mut self, src: usize, dst: usize, nth: u64) -> Self {
        self.messages.insert((src, dst, nth), MsgFault::Duplicate);
        self
    }

    /// Schedules world rank `rank` to die at iteration `at_iteration`: its
    /// next `Communicator::fail_point(i)` call with `i >= at_iteration`
    /// returns `true` and marks the rank dead on the fabric.
    pub fn kill_rank(mut self, rank: usize, at_iteration: u32) -> Self {
        self.kills.insert(rank, at_iteration);
        self
    }

    /// Schedules world rank `rank` to die inside its Damaris client
    /// operation at iteration `at_iteration`, in the given phase: its next
    /// `Communicator::client_fail_point(i)` call with `i >= at_iteration`
    /// returns the phase and marks the rank dead on the fabric.
    pub fn kill_client_at(
        mut self,
        rank: usize,
        at_iteration: u32,
        phase: ClientKillPhase,
    ) -> Self {
        self.client_kills.insert(rank, (at_iteration, phase));
        self
    }

    /// The fault, if any, planned for this exact message.
    pub(crate) fn message_fault(&self, src: usize, dst: usize, ordinal: u64) -> Option<MsgFault> {
        self.messages.get(&(src, dst, ordinal)).copied()
    }

    /// The iteration at which `rank` is scheduled to die, if any.
    pub(crate) fn kill_at(&self, rank: usize) -> Option<u32> {
        self.kills.get(&rank).copied()
    }

    /// The client-kill schedule for `rank`, if any.
    pub(crate) fn client_kill_at(&self, rank: usize) -> Option<(u32, ClientKillPhase)> {
        self.client_kills.get(&rank).copied()
    }

    /// True when the plan injects nothing (the `World::run` fast path).
    pub(crate) fn is_empty(&self) -> bool {
        self.messages.is_empty() && self.kills.is_empty() && self.client_kills.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_injects_nothing() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        assert_eq!(plan.message_fault(0, 1, 0), None);
        assert_eq!(plan.kill_at(0), None);
    }

    #[test]
    fn message_faults_match_exact_ordinal_only() {
        let plan = FaultPlan::new()
            .drop_nth(0, 1, 2)
            .duplicate_nth(1, 0, 0)
            .delay_nth(2, 3, 5, Duration::from_millis(7));
        assert!(!plan.is_empty());
        assert_eq!(plan.message_fault(0, 1, 2), Some(MsgFault::Drop));
        assert_eq!(plan.message_fault(0, 1, 1), None);
        assert_eq!(plan.message_fault(1, 0, 0), Some(MsgFault::Duplicate));
        assert_eq!(
            plan.message_fault(2, 3, 5),
            Some(MsgFault::Delay(Duration::from_millis(7)))
        );
    }

    #[test]
    fn kill_schedule_is_per_rank() {
        let plan = FaultPlan::new().kill_rank(2, 3).kill_rank(0, 10);
        assert_eq!(plan.kill_at(2), Some(3));
        assert_eq!(plan.kill_at(0), Some(10));
        assert_eq!(plan.kill_at(1), None);
    }

    #[test]
    fn client_kill_schedule_carries_phase() {
        let plan = FaultPlan::new()
            .kill_client_at(1, 2, ClientKillPhase::Memcpy)
            .kill_client_at(3, 0, ClientKillPhase::Alloc);
        assert!(!plan.is_empty());
        assert_eq!(plan.client_kill_at(1), Some((2, ClientKillPhase::Memcpy)));
        assert_eq!(plan.client_kill_at(3), Some((0, ClientKillPhase::Alloc)));
        assert_eq!(plan.client_kill_at(0), None);
        // Independent of the whole-rank schedule.
        assert_eq!(plan.kill_at(1), None);
    }

    #[test]
    fn kill_phases_parse_back_from_their_names_and_nothing_else() {
        for phase in [
            ClientKillPhase::Alloc,
            ClientKillPhase::Memcpy,
            ClientKillPhase::PostCommit,
        ] {
            assert_eq!(phase.as_str().parse(), Ok(phase));
        }
        let misspelt = "memcopy".parse::<ClientKillPhase>().unwrap_err();
        assert!(misspelt.contains("'memcopy'"), "{misspelt}");
    }
}
