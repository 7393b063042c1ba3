//! Communicators: rank identity, point-to-point matching, splitting.

use crate::datatypes::Message;
use crate::fault::MsgFault;
use crate::transport::{Envelope, Fabric};
use bytes::Bytes;
use crossbeam::channel::{Receiver, RecvTimeoutError};
use damaris_obs::{EventKind, Recorder};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wildcard source for [`Communicator::recv`].
pub const ANY_SOURCE: usize = usize::MAX;
/// Wildcard tag for [`Communicator::recv`].
pub const ANY_TAG: u32 = u32::MAX;

/// Default for how long a blocking receive waits before reporting a likely
/// deadlock. Override per-communicator with
/// [`Communicator::set_recv_timeout`] — failure-detection tests shrink it
/// so a dead peer surfaces in milliseconds, not minutes.
const RECV_TIMEOUT: Duration = Duration::from_secs(120);

/// How often a blocked receive wakes to re-check peer liveness and its
/// deadline. Arrivals still wake the receiver immediately; this bounds
/// only the detection latency for a peer that dies while we wait.
const LIVENESS_POLL: Duration = Duration::from_millis(5);

/// Receive failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecvError {
    /// No matching message arrived within the deadlock-detection window.
    Timeout,
    /// The awaited peer (identified by its local rank within this
    /// communicator) is dead — killed by fault injection — and its
    /// in-flight messages have been drained; nothing more can arrive.
    PeerFailed {
        /// Local rank of the dead peer within this communicator.
        rank: usize,
    },
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Timeout => {
                write!(f, "receive timed out (likely deadlock or silent peer)")
            }
            RecvError::PeerFailed { rank } => {
                write!(f, "peer rank {rank} failed; no further messages can arrive")
            }
        }
    }
}

impl std::error::Error for RecvError {}

/// A group of ranks that can exchange messages, in the MPI sense.
///
/// Not `Sync`: each rank's communicator lives on that rank's thread, as in
/// MPI. (`Send` is irrelevant since `World::run` pins it.)
pub struct Communicator {
    /// Local rank within this communicator.
    rank: usize,
    /// Map from local rank to world rank.
    group: Arc<Vec<usize>>,
    /// Context id segregating traffic of different communicators.
    context: u64,
    fabric: Arc<Fabric>,
    /// This world rank's inbox (shared across communicators of this rank).
    inbox: Arc<Receiver<Envelope>>,
    /// Messages received but not yet matched (per-thread).
    pending: RefCell<VecDeque<Envelope>>,
    /// Collective sequence number: all members advance it identically, so
    /// back-to-back collectives never cross-match.
    coll_seq: Cell<u32>,
    /// Split counter for deterministic child context ids.
    split_seq: Cell<u32>,
    /// Deadlock-detection window for blocking receives; inherited by
    /// [`Communicator::split`] children.
    recv_timeout: Cell<Duration>,
    /// Trace recorder for p2p/collective latencies (disabled by default;
    /// see [`Communicator::set_recorder`]). Inherited by split children.
    rec: RefCell<Recorder>,
    /// True while inside a collective, so composite collectives record one
    /// outermost [`EventKind::MpiCollective`] span and their internal
    /// sends/receives are not double-counted as p2p traffic.
    in_collective: Cell<bool>,
}

impl Communicator {
    pub(crate) fn world(
        rank: usize,
        size: usize,
        fabric: Arc<Fabric>,
        inbox: Receiver<Envelope>,
    ) -> Self {
        Communicator {
            rank,
            group: Arc::new((0..size).collect()),
            context: 0,
            fabric,
            inbox: Arc::new(inbox),
            pending: RefCell::new(VecDeque::new()),
            coll_seq: Cell::new(0),
            split_seq: Cell::new(0),
            recv_timeout: Cell::new(RECV_TIMEOUT),
            rec: RefCell::new(Recorder::disabled()),
            in_collective: Cell::new(false),
        }
    }

    /// Attaches a trace recorder: subsequent sends/receives record
    /// [`EventKind::MpiP2p`] latencies and collectives record
    /// [`EventKind::MpiCollective`]. Children of later
    /// [`Communicator::split`] calls inherit it.
    pub fn set_recorder(&self, rec: Recorder) {
        *self.rec.borrow_mut() = rec;
    }

    /// Runs `f` under one [`EventKind::MpiCollective`] span. Reentrant
    /// calls (composite collectives such as allreduce = reduce +
    /// broadcast) record only the outermost span.
    pub(crate) fn collective_span<T>(&self, f: impl FnOnce(&Self) -> T) -> T {
        if self.in_collective.get() {
            return f(self);
        }
        self.in_collective.set(true);
        let t = self.rec.borrow().begin();
        let out = f(self);
        self.rec.borrow().end(EventKind::MpiCollective, 0, 0, t);
        self.in_collective.set(false);
        out
    }

    /// This rank's id within the communicator.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the communicator.
    pub fn size(&self) -> usize {
        self.group.len()
    }

    /// Sets the window after which a blocking receive gives up, for this
    /// communicator only (children of later [`Communicator::split`] calls
    /// inherit it). Failure-aware callers shrink this so a dead peer
    /// surfaces as a typed error within their detection budget.
    pub fn set_recv_timeout(&self, window: Duration) {
        self.recv_timeout.set(window);
    }

    /// Cooperative rank-kill: returns `true` once the fault plan schedules
    /// this rank's death at or before `iteration`. The first firing marks
    /// the rank dead on the fabric — peers' receives then fail fast with
    /// [`RecvError::PeerFailed`] — and the caller must stop communicating
    /// and return a sentinel from its `World` closure.
    pub fn fail_point(&self, iteration: u32) -> bool {
        let me = self.group[self.rank];
        match self.fabric.plan.kill_at(me) {
            Some(at) if iteration >= at => {
                // Release pairs with the Acquire in peers' liveness checks:
                // a peer that sees us dead also sees all our prior sends.
                self.fabric.alive[me].store(false, Ordering::Release);
                true
            }
            _ => false,
        }
    }

    /// Cooperative *client* kill: returns the planned
    /// [`crate::ClientKillPhase`] once the fault plan schedules this rank
    /// to die inside its Damaris client operation at or before
    /// `iteration`. Like [`Communicator::fail_point`], the firing marks
    /// the rank dead on the fabric; the caller performs the
    /// phase-appropriate partial damage against its Damaris client and
    /// then stops driving it.
    pub fn client_fail_point(&self, iteration: u32) -> Option<crate::ClientKillPhase> {
        let me = self.group[self.rank];
        match self.fabric.plan.client_kill_at(me) {
            Some((at, phase)) if iteration >= at => {
                // Release for the same reason as `fail_point`: peers that
                // observe the death also observe every prior send.
                self.fabric.alive[me].store(false, Ordering::Release);
                Some(phase)
            }
            _ => None,
        }
    }

    /// Sends `data` with `tag` to local rank `dest`. Never blocks (beyond
    /// an injected delay fault).
    pub fn send(&self, dest: usize, tag: u32, data: Bytes) {
        assert!(dest < self.size(), "dest {dest} out of range");
        assert!(tag != ANY_TAG, "ANY_TAG is reserved for receives");
        let p2p = !self.in_collective.get();
        let bytes = data.len() as u64;
        let t = if p2p { self.rec.borrow().begin() } else { 0 };
        let world_dest = self.group[dest];
        let env = Envelope {
            context: self.context,
            source: self.rank,
            tag,
            data,
        };
        if self.fabric.faulty {
            let world_src = self.group[self.rank];
            let ordinal = self.fabric.next_ordinal(world_src, world_dest);
            match self
                .fabric
                .plan
                .message_fault(world_src, world_dest, ordinal)
            {
                Some(MsgFault::Drop) => return,
                Some(MsgFault::Delay(d)) => std::thread::sleep(d),
                Some(MsgFault::Duplicate) => self.deliver(world_dest, env.clone()),
                None => {}
            }
        }
        self.deliver(world_dest, env);
        if p2p {
            self.rec.borrow().end(EventKind::MpiP2p, 0, bytes, t);
        }
    }

    fn deliver(&self, world_dest: usize, env: Envelope) {
        // A dead rank's inbox is held open but never drained; drop the
        // message at the send site so the queue doesn't grow unboundedly.
        if self.fabric.faulty && !self.fabric.alive[world_dest].load(Ordering::Acquire) {
            return;
        }
        // invariant: a send can only fail if the destination thread already
        // exited — under World::run that is a collective-usage bug
        // equivalent to an MPI abort; under run_with_faults the keepalive
        // receivers hold every channel open, so this cannot fire.
        self.fabric.senders[world_dest]
            .send(env)
            .expect("destination rank has terminated");
    }

    fn matches(&self, env: &Envelope, source: usize, tag: u32) -> bool {
        env.context == self.context
            && (source == ANY_SOURCE || env.source == source)
            && (tag == ANY_TAG || env.tag == tag)
    }

    /// Removes and returns the first pending envelope matching
    /// `(source, tag)`, if any.
    fn take_pending(&self, source: usize, tag: u32) -> Option<Message> {
        let mut pending = self.pending.borrow_mut();
        let idx = pending.iter().position(|e| self.matches(e, source, tag))?;
        // invariant: position() above returned an index valid under the
        // same borrow.
        let env = pending.remove(idx).expect("index valid");
        Some(Message {
            source: env.source,
            tag: env.tag,
            data: env.data,
        })
    }

    /// Explains a silent receive: if a member of this communicator is dead,
    /// name it; otherwise report a plain timeout.
    fn silence_error(&self) -> RecvError {
        if self.fabric.faulty {
            for (local, &world) in self.group.iter().enumerate() {
                if !self.fabric.alive[world].load(Ordering::Acquire) {
                    return RecvError::PeerFailed { rank: local };
                }
            }
        }
        RecvError::Timeout
    }

    /// Blocking receive with source/tag matching. Out-of-order arrivals for
    /// other (source, tag, context) triples are buffered, preserving
    /// pairwise FIFO per (source, tag), as MPI requires.
    ///
    /// Fails fast with [`RecvError::PeerFailed`] when the awaited source is
    /// dead and its in-flight traffic has been drained; a receive that
    /// exhausts the timeout window names a dead group member if one exists,
    /// so collectives stalled by a killed rank surface the failure instead
    /// of a generic deadlock report.
    pub fn recv(&self, source: usize, tag: u32) -> Result<Message, RecvError> {
        let p2p = !self.in_collective.get();
        let t = if p2p { self.rec.borrow().begin() } else { 0 };
        let out = self.recv_inner(source, tag);
        if p2p {
            let bytes = out.as_ref().map_or(0, |m| m.data.len() as u64);
            self.rec.borrow().end(EventKind::MpiP2p, 0, bytes, t);
        }
        out
    }

    fn recv_inner(&self, source: usize, tag: u32) -> Result<Message, RecvError> {
        // First scan the pending buffer.
        if let Some(msg) = self.take_pending(source, tag) {
            return Ok(msg);
        }
        let deadline = Instant::now() + self.recv_timeout.get();
        // Then pull from the inbox, buffering non-matching traffic.
        loop {
            // Fail fast on a specifically awaited dead source: drain what
            // it sent before dying, then report the failure. The Acquire
            // load pairs with fail_point's Release store, so everything
            // the victim sent is already visible in our inbox.
            if self.fabric.faulty
                && source != ANY_SOURCE
                && !self.fabric.alive[self.group[source]].load(Ordering::Acquire)
            {
                while let Ok(env) = self.inbox.try_recv() {
                    self.pending.borrow_mut().push_back(env);
                }
                if let Some(msg) = self.take_pending(source, tag) {
                    return Ok(msg);
                }
                return Err(RecvError::PeerFailed { rank: source });
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(self.silence_error());
            }
            let chunk = LIVENESS_POLL.min(deadline - now);
            match self.inbox.recv_timeout(chunk) {
                Ok(env) => {
                    if self.matches(&env, source, tag) {
                        return Ok(Message {
                            source: env.source,
                            tag: env.tag,
                            data: env.data,
                        });
                    }
                    self.pending.borrow_mut().push_back(env);
                }
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => return Err(self.silence_error()),
            }
        }
    }

    /// Receive, panicking on timeout — for protocol code where a missing
    /// message is a bug, not a condition.
    pub fn recv_expect(&self, source: usize, tag: u32) -> Message {
        self.recv(source, tag)
            .unwrap_or_else(|e| panic!("rank {}: {e}", self.rank))
    }

    /// Next collective sequence number (advanced identically on every
    /// member because collectives are called in the same order).
    pub(crate) fn next_coll_tag(&self) -> u32 {
        let seq = self.coll_seq.get();
        self.coll_seq.set(seq.wrapping_add(1));
        // High bit marks collective traffic; users are told to stay below.
        0x8000_0000 | (seq & 0x0fff_ffff)
    }

    /// Splits the communicator by `color`. All members must call this
    /// collectively with a color; members with equal colors form a new
    /// communicator ordered by `key` (ties broken by old rank). Returns
    /// `None` for callers passing `color = None` (MPI_UNDEFINED).
    pub fn split(&self, color: Option<u64>, key: i64) -> Option<Communicator> {
        // Exchange (color, key) via an allgather built on the existing
        // collectives machinery.
        let tag = self.next_coll_tag();
        let split_seq = self.split_seq.get();
        self.split_seq.set(split_seq + 1);

        let my_entry = [color.map_or(u64::MAX, |c| c), key as u64, self.rank as u64];
        // Simple allgather: everyone sends to everyone (sizes here are the
        // node count at most; fine for a split).
        let entries = self.collective_span(|c| {
            let payload = crate::datatypes::encode_u64s(&my_entry);
            for dest in 0..c.size() {
                if dest != c.rank {
                    c.send(dest, tag, payload.clone());
                }
            }
            let mut entries: Vec<[u64; 3]> = vec![my_entry];
            for _ in 0..c.size() - 1 {
                let msg = c.recv_expect(ANY_SOURCE, tag);
                let v = msg.as_u64s();
                entries.push([v[0], v[1], v[2]]);
            }
            entries
        });

        let my_color = color?;
        let mut members: Vec<[u64; 3]> = entries.into_iter().filter(|e| e[0] == my_color).collect();
        members.sort_by_key(|e| (e[1] as i64, e[2]));
        let group: Vec<usize> = members.iter().map(|e| self.group[e[2] as usize]).collect();
        let new_rank = members
            .iter()
            .position(|e| e[2] == self.rank as u64)
            // invariant: the caller's own entry was seeded into `entries`
            // and survives the equal-color filter.
            .expect("caller must be a member");

        // Deterministic child context: same inputs on every member.
        let context = self
            .context
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(split_seq))
            .wrapping_mul(0x100_0000_01B3)
            .wrapping_add(my_color.wrapping_add(1));

        Some(Communicator {
            rank: new_rank,
            group: Arc::new(group),
            context,
            fabric: Arc::clone(&self.fabric),
            inbox: Arc::clone(&self.inbox),
            pending: RefCell::new(VecDeque::new()),
            coll_seq: Cell::new(0),
            split_seq: Cell::new(0),
            recv_timeout: Cell::new(self.recv_timeout.get()),
            rec: RefCell::new(self.rec.borrow().clone()),
            in_collective: Cell::new(false),
        })
    }
}

impl std::fmt::Debug for Communicator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Communicator(rank={}/{}, ctx={:#x})",
            self.rank,
            self.size(),
            self.context
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultPlan, World};

    #[test]
    fn p2p_roundtrip() {
        World::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, Bytes::from_static(b"hello"));
                let reply = comm.recv_expect(1, 8);
                assert_eq!(&reply.data[..], b"world");
            } else {
                let msg = comm.recv_expect(0, 7);
                assert_eq!(&msg.data[..], b"hello");
                comm.send(0, 8, Bytes::from_static(b"world"));
            }
        });
    }

    #[test]
    fn tag_matching_out_of_order() {
        World::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, Bytes::from_static(b"first"));
                comm.send(1, 2, Bytes::from_static(b"second"));
            } else {
                // Receive in reverse tag order: tag-1 must be buffered.
                let second = comm.recv_expect(0, 2);
                let first = comm.recv_expect(0, 1);
                assert_eq!(&second.data[..], b"second");
                assert_eq!(&first.data[..], b"first");
            }
        });
    }

    #[test]
    fn any_source_any_tag() {
        World::run(4, |comm| {
            if comm.rank() == 0 {
                let mut seen = std::collections::HashSet::new();
                for _ in 0..3 {
                    let msg = comm.recv_expect(ANY_SOURCE, ANY_TAG);
                    seen.insert(msg.source);
                }
                assert_eq!(seen.len(), 3);
            } else {
                comm.send(0, comm.rank() as u32, Bytes::from_static(b"x"));
            }
        });
    }

    #[test]
    fn pairwise_fifo_preserved() {
        World::run(2, |comm| {
            if comm.rank() == 0 {
                for i in 0..100u32 {
                    comm.send(1, 5, crate::datatypes::encode_u64s(&[i as u64]));
                }
            } else {
                for i in 0..100u64 {
                    let msg = comm.recv_expect(0, 5);
                    assert_eq!(msg.as_u64s(), vec![i]);
                }
            }
        });
    }

    #[test]
    fn split_by_node() {
        // 6 ranks, 2 "nodes" of 3: the Damaris topology.
        World::run(6, |comm| {
            let node = (comm.rank() / 3) as u64;
            let sub = comm.split(Some(node), comm.rank() as i64).unwrap();
            assert_eq!(sub.size(), 3);
            assert_eq!(sub.rank(), comm.rank() % 3);
            // Sub-communicator traffic must not leak across nodes.
            let total = sub.allreduce_sum_f64(&[comm.rank() as f64])[0];
            let expected: f64 = (0..3).map(|i| (node as usize * 3 + i) as f64).sum();
            assert_eq!(total, expected);
        });
    }

    #[test]
    fn split_undefined_color() {
        World::run(3, |comm| {
            let color = if comm.rank() == 0 { None } else { Some(1u64) };
            let sub = comm.split(color, 0);
            if comm.rank() == 0 {
                assert!(sub.is_none());
            } else {
                assert_eq!(sub.unwrap().size(), 2);
            }
        });
    }

    #[test]
    fn split_key_reorders() {
        World::run(3, |comm| {
            // Reverse order by key.
            let sub = comm.split(Some(0), -(comm.rank() as i64)).unwrap();
            assert_eq!(sub.rank(), comm.size() - 1 - comm.rank());
        });
    }

    #[test]
    fn recv_times_out_with_short_window() {
        World::run(1, |comm| {
            comm.set_recv_timeout(Duration::from_millis(30));
            let start = Instant::now();
            let err = comm.recv(ANY_SOURCE, ANY_TAG).unwrap_err();
            assert_eq!(err, RecvError::Timeout);
            assert!(start.elapsed() < Duration::from_secs(5));
        });
    }

    #[test]
    fn client_fail_point_fires_at_scheduled_iteration_and_marks_dead() {
        let plan = FaultPlan::new().kill_client_at(1, 2, crate::ClientKillPhase::Memcpy);
        World::run_with_faults(2, plan, |comm| {
            if comm.rank() == 1 {
                assert_eq!(comm.client_fail_point(1), None);
                assert_eq!(
                    comm.client_fail_point(2),
                    Some(crate::ClientKillPhase::Memcpy)
                );
                return;
            }
            // Unscheduled ranks never fire.
            assert_eq!(comm.client_fail_point(100), None);
            comm.set_recv_timeout(Duration::from_secs(30));
            // Rank 1 is dead on the fabric once its client kill fired.
            let err = comm.recv(1, 7).unwrap_err();
            assert_eq!(err, RecvError::PeerFailed { rank: 1 });
        });
    }

    #[test]
    fn dead_peer_fails_fast_not_timeout() {
        let plan = FaultPlan::new().kill_rank(1, 0);
        World::run_with_faults(2, plan, |comm| {
            if comm.rank() == 1 {
                assert!(comm.fail_point(0));
                return;
            }
            comm.set_recv_timeout(Duration::from_secs(30));
            let start = Instant::now();
            let err = comm.recv(1, 7).unwrap_err();
            assert_eq!(err, RecvError::PeerFailed { rank: 1 });
            // Far less than the 30 s window: detection, not timeout.
            assert!(start.elapsed() < Duration::from_secs(10));
        });
    }

    #[test]
    fn dead_peer_inflight_messages_still_delivered() {
        let plan = FaultPlan::new().kill_rank(0, 1);
        World::run_with_faults(2, plan, |comm| {
            if comm.rank() == 0 {
                // Send during iteration 0, then die at iteration 1.
                comm.send(1, 3, Bytes::from_static(b"parting"));
                assert!(comm.fail_point(1));
                return;
            }
            comm.set_recv_timeout(Duration::from_secs(10));
            // The pre-death message must arrive even after the sender died.
            let msg = comm.recv(0, 3).expect("in-flight message survives");
            assert_eq!(&msg.data[..], b"parting");
            // But the next receive fails fast.
            assert_eq!(
                comm.recv(0, 3).unwrap_err(),
                RecvError::PeerFailed { rank: 0 }
            );
        });
    }

    #[test]
    fn dropped_message_is_lost_delayed_arrives() {
        let plan = FaultPlan::new()
            .drop_nth(0, 1, 0)
            .delay_nth(0, 1, 1, Duration::from_millis(25));
        World::run_with_faults(2, plan, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, Bytes::from_static(b"dropped"));
                comm.send(1, 2, Bytes::from_static(b"delayed"));
            } else {
                comm.set_recv_timeout(Duration::from_millis(300));
                let msg = comm.recv_expect(0, 2);
                assert_eq!(&msg.data[..], b"delayed");
                // The dropped tag-1 message never arrives.
                assert_eq!(comm.recv(0, 1).unwrap_err(), RecvError::Timeout);
            }
        });
    }

    #[test]
    fn duplicated_message_arrives_twice() {
        let plan = FaultPlan::new().duplicate_nth(0, 1, 0);
        World::run_with_faults(2, plan, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 4, Bytes::from_static(b"twin"));
            } else {
                let a = comm.recv_expect(0, 4);
                let b = comm.recv_expect(0, 4);
                assert_eq!(&a.data[..], b"twin");
                assert_eq!(&b.data[..], b"twin");
            }
        });
    }

    #[test]
    fn recorder_captures_p2p_and_collective_latencies() {
        use damaris_obs::{EventKind, Recorder, TraceRing};
        let rings: Vec<_> = (0..2).map(|_| TraceRing::new(256)).collect();
        let anchor = Instant::now();
        World::run(2, |comm| {
            let rank = comm.rank();
            comm.set_recorder(Recorder::new(rings[rank].clone(), anchor, rank as u32, 0));
            if rank == 0 {
                comm.send(1, 9, Bytes::from_static(b"ping"));
            } else {
                assert_eq!(&comm.recv_expect(0, 9).data[..], b"ping");
            }
            comm.barrier();
            comm.allreduce_sum_f64(&[1.0]);
        });
        for (rank, ring) in rings.iter().enumerate() {
            let mut out = Vec::new();
            ring.flush_into(&mut out);
            let p2p = out
                .iter()
                .filter(|r| r.kind == EventKind::MpiP2p as u16)
                .count();
            let coll = out
                .iter()
                .filter(|r| r.kind == EventKind::MpiCollective as u16)
                .count();
            assert_eq!(p2p, 1, "rank {rank}: one direct send or recv span");
            // barrier + allreduce: two *outermost* collective spans — the
            // reduce/broadcast inside allreduce must not add more.
            assert_eq!(coll, 2, "rank {rank}: outermost collectives only");
            assert!(out.iter().all(|r| r.rank == rank as u32));
        }
    }

    #[test]
    fn split_inherits_recv_timeout() {
        World::run(2, |comm| {
            comm.set_recv_timeout(Duration::from_millis(40));
            let sub = comm.split(Some(0), 0).unwrap();
            let start = Instant::now();
            assert_eq!(sub.recv(0, 1).unwrap_err(), RecvError::Timeout);
            assert!(start.elapsed() < Duration::from_secs(5));
        });
    }
}
