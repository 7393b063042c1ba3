//! Collective operations, built from point-to-point messages with the
//! classic algorithms (binomial trees, dissemination barrier, pairwise
//! exchange) so their communication structure — and therefore their
//! synchronization cost, the thing the paper's collective-I/O baseline pays
//! for — matches real MPI implementations.
//!
//! Every collective comes in two flavors: a `try_*` variant returning
//! `Result<_, RecvError>` — under fault injection a dead member surfaces
//! as [`RecvError::PeerFailed`] within the receive-timeout window instead
//! of hanging the survivors — and the original panicking form for protocol
//! code where a missing peer is a bug, not a condition.

use crate::comm::{Communicator, RecvError, ANY_SOURCE};
use crate::datatypes::{decode_f64s, encode_f64s};
use bytes::Bytes;

impl Communicator {
    /// Dissemination barrier: ⌈log₂ n⌉ rounds, each rank sends to
    /// `rank + 2^k` and waits on `rank − 2^k` (mod n).
    pub fn barrier(&self) {
        // invariant: without fault injection every member participates, so
        // the exchange cannot fail; a failure here is a usage bug.
        self.try_barrier()
            .unwrap_or_else(|e| panic!("rank {}: barrier: {e}", self.rank()))
    }

    /// Fallible [`Communicator::barrier`].
    pub fn try_barrier(&self) -> Result<(), RecvError> {
        self.collective_span(Self::try_barrier_inner)
    }

    fn try_barrier_inner(&self) -> Result<(), RecvError> {
        let n = self.size();
        if n == 1 {
            return Ok(());
        }
        let tag = self.next_coll_tag();
        let mut step = 1usize;
        let mut round = 0u32;
        while step < n {
            let to = (self.rank() + step) % n;
            let from = (self.rank() + n - step) % n;
            // Encode the round in the payload so rounds cannot cross-match
            // when `from == to` at small sizes.
            self.send(to, tag, Bytes::copy_from_slice(&round.to_le_bytes()));
            loop {
                let msg = self.recv(from, tag)?;
                // invariant: barrier payloads are always 4-byte rounds.
                let r = u32::from_le_bytes(msg.data[..4].try_into().expect("4 bytes"));
                if r == round {
                    break;
                }
                // A later round overtook (possible when n is not a power of
                // two and the partner raced ahead); stash is unnecessary
                // because partners advance at most one round ahead per edge.
                debug_assert!(r > round, "stale barrier round");
            }
            step <<= 1;
            round += 1;
        }
        Ok(())
    }

    /// Binomial-tree broadcast of `data` from local rank `root`.
    pub fn broadcast(&self, root: usize, data: Option<Bytes>) -> Bytes {
        // invariant: see barrier — fault-free collectives cannot fail.
        self.try_broadcast(root, data)
            .unwrap_or_else(|e| panic!("rank {}: broadcast: {e}", self.rank()))
    }

    /// Fallible [`Communicator::broadcast`].
    pub fn try_broadcast(&self, root: usize, data: Option<Bytes>) -> Result<Bytes, RecvError> {
        self.collective_span(|c| c.try_broadcast_inner(root, data))
    }

    fn try_broadcast_inner(&self, root: usize, data: Option<Bytes>) -> Result<Bytes, RecvError> {
        assert!(root < self.size());
        let n = self.size();
        let tag = self.next_coll_tag();
        let relative = (self.rank() + n - root) % n;
        let mut buf = if self.rank() == root {
            // invariant: API contract — the root supplies the payload.
            data.expect("root must supply data")
        } else {
            Bytes::new()
        };

        let mut mask = 1usize;
        while mask < n {
            if relative & mask != 0 {
                let src = (relative - mask + root) % n;
                buf = self.recv(src, tag)?.data;
                break;
            }
            mask <<= 1;
        }
        mask >>= 1;
        while mask > 0 {
            if relative + mask < n {
                let dst = (relative + mask + root) % n;
                self.send(dst, tag, buf.clone());
            }
            mask >>= 1;
        }
        Ok(buf)
    }

    /// Binomial-tree reduction of f64 vectors to `root` with a pairwise
    /// combiner. Non-roots get `None`.
    pub fn reduce_f64(
        &self,
        root: usize,
        data: &[f64],
        op: impl Fn(f64, f64) -> f64,
    ) -> Option<Vec<f64>> {
        // invariant: see barrier — fault-free collectives cannot fail.
        self.try_reduce_f64(root, data, op)
            .unwrap_or_else(|e| panic!("rank {}: reduce: {e}", self.rank()))
    }

    /// Fallible [`Communicator::reduce_f64`].
    pub fn try_reduce_f64(
        &self,
        root: usize,
        data: &[f64],
        op: impl Fn(f64, f64) -> f64,
    ) -> Result<Option<Vec<f64>>, RecvError> {
        self.collective_span(|c| c.try_reduce_f64_inner(root, data, op))
    }

    fn try_reduce_f64_inner(
        &self,
        root: usize,
        data: &[f64],
        op: impl Fn(f64, f64) -> f64,
    ) -> Result<Option<Vec<f64>>, RecvError> {
        assert!(root < self.size());
        let n = self.size();
        let tag = self.next_coll_tag();
        let relative = (self.rank() + n - root) % n;
        let mut acc = data.to_vec();

        let mut mask = 1usize;
        while mask < n {
            if relative & mask == 0 {
                let src_rel = relative | mask;
                if src_rel < n {
                    let src = (src_rel + root) % n;
                    let incoming = self.recv(src, tag)?.as_f64s();
                    assert_eq!(incoming.len(), acc.len(), "reduce length mismatch");
                    for (a, b) in acc.iter_mut().zip(incoming) {
                        *a = op(*a, b);
                    }
                }
            } else {
                let dst_rel = relative & !mask;
                let dst = (dst_rel + root) % n;
                self.send(dst, tag, encode_f64s(&acc));
                return Ok(None); // sent up the tree; done
            }
            mask <<= 1;
        }
        Ok(Some(acc))
    }

    /// Allreduce (sum) over f64 vectors: reduce to 0, then broadcast.
    pub fn allreduce_sum_f64(&self, data: &[f64]) -> Vec<f64> {
        self.allreduce_f64(data, |a, b| a + b)
    }

    /// Allreduce (max) over f64 vectors.
    pub fn allreduce_max_f64(&self, data: &[f64]) -> Vec<f64> {
        self.allreduce_f64(data, f64::max)
    }

    /// Allreduce (min) over f64 vectors.
    pub fn allreduce_min_f64(&self, data: &[f64]) -> Vec<f64> {
        self.allreduce_f64(data, f64::min)
    }

    /// Generic allreduce over f64 vectors.
    pub fn allreduce_f64(&self, data: &[f64], op: impl Fn(f64, f64) -> f64 + Copy) -> Vec<f64> {
        // invariant: see barrier — fault-free collectives cannot fail.
        self.try_allreduce_f64(data, op)
            .unwrap_or_else(|e| panic!("rank {}: allreduce: {e}", self.rank()))
    }

    /// Fallible [`Communicator::allreduce_f64`].
    pub fn try_allreduce_f64(
        &self,
        data: &[f64],
        op: impl Fn(f64, f64) -> f64 + Copy,
    ) -> Result<Vec<f64>, RecvError> {
        self.collective_span(|c| {
            let reduced = c.try_reduce_f64(0, data, op)?;
            let bytes = c.try_broadcast(0, reduced.map(|v| encode_f64s(&v)))?;
            Ok(decode_f64s(&bytes))
        })
    }

    /// Gathers every rank's bytes at `root` (rank-indexed). Non-roots get
    /// `None`.
    pub fn gather(&self, root: usize, data: Bytes) -> Option<Vec<Bytes>> {
        // invariant: see barrier — fault-free collectives cannot fail.
        self.try_gather(root, data)
            .unwrap_or_else(|e| panic!("rank {}: gather: {e}", self.rank()))
    }

    /// Fallible [`Communicator::gather`].
    pub fn try_gather(&self, root: usize, data: Bytes) -> Result<Option<Vec<Bytes>>, RecvError> {
        self.collective_span(|c| c.try_gather_inner(root, data))
    }

    fn try_gather_inner(&self, root: usize, data: Bytes) -> Result<Option<Vec<Bytes>>, RecvError> {
        assert!(root < self.size());
        let tag = self.next_coll_tag();
        if self.rank() == root {
            let mut out: Vec<Option<Bytes>> = vec![None; self.size()];
            out[root] = Some(data);
            for _ in 0..self.size() - 1 {
                let msg = self.recv(ANY_SOURCE, tag)?;
                out[msg.source] = Some(msg.data);
            }
            Ok(Some(
                out.into_iter()
                    // invariant: the loop above received size-1 distinct
                    // contributions, so every slot is filled.
                    .map(|b| b.expect("all ranks sent"))
                    .collect(),
            ))
        } else {
            self.send(root, tag, data);
            Ok(None)
        }
    }

    /// Allgather: every rank contributes `data`; everyone receives the
    /// rank-indexed list of all contributions (gather to 0 + broadcast of
    /// the concatenated, length-prefixed buffer).
    pub fn allgather(&self, data: Bytes) -> Vec<Bytes> {
        // invariant: see barrier — fault-free collectives cannot fail.
        self.try_allgather(data)
            .unwrap_or_else(|e| panic!("rank {}: allgather: {e}", self.rank()))
    }

    /// Fallible [`Communicator::allgather`].
    pub fn try_allgather(&self, data: Bytes) -> Result<Vec<Bytes>, RecvError> {
        self.collective_span(|c| c.try_allgather_inner(data))
    }

    fn try_allgather_inner(&self, data: Bytes) -> Result<Vec<Bytes>, RecvError> {
        let gathered = self.try_gather(0, data)?;
        let packed = if self.rank() == 0 {
            // invariant: rank 0 is the gather root and always gets Some.
            let parts = gathered.expect("root gathers");
            let mut buf = Vec::new();
            for part in &parts {
                crate::datatypes::encode_u64s(&[part.len() as u64])
                    .iter()
                    .for_each(|&b| buf.push(b));
                buf.extend_from_slice(part);
            }
            Some(Bytes::from(buf))
        } else {
            None
        };
        let all = self.try_broadcast(0, packed)?;
        let mut out = Vec::with_capacity(self.size());
        let mut off = 0usize;
        for _ in 0..self.size() {
            // invariant: the root packed exactly size length-prefixed parts.
            let len =
                u64::from_le_bytes(all[off..off + 8].try_into().expect("length prefix")) as usize;
            off += 8;
            out.push(all.slice(off..off + len));
            off += len;
        }
        Ok(out)
    }

    /// Personalized all-to-all: `chunks[i]` goes to rank `i`; returns the
    /// chunk received from each rank. This is the communication pattern of
    /// two-phase collective I/O, whose cost the paper identifies as the
    /// scalability limit of that approach (§II-B).
    pub fn alltoallv(&self, chunks: Vec<Bytes>) -> Vec<Bytes> {
        // invariant: see barrier — fault-free collectives cannot fail.
        self.try_alltoallv(chunks)
            .unwrap_or_else(|e| panic!("rank {}: alltoallv: {e}", self.rank()))
    }

    /// Fallible [`Communicator::alltoallv`].
    pub fn try_alltoallv(&self, chunks: Vec<Bytes>) -> Result<Vec<Bytes>, RecvError> {
        self.collective_span(|c| c.try_alltoallv_inner(chunks))
    }

    fn try_alltoallv_inner(&self, chunks: Vec<Bytes>) -> Result<Vec<Bytes>, RecvError> {
        assert_eq!(chunks.len(), self.size(), "need one chunk per rank");
        let n = self.size();
        let tag = self.next_coll_tag();
        let mut out: Vec<Option<Bytes>> = vec![None; n];
        out[self.rank()] = Some(chunks[self.rank()].clone());
        // Pairwise exchange schedule: round i pairs rank with rank±i.
        for i in 1..n {
            let dst = (self.rank() + i) % n;
            let src = (self.rank() + n - i) % n;
            self.send(dst, tag, chunks[dst].clone());
            let msg = self.recv(src, tag)?;
            out[src] = Some(msg.data);
        }
        Ok(out
            .into_iter()
            // invariant: the pairwise schedule filled every slot above.
            .map(|b| b.expect("full exchange"))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use crate::datatypes::encode_u64s;
    use crate::{FaultPlan, RecvError, World};
    use bytes::Bytes;
    use std::time::Duration;

    #[test]
    fn barrier_various_sizes() {
        for n in [1, 2, 3, 4, 5, 8, 13] {
            World::run(n, |comm| {
                for _ in 0..5 {
                    comm.barrier();
                }
            });
        }
    }

    #[test]
    fn barrier_actually_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let arrived = AtomicUsize::new(0);
        World::run(6, |comm| {
            arrived.fetch_add(1, Ordering::SeqCst);
            comm.barrier();
            // After the barrier, every rank must have arrived.
            assert_eq!(arrived.load(Ordering::SeqCst), 6);
        });
    }

    #[test]
    fn broadcast_all_roots_and_sizes() {
        for n in [1, 2, 3, 7, 8] {
            World::run(n, |comm| {
                for root in 0..comm.size() {
                    let data = if comm.rank() == root {
                        Some(Bytes::from(format!("payload-from-{root}")))
                    } else {
                        None
                    };
                    let got = comm.broadcast(root, data);
                    assert_eq!(&got[..], format!("payload-from-{root}").as_bytes());
                }
            });
        }
    }

    #[test]
    fn reduce_sum_and_max() {
        World::run(7, |comm| {
            let r = comm.rank() as f64;
            let sum = comm.reduce_f64(0, &[r, 2.0 * r], |a, b| a + b);
            if comm.rank() == 0 {
                assert_eq!(sum.unwrap(), vec![21.0, 42.0]);
            } else {
                assert!(sum.is_none());
            }
            comm.barrier();
            let max = comm.allreduce_max_f64(&[r]);
            assert_eq!(max, vec![6.0]);
            let min = comm.allreduce_min_f64(&[r]);
            assert_eq!(min, vec![0.0]);
        });
    }

    #[test]
    fn allreduce_matches_on_all_ranks() {
        for n in [2, 4, 9] {
            World::run(n, |comm| {
                let v = comm.allreduce_sum_f64(&[1.0, comm.rank() as f64]);
                let expected_sum: f64 = (0..n).map(|i| i as f64).sum();
                assert_eq!(v, vec![n as f64, expected_sum]);
            });
        }
    }

    #[test]
    fn gather_collects_in_rank_order() {
        World::run(5, |comm| {
            let data = encode_u64s(&[comm.rank() as u64 * 100]);
            let gathered = comm.gather(2, data);
            if comm.rank() == 2 {
                let g = gathered.unwrap();
                assert_eq!(g.len(), 5);
                for (i, b) in g.iter().enumerate() {
                    assert_eq!(
                        u64::from_le_bytes(b[..8].try_into().unwrap()),
                        i as u64 * 100
                    );
                }
            } else {
                assert!(gathered.is_none());
            }
        });
    }

    #[test]
    fn allgather_everyone_sees_everything() {
        for n in [1, 2, 5, 8] {
            World::run(n, |comm| {
                let mine = Bytes::from(format!("rank-{}-payload", comm.rank()));
                let all = comm.allgather(mine);
                assert_eq!(all.len(), n);
                for (i, b) in all.iter().enumerate() {
                    assert_eq!(&b[..], format!("rank-{i}-payload").as_bytes());
                }
            });
        }
    }

    #[test]
    fn allgather_handles_uneven_and_empty_payloads() {
        World::run(4, |comm| {
            let mine = Bytes::from(vec![comm.rank() as u8; comm.rank() * 100]);
            let all = comm.allgather(mine);
            for (i, b) in all.iter().enumerate() {
                assert_eq!(b.len(), i * 100);
                assert!(b.iter().all(|&x| x == i as u8));
            }
        });
    }

    #[test]
    fn alltoallv_exchanges_personalized_data() {
        for n in [1, 2, 3, 6] {
            World::run(n, |comm| {
                let chunks: Vec<Bytes> = (0..n)
                    .map(|dst| Bytes::from(format!("{}->{}", comm.rank(), dst)))
                    .collect();
                let received = comm.alltoallv(chunks);
                for (src, data) in received.iter().enumerate() {
                    assert_eq!(&data[..], format!("{}->{}", src, comm.rank()).as_bytes());
                }
            });
        }
    }

    #[test]
    fn back_to_back_collectives_do_not_cross_match() {
        World::run(4, |comm| {
            for i in 0..20u64 {
                let v = comm.allreduce_sum_f64(&[i as f64]);
                assert_eq!(v, vec![4.0 * i as f64]);
                let b = comm.broadcast(
                    (i % 4) as usize,
                    if comm.rank() == (i % 4) as usize {
                        Some(encode_u64s(&[i]))
                    } else {
                        None
                    },
                );
                assert_eq!(u64::from_le_bytes(b[..8].try_into().unwrap()), i);
            }
        });
    }

    #[test]
    fn collectives_surface_peer_failure_within_timeout() {
        // Rank 2 dies before the barrier; survivors must get PeerFailed
        // within the shortened window, not hang for minutes.
        let plan = FaultPlan::new().kill_rank(2, 0);
        let outcomes = World::run_with_faults(4, plan, |comm| {
            comm.set_recv_timeout(Duration::from_millis(200));
            if comm.fail_point(0) {
                return None;
            }
            Some(comm.try_barrier())
        });
        assert_eq!(outcomes[2], None);
        for (rank, outcome) in outcomes.iter().enumerate() {
            if rank == 2 {
                continue;
            }
            match outcome {
                Some(Err(RecvError::PeerFailed { rank: 2 })) => {}
                other => panic!("rank {rank}: expected PeerFailed from rank 2, got {other:?}"),
            }
        }
    }

    #[test]
    fn try_gather_reports_dead_contributor() {
        let plan = FaultPlan::new().kill_rank(1, 0);
        World::run_with_faults(3, plan, |comm| {
            comm.set_recv_timeout(Duration::from_millis(150));
            if comm.fail_point(0) {
                return;
            }
            let res = comm.try_gather(0, Bytes::from_static(b"x"));
            if comm.rank() == 0 {
                assert_eq!(res.unwrap_err(), RecvError::PeerFailed { rank: 1 });
            } else {
                // Non-roots only send; their gather succeeds locally.
                assert!(res.unwrap().is_none());
            }
        });
    }

    #[test]
    fn try_alltoallv_reports_dead_peer() {
        let plan = FaultPlan::new().kill_rank(3, 0);
        World::run_with_faults(4, plan, |comm| {
            comm.set_recv_timeout(Duration::from_millis(200));
            if comm.fail_point(0) {
                return;
            }
            let chunks: Vec<Bytes> = (0..4).map(|_| Bytes::from_static(b"c")).collect();
            let err = comm.try_alltoallv(chunks).unwrap_err();
            assert_eq!(err, RecvError::PeerFailed { rank: 3 });
        });
    }
}
