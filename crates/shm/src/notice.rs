//! The notice ring: how a compute process tells the dedicated core that a
//! write landed, a region was abandoned or an iteration ended, without a
//! system call — the process node's twin of the threaded node's event
//! queue, one ring per client, its words wherever the caller lays them out
//! ([`crate::mapped`] puts them in the shared mapping; `tests/model.rs` on
//! the heap under `--features check`).
//!
//! A ring is `capacity` fixed-size slots of [`NOTICE_WORDS`] words and two
//! monotonic counters, each with a single writer:
//!
//! * `head` — notices ever posted; written by the client that owns the
//!   ring;
//! * `tail` — notices ever taken; written by the dedicated core.
//!
//! The ring a notice sits in names the client that posted it, so a notice
//! carries no rank and cannot speak for another one; and with one
//! producer per ring there is no compare-and-swap, and each client's
//! notices are taken in the order it posted them.
//!
//! ## Memory-ordering argument (verified under `--features check`)
//!
//! The client stores the slot words `Relaxed`, then `head` `Release`:
//! that store publishes the slot words and every byte the client wrote
//! before it — the payload copied into its data ring, as `MpscQueue`'s
//! `seq` store does. The core Acquire-loads `head` before reading a slot,
//! and stores `tail` `Release` once it no longer needs the slot; the
//! client Acquire-loads `tail` before overwriting one, so it never
//! overwrites a slot the core is still reading.

use crate::sync::{AtomicU64, Ordering};

/// Words per notice slot.
pub const NOTICE_WORDS: usize = 4;
/// Bytes per notice slot.
pub const NOTICE_BYTES: usize = NOTICE_WORDS * 8;

const KIND_WRITE: u64 = 1;
const KIND_END_ITERATION: u64 = 2;
const KIND_ABANDON: u64 = 3;

/// What a client tells the dedicated core. Its words come from another
/// process: [`Notice::decode`] refuses an unknown kind, and what a known
/// kind says is the consumer's to validate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Notice {
    /// `len` bytes of `variable` at `iteration` sit at `offset` of the
    /// data window, checksummed `crc`.
    Write {
        variable: u32,
        iteration: u32,
        offset: u64,
        len: u64,
        crc: u32,
    },
    /// The client finished `iteration`.
    EndIteration { iteration: u32 },
    /// The client dropped the uncommitted region of `len` bytes at
    /// `offset` it reserved for `iteration`: the core releases it in ring
    /// order with the iteration's other segments.
    Abandon {
        iteration: u32,
        offset: u64,
        len: u64,
    },
}

impl Notice {
    /// The slot words: `kind | iteration << 32`, `variable | crc << 32`,
    /// `offset`, `len` (the second word 0 for an `Abandon`).
    pub fn encode(&self) -> [u64; NOTICE_WORDS] {
        match *self {
            Notice::Write {
                variable,
                iteration,
                offset,
                len,
                crc,
            } => [
                KIND_WRITE | u64::from(iteration) << 32,
                u64::from(variable) | u64::from(crc) << 32,
                offset,
                len,
            ],
            Notice::EndIteration { iteration } => {
                [KIND_END_ITERATION | u64::from(iteration) << 32, 0, 0, 0]
            }
            Notice::Abandon {
                iteration,
                offset,
                len,
            } => [KIND_ABANDON | u64::from(iteration) << 32, 0, offset, len],
        }
    }

    /// Reads [`encode`](Self::encode)'s words back; `None` for an unknown
    /// kind.
    pub fn decode(words: [u64; NOTICE_WORDS]) -> Option<Notice> {
        let iteration = (words[0] >> 32) as u32;
        match words[0] & u64::from(u32::MAX) {
            KIND_WRITE => Some(Notice::Write {
                variable: words[1] as u32,
                iteration,
                offset: words[2],
                len: words[3],
                crc: (words[1] >> 32) as u32,
            }),
            KIND_END_ITERATION => Some(Notice::EndIteration { iteration }),
            KIND_ABANDON => Some(Notice::Abandon {
                iteration,
                offset: words[2],
                len: words[3],
            }),
            _ => None,
        }
    }
}

/// One client's notice ring, wherever its words live: `slots` holds
/// `capacity × NOTICE_WORDS` words, `capacity` a power of two.
#[derive(Clone, Copy)]
pub struct NoticeRing<'a> {
    pub head: &'a AtomicU64,
    pub tail: &'a AtomicU64,
    pub slots: &'a [AtomicU64],
}

impl<'a> NoticeRing<'a> {
    fn slot(&self, position: u64) -> &'a [AtomicU64] {
        let capacity = (self.slots.len() / NOTICE_WORDS) as u64;
        let at = (position & (capacity - 1)) as usize * NOTICE_WORDS;
        // ANALYZE: in-bounds(capacity = slots.len() / NOTICE_WORDS is a power of two, so at + NOTICE_WORDS <= capacity * NOTICE_WORDS = slots.len())
        &self.slots[at..at + NOTICE_WORDS]
    }

    /// Posts one notice; `false` when the ring is full. Client side: only
    /// the ring's owner may call it.
    pub fn post(&self, words: [u64; NOTICE_WORDS]) -> bool {
        let capacity = (self.slots.len() / NOTICE_WORDS) as u64;
        // Relaxed: only this client writes `head`. Acquire on `tail`:
        // pairs with the core's Release in `advance`, ordering its reads
        // of the slot before our overwrite of it.
        let h = self.head.load(Ordering::Relaxed);
        let t = self.tail.load(Ordering::Acquire);
        if h.wrapping_sub(t) >= capacity {
            return false;
        }
        for (word, value) in self.slot(h).iter().zip(words) {
            // Relaxed: published by the Release store of `head` below.
            word.store(value, Ordering::Relaxed);
        }
        // Release: publishes the slot words and everything this client
        // wrote before them (the payload) to the core's Acquire in `peek`.
        self.head.store(h + 1, Ordering::Release);
        true
    }

    /// The oldest notice not yet taken, left in place. Core side: only
    /// the ring's consumer may call it.
    pub fn peek(&self) -> Option<[u64; NOTICE_WORDS]> {
        // Relaxed: only the core writes `tail`. Acquire on `head`: pairs
        // with the client's Release in `post`.
        let t = self.tail.load(Ordering::Relaxed);
        let h = self.head.load(Ordering::Acquire);
        if h <= t {
            return None;
        }
        let slot = self.slot(t);
        // Relaxed: ordered after the client's stores by the Acquire above.
        Some(std::array::from_fn(|i| slot[i].load(Ordering::Relaxed)))
    }

    /// Takes the notice [`peek`](Self::peek) returned, freeing its slot.
    pub fn advance(&self) {
        // Relaxed: only the core writes `tail`.
        let t = self.tail.load(Ordering::Relaxed);
        // Release: the slot is the client's again once our reads of it
        // are done — pairs with the Acquire on `tail` in `post`.
        self.tail.store(t + 1, Ordering::Release);
    }
}

// Sequential semantics; the concurrent interleavings are explored by
// `notice_ring_delivers_every_notice_across_a_wrap` in tests/model.rs.
#[cfg(all(test, not(feature = "check")))]
mod tests {
    use super::*;

    #[test]
    fn notices_round_trip_through_their_words() {
        for notice in [
            Notice::Write {
                variable: 7,
                iteration: u32::MAX,
                offset: 1 << 40,
                len: 65536,
                crc: 0xDEAD_BEEF,
            },
            Notice::EndIteration { iteration: 99 },
            Notice::Abandon {
                iteration: 3,
                offset: 4096,
                len: 512,
            },
        ] {
            assert_eq!(Notice::decode(notice.encode()), Some(notice));
        }
        assert_eq!(Notice::decode([0, 0, 0, 0]), None);
        assert_eq!(Notice::decode([4 | 1 << 32, 0, 0, 0]), None);
    }

    #[test]
    fn a_full_ring_refuses_until_the_core_takes_one() {
        let (head, tail) = (AtomicU64::new(0), AtomicU64::new(0));
        let slots: Vec<AtomicU64> = (0..2 * NOTICE_WORDS).map(|_| AtomicU64::new(0)).collect();
        let ring = NoticeRing {
            head: &head,
            tail: &tail,
            slots: &slots,
        };
        assert_eq!(ring.peek(), None);
        for i in 0..5u64 {
            assert!(ring.post([i, 0, 0, 0]));
            assert!(ring.post([i + 100, 0, 0, 0]));
            assert!(!ring.post([0; NOTICE_WORDS]), "capacity 2");
            assert_eq!(ring.peek(), Some([i, 0, 0, 0]));
            assert_eq!(ring.peek(), Some([i, 0, 0, 0]), "peek leaves it");
            ring.advance();
            assert_eq!(ring.peek(), Some([i + 100, 0, 0, 0]));
            ring.advance();
            assert_eq!(ring.peek(), None);
        }
    }
}
