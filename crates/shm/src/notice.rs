//! The notice ring: how a compute core tells the dedicated core that a
//! write landed, a region was abandoned, an iteration ended or a user
//! event was signalled, without a lock or a system call — one ring per
//! client, its words wherever the caller lays them out ([`crate::mapped`]
//! in the node's layout; `tests/model.rs` on the heap).
//!
//! A ring is `capacity` slots of [`SLOT_WORDS`] words, a notice of
//! [`NOTICE_WORDS`] at the front of each, and two monotonic counters with
//! one writer each: `head` (notices posted, by the client) and `tail`
//! (notices taken, by the core). A slot's first word is 0 while the slot
//! is free (no encoded notice's is), so each side polls the slot it works
//! on next, never the other side's counter. The ring names the client
//! that posted into it, so a notice cannot speak for another one; with one
//! producer per ring there is no compare-and-swap, and a client's notices
//! are taken in the order it posted them.
//!
//! ## Memory-ordering argument (verified under `--features check`)
//!
//! The client stores the slot's other words `Relaxed`, then its first
//! word `Release`: that store publishes the notice and every byte the
//! client wrote before it — the payload copied into its data ring. The
//! core Acquire-loads the first word before reading the others, and once
//! it no longer needs the slot stores 0 there `Release`; the client
//! Acquire-loads the first word before overwriting a slot, so it never
//! overwrites one the core is still reading.

use crate::sync::{AtomicU64, Ordering};

/// Words of a notice.
pub const NOTICE_WORDS: usize = 4;
/// Words per slot: a notice has a 64-byte line to itself, so the core
/// taking one never costs the client posting the next a miss.
pub const SLOT_WORDS: usize = 8;
/// Bytes per slot.
pub const SLOT_BYTES: usize = SLOT_WORDS * 8;

const KIND_WRITE: u64 = 1;
const KIND_END_ITERATION: u64 = 2;
const KIND_ABANDON: u64 = 3;
const KIND_USER: u64 = 4;
const KIND_WRITE_DYNAMIC: u64 = 5;

/// What a client tells the dedicated core. Its words come from another
/// process: [`Notice::decode`] refuses an unknown kind, and what a known
/// kind says is the consumer's to validate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Notice {
    /// `len` bytes of `variable` at `iteration` sit at `offset` of the
    /// data window.
    Write {
        variable: u32,
        iteration: u32,
        offset: u64,
        len: u64,
    },
    /// The client finished `iteration`.
    EndIteration { iteration: u32 },
    /// The client dropped its uncommitted region of `len` bytes at
    /// `offset`, reserved for `iteration`.
    Abandon {
        iteration: u32,
        offset: u64,
        len: u64,
    },
    /// The client signalled the user event at index `action` of the
    /// configuration's event list, for `iteration`.
    User { action: u32, iteration: u32 },
    /// A write of a variable without a static shape: the `len` bytes at
    /// `offset` are `ndims + 1` native-endian words — the rank again, then
    /// the dims — and the payload.
    WriteDynamic {
        variable: u32,
        ndims: u32,
        iteration: u32,
        offset: u64,
        len: u64,
    },
}

impl Notice {
    /// The slot words: `kind | iteration << 32`, `variable` (with a
    /// dynamic write's `ndims` in its upper half; an event's `action`),
    /// `offset`, `len` (each 0 where the kind has no such field).
    pub fn encode(&self) -> [u64; NOTICE_WORDS] {
        match *self {
            Notice::Write {
                variable,
                iteration,
                offset,
                len,
            } => [
                KIND_WRITE | u64::from(iteration) << 32,
                u64::from(variable),
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
            Notice::User { action, iteration } => [
                KIND_USER | u64::from(iteration) << 32,
                u64::from(action),
                0,
                0,
            ],
            Notice::WriteDynamic {
                variable,
                ndims,
                iteration,
                offset,
                len,
            } => [
                KIND_WRITE_DYNAMIC | u64::from(iteration) << 32,
                u64::from(variable) | u64::from(ndims) << 32,
                offset,
                len,
            ],
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
            }),
            KIND_END_ITERATION => Some(Notice::EndIteration { iteration }),
            KIND_ABANDON => Some(Notice::Abandon {
                iteration,
                offset: words[2],
                len: words[3],
            }),
            KIND_USER => Some(Notice::User {
                action: words[1] as u32,
                iteration,
            }),
            KIND_WRITE_DYNAMIC => Some(Notice::WriteDynamic {
                variable: words[1] as u32,
                ndims: (words[1] >> 32) as u32,
                iteration,
                offset: words[2],
                len: words[3],
            }),
            _ => None,
        }
    }
}

/// One client's notice ring, wherever its words live: `slots` holds
/// `capacity × SLOT_WORDS` words, zero when the ring is new, `capacity` a
/// power of two.
#[derive(Clone, Copy)]
pub struct NoticeRing<'a> {
    pub head: &'a AtomicU64,
    pub tail: &'a AtomicU64,
    pub slots: &'a [AtomicU64],
}

impl<'a> NoticeRing<'a> {
    fn slot(&self, position: u64) -> &'a [AtomicU64] {
        let capacity = (self.slots.len() / SLOT_WORDS) as u64;
        let at = (position & (capacity - 1)) as usize * SLOT_WORDS;
        // ANALYZE: in-bounds(capacity = slots.len() / SLOT_WORDS is a power of two, so at + NOTICE_WORDS <= capacity * SLOT_WORDS = slots.len())
        &self.slots[at..at + NOTICE_WORDS]
    }

    /// Posts one notice; `false` when the ring is full. Client side: only
    /// the ring's owner may call it. The first word must not be 0 (an
    /// encoded notice's never is): 0 marks a free slot.
    pub fn post(&self, words: [u64; NOTICE_WORDS]) -> bool {
        let [first_word, other_words @ ..] = words;
        debug_assert_ne!(first_word, 0, "a notice's first word is never 0");
        // Relaxed: only this client writes `head`.
        let h = self.head.load(Ordering::Relaxed);
        let Some((first, others)) = self.slot(h).split_first() else {
            return false;
        };
        // Acquire: pairs with the core's Release in `advance`, ordering
        // its reads of the slot before our overwrite of it.
        if first.load(Ordering::Acquire) != 0 {
            return false;
        }
        for (word, value) in others.iter().zip(other_words) {
            // Relaxed: published by the Release store of the first word.
            word.store(value, Ordering::Relaxed);
        }
        // Release: publishes the other words and everything this client
        // wrote before them (the payload) to the core's Acquire in `peek`.
        first.store(first_word, Ordering::Release);
        // Release: a thread that reads the count sees the notice.
        self.head.store(h + 1, Ordering::Release);
        // The next post writes the next slot, which the core wrote last
        // (freeing it) or may be polling: ask for its line now.
        if let Some(next) = self.slot(h + 1).first() {
            crate::buffer::prefetch_write(next);
        }
        true
    }

    /// The oldest notice not yet taken, left in place. Core side: only
    /// the ring's consumer may call it.
    pub fn peek(&self) -> Option<[u64; NOTICE_WORDS]> {
        // Relaxed: only the core writes `tail`.
        let t = self.tail.load(Ordering::Relaxed);
        let slot = self.slot(t);
        // Acquire: pairs with the client's Release in `post`.
        if slot.first()?.load(Ordering::Acquire) == 0 {
            return None;
        }
        // Relaxed: ordered after the client's stores by the Acquire above
        // (the first word again too: it cannot change before `advance`).
        let mut words = [0; NOTICE_WORDS];
        for (value, word) in words.iter_mut().zip(slot) {
            *value = word.load(Ordering::Relaxed);
        }
        Some(words)
    }

    /// Notices ever posted: a mark in the ring's order.
    pub fn posted(&self) -> u64 {
        // Acquire: pairs with the client's Release in `post`.
        self.head.load(Ordering::Acquire)
    }

    /// Notices posted before `mark` and not yet taken. Core side.
    pub fn untaken_before(&self, mark: u64) -> u64 {
        // Relaxed: only the core writes `tail`.
        mark.saturating_sub(self.tail.load(Ordering::Relaxed))
    }

    /// Takes the notice [`peek`](Self::peek) returned, freeing its slot.
    pub fn advance(&self) {
        // Relaxed: only the core writes `tail`.
        let t = self.tail.load(Ordering::Relaxed);
        // Release: the slot is the client's again once our reads of it
        // are done — pairs with the Acquire of the first word in `post`.
        if let Some(first) = self.slot(t).first() {
            first.store(0, Ordering::Release);
        }
        self.tail.store(t + 1, Ordering::Relaxed);
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
            },
            Notice::EndIteration { iteration: 99 },
            Notice::Abandon {
                iteration: 3,
                offset: 4096,
                len: 512,
            },
            Notice::User {
                action: u32::MAX,
                iteration: 12,
            },
            Notice::WriteDynamic {
                variable: 5,
                ndims: u32::MAX,
                iteration: u32::MAX,
                offset: 1 << 40,
                len: 24 + 512,
            },
        ] {
            assert_eq!(Notice::decode(notice.encode()), Some(notice));
        }
        assert_eq!(Notice::decode([0, 0, 0, 0]), None);
        assert_eq!(Notice::decode([6 | 1 << 32, 0, 0, 0]), None);
    }

    #[test]
    fn a_full_ring_refuses_until_the_core_takes_one() {
        let (head, tail) = (AtomicU64::new(0), AtomicU64::new(0));
        let slots: Vec<AtomicU64> = (0..2 * SLOT_WORDS).map(|_| AtomicU64::new(0)).collect();
        let ring = NoticeRing {
            head: &head,
            tail: &tail,
            slots: &slots,
        };
        assert_eq!(ring.peek(), None);
        for i in 1..6u64 {
            assert!(ring.post([i, 0, 0, 0]));
            assert!(ring.post([i + 100, 0, 0, 0]));
            assert!(!ring.post([7; NOTICE_WORDS]), "capacity 2");
            assert_eq!(ring.peek(), Some([i, 0, 0, 0]));
            assert_eq!(ring.peek(), Some([i, 0, 0, 0]), "peek leaves it");
            ring.advance();
            assert_eq!(ring.peek(), Some([i + 100, 0, 0, 0]));
            ring.advance();
            assert_eq!(ring.peek(), None);
        }
        assert_eq!((head.load(Ordering::Relaxed), ring.posted()), (10, 10));
        assert_eq!(ring.untaken_before(10), 0);
    }
}
