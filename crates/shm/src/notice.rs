//! The notice ring: how a compute core tells the dedicated core that a
//! write landed, a region was abandoned, an iteration ended or a user
//! event was signalled, without a lock or a system call — one ring per
//! client, its words wherever the caller lays them out ([`crate::mapped`]
//! in the node's layout; `tests/model.rs` on the heap).
//!
//! A ring is `capacity` slots of [`SLOT_WORDS`] words, a notice of
//! [`NOTICE_WORDS`] at the front of each, and three monotonic counters:
//! `head` (notices posted, by the client), `tail` (notices taken, by the
//! core) and `applied` (notices done, by the core; `applied <= tail`). A
//! slot's first word is 0 while the slot is free (no encoded notice's is),
//! so each side polls the slot it works on next, never the other side's
//! counter. The ring names the client that posted into it, so a notice
//! cannot speak for another one; with one producer per ring there is no
//! compare-and-swap, and a client's notices are taken in the order it
//! posted them.
//!
//! ## The ring is the log
//!
//! Taking a notice ([`NoticeRing::advance`]) leaves its slot as it is:
//! the slot is the core's record of the notice until the core is done
//! with it — a write's segment released, an end's iteration retired, a
//! signal about to be dispatched, a refusal at once. Then the core marks
//! the slot ([`NoticeRing::apply`]: its first word becomes a mark no
//! notice encodes to), and `applied` moves over every marked slot at its
//! front, zeroing each behind it, which frees it. A core that dies leaves
//! `[applied, tail)` behind: its successor finishes a free it was killed
//! in ([`NoticeRing::recover`]), re-reads the notices not marked there
//! ([`NoticeRing::unapplied`]), and only then takes anything at or past
//! `tail`, which is news. Every step is one store, and a kill between
//! any two leaves a ring that `recover` reads the same way.
//!
//! ## Memory-ordering argument (verified under `--features check`)
//!
//! The client stores the slot's other words `Relaxed`, then its first
//! word `Release`: that store publishes the notice and every byte the
//! client wrote before it — the payload copied into its data ring. The
//! core Acquire-loads the first word before reading the others, and once
//! `applied` passes the slot, stores 0 there `Release`; the client
//! Acquire-loads the first word before overwriting a slot, so it never
//! overwrites one the core is still reading. `tail`, `applied` and the
//! marks have one writer, the core, and a successor core is ordered
//! after its predecessor from outside (a thread join; a process started
//! after the kill).

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
/// The kind of [`applied_mark`]'s words, which no notice has.
const KIND_APPLIED: u64 = u32::MAX as u64;

/// The first word the core leaves in the slot of `position` once it is
/// done with that notice: never 0, never a notice's (the client posts
/// only into a zero slot, so never writes one), and naming the position
/// (its low half), so the mark of one lap is not the next one's.
fn applied_mark(position: u64) -> u64 {
    KIND_APPLIED | position << 32
}

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
    pub applied: &'a AtomicU64,
    pub slots: &'a [AtomicU64],
}

impl<'a> NoticeRing<'a> {
    fn capacity(&self) -> u64 {
        (self.slots.len() / SLOT_WORDS) as u64
    }

    /// The whole slot of `position`.
    fn slot(&self, position: u64) -> &'a [AtomicU64] {
        let at = (position & (self.capacity() - 1)) as usize * SLOT_WORDS;
        // ANALYZE: in-bounds(capacity = slots.len() / SLOT_WORDS is a power of two, so at + SLOT_WORDS <= capacity * SLOT_WORDS = slots.len())
        &self.slots[at..at + SLOT_WORDS]
    }

    /// The first word of the slot of `position`: 0, a notice's, or the
    /// core's mark.
    fn first(&self, position: u64) -> &'a AtomicU64 {
        // ANALYZE: in-bounds(a slot is SLOT_WORDS >= 1 words)
        &self.slot(position)[0]
    }

    /// The notice's words in the slot of `position`.
    fn words(&self, position: u64) -> [u64; NOTICE_WORDS] {
        let mut words = [0; NOTICE_WORDS];
        for (value, word) in words.iter_mut().zip(self.slot(position)) {
            // Relaxed: ordered after the client's stores by an Acquire of
            // the first word (`peek`'s, or the one the take was made
            // under); the client changes none of them before the slot is
            // freed.
            *value = word.load(Ordering::Relaxed);
        }
        words
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
        // Acquire: pairs with the core's Release as it frees the slot,
        // ordering its reads of the slot before our overwrite of it.
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
        // Relaxed: only the core writes `tail` and `applied`.
        let t = self.tail.load(Ordering::Relaxed);
        if t.wrapping_sub(self.applied.load(Ordering::Relaxed)) >= self.capacity() {
            // The slot of `t` still holds the notice a lap before it.
            return None;
        }
        let slot = self.slot(t);
        // Acquire: pairs with the client's Release in `post`.
        if slot.first()?.load(Ordering::Acquire) == 0 {
            return None;
        }
        Some(self.words(t))
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

    /// Takes the notice [`peek`](Self::peek) returned and returns its
    /// position. Its slot stays the core's until [`apply`](Self::apply)
    /// is called with that position.
    pub fn advance(&self) -> u64 {
        // Relaxed: only the core writes `tail`.
        let t = self.tail.load(Ordering::Relaxed);
        self.tail.store(t + 1, Ordering::Relaxed);
        t
    }

    /// Takes the notice [`peek`](Self::peek) returned and applies it at
    /// once: a refusal. The slot is marked before `tail` passes it, so a
    /// core killed in between leaves its successor no refused notice to
    /// replay, only a mark at `tail`, which decodes as no notice.
    pub fn refuse(&self) {
        // Relaxed: only the core writes `tail` and the mark.
        let t = self.tail.load(Ordering::Relaxed);
        self.first(t).store(applied_mark(t), Ordering::Relaxed);
        self.tail.store(t + 1, Ordering::Relaxed);
        self.free_front(&mut || true);
    }

    /// The core is done with the notice it took at `position`: marks its
    /// slot, then moves `applied` over every marked slot at its front,
    /// freeing each for the client. Idempotent: a position `applied`
    /// passed already is left alone, its slot being another's now.
    pub fn apply(&self, position: u64) {
        self.apply_stepwise(position, &mut || true);
    }

    /// [`apply`](Self::apply), asking `alive` before each of its stores
    /// and stopping at the first `false`: a core killed between any two
    /// of them, as `tests/model.rs` kills one. Whether it made them all.
    pub fn apply_stepwise(&self, position: u64, alive: &mut impl FnMut() -> bool) -> bool {
        // Relaxed: only the core writes `applied`.
        if position < self.applied.load(Ordering::Relaxed) {
            return true;
        }
        if !alive() {
            return false;
        }
        // Relaxed: the slot is the core's until `free_front` zeroes it.
        self.first(position)
            .store(applied_mark(position), Ordering::Relaxed);
        self.free_front(alive)
    }

    /// Moves `applied` over the marked slots at the ring's front, a slot
    /// at a time: `applied` passes it, then its first word is zeroed. A
    /// core killed between the two leaves the mark of `applied - 1`,
    /// which [`recover`](Self::recover) zeroes; no order of the two
    /// stores lets a successor zero a slot the client posted into since.
    fn free_front(&self, alive: &mut impl FnMut() -> bool) -> bool {
        // Relaxed: only the core writes `tail`, `applied` and the marks.
        let mut a = self.applied.load(Ordering::Relaxed);
        let t = self.tail.load(Ordering::Relaxed);
        while a < t && self.first(a).load(Ordering::Relaxed) == applied_mark(a) {
            if !alive() {
                return false;
            }
            self.applied.store(a + 1, Ordering::Relaxed);
            if !alive() {
                return false;
            }
            // Release: the slot is the client's again once our reads of it
            // are done — pairs with the Acquire of the first word in `post`.
            self.first(a).store(0, Ordering::Release);
            a += 1;
        }
        true
    }

    /// A successor's first act on the ring: finishes a free its
    /// predecessor was killed in — zeroes the mark `applied` passed, and
    /// moves `applied` over a marked front — so that
    /// [`unapplied`](Self::unapplied) is what is left to replay.
    pub fn recover(&self) {
        // Relaxed: the core's own words, written by a predecessor that is
        // ordered before this core.
        let a = self.applied.load(Ordering::Relaxed);
        if let Some(passed) = a.checked_sub(1) {
            let first = self.first(passed);
            // Relaxed: a client's concurrent post writes a notice here,
            // never the mark, and only once the slot is zero.
            if first.load(Ordering::Relaxed) == applied_mark(passed) {
                // Release: as in `free_front`.
                first.store(0, Ordering::Release);
            }
        }
        self.free_front(&mut || true);
    }

    /// The notices taken and not yet marked, oldest first, with their
    /// positions: what a core that died left undone, for its successor to
    /// replay after [`recover`](Self::recover). Read whole before any is
    /// applied, which may free slots.
    pub fn unapplied(&self) -> Vec<(u64, [u64; NOTICE_WORDS])> {
        // Relaxed: the core's own words, written by a predecessor that is
        // ordered before this core.
        let (a, t) = (
            self.applied.load(Ordering::Relaxed),
            self.tail.load(Ordering::Relaxed),
        );
        (a..t)
            .filter(|&p| self.first(p).load(Ordering::Relaxed) != applied_mark(p))
            .map(|p| (p, self.words(p)))
            .collect()
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
        assert_eq!(Notice::decode([applied_mark(3), 0, 0, 0]), None);
    }

    #[test]
    fn a_full_ring_refuses_until_the_core_applies_one() {
        let words: Vec<AtomicU64> = (0..3 + 2 * SLOT_WORDS).map(|_| AtomicU64::new(0)).collect();
        let [head, tail, applied, slots @ ..] = &words[..] else {
            unreachable!()
        };
        let ring = NoticeRing {
            head,
            tail,
            applied,
            slots,
        };
        assert_eq!(ring.peek(), None);
        for i in 1..6u64 {
            assert!(ring.post([i, 0, 0, 0]));
            assert!(ring.post([i + 100, 0, 0, 0]));
            assert!(!ring.post([7; NOTICE_WORDS]), "capacity 2");
            assert_eq!(ring.peek(), Some([i, 0, 0, 0]));
            assert_eq!(ring.peek(), Some([i, 0, 0, 0]), "peek leaves it");
            let first = ring.advance();
            assert_eq!(ring.peek(), Some([i + 100, 0, 0, 0]));
            let second = ring.advance();
            assert_eq!(ring.peek(), None);
            // Taken is not free: both slots are the core's until applied,
            // and `applied` passes only a stamped front.
            assert!(!ring.post([7; NOTICE_WORDS]), "taken, not applied");
            assert_eq!(ring.peek(), None, "a lap behind is not news");
            let unapplied = ring.unapplied();
            assert_eq!(
                unapplied,
                [(first, [i, 0, 0, 0]), (second, [i + 100, 0, 0, 0])]
            );
            ring.apply(second);
            assert!(!ring.post([7; NOTICE_WORDS]), "the front is not applied");
            assert_eq!(
                ring.unapplied()
                    .into_iter()
                    .map(|(p, _)| p)
                    .collect::<Vec<_>>(),
                [first]
            );
            ring.apply(first);
            ring.apply(first);
            assert_eq!(applied.load(Ordering::Relaxed), second + 1);
            assert_eq!(ring.unapplied().len(), 0);
        }
        assert_eq!((head.load(Ordering::Relaxed), ring.posted()), (10, 10));
        assert_eq!(ring.untaken_before(10), 0);
        assert!(slots.iter().all(|word| word.load(Ordering::Relaxed) == 0));
    }

    #[test]
    fn a_core_killed_inside_apply_leaves_what_recover_finishes() {
        let words: Vec<AtomicU64> = (0..3 + 2 * SLOT_WORDS).map(|_| AtomicU64::new(0)).collect();
        let [head, tail, applied, slots @ ..] = &words[..] else {
            unreachable!()
        };
        let ring = NoticeRing {
            head,
            tail,
            applied,
            slots,
        };
        assert!(ring.post([1, 0, 0, 0]) && ring.post([2, 0, 0, 0]));
        let (first, _) = (ring.advance(), ring.advance());
        // Killed after `applied` passed the first slot, before its zero.
        let mut stores = 0;
        assert!(!ring.apply_stepwise(first, &mut || {
            stores += 1;
            stores <= 2
        }));
        assert_eq!(applied.load(Ordering::Relaxed), 1);
        assert!(!ring.post([3, 0, 0, 0]), "the mark holds the slot");
        ring.recover();
        assert_eq!(ring.unapplied(), [(1, [2, 0, 0, 0])]);
        assert!(ring.post([3, 0, 0, 0]));
        // A second successor leaves the client's post where the mark was.
        ring.recover();
        ring.apply(1);
        assert_eq!(ring.peek(), Some([3, 0, 0, 0]));
        // A refusal is marked before `tail` passes it: nothing to replay.
        ring.refuse();
        assert_eq!(
            (tail.load(Ordering::Relaxed), ring.unapplied().len()),
            (3, 0)
        );
        assert_eq!(applied.load(Ordering::Relaxed), 3);
        assert!(slots.iter().all(|word| word.load(Ordering::Relaxed) == 0));
    }
}
