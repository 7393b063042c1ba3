//! The ring's placement rule against a sequential reference model.
//!
//! The model knows nothing of counters: it is a map of the region's
//! 8-byte units and the FIFO of live segments, and states the rule in
//! those terms — a segment goes at 0 when nothing is live, otherwise right
//! behind the newest one, or at 0 again if it does not fit before the end;
//! the bytes skipped by such a wrap belong to the segment that wrapped and
//! come back with it; the bytes a *rewind* skips belong to nobody. Random
//! reserve / release / reclaim sequences must place, refuse and account
//! exactly as the model does, through `PartitionAllocator` and through the
//! bare `ring_*` functions the mapped node runs on.

#![cfg(not(feature = "check"))]

use damaris_shm::ring::{ring_in_use, ring_reclaim, ring_release, ring_reserve, Ring, RingWords};
use damaris_shm::{AllocError, PartitionAllocator, Segment};
use proptest::prelude::*;
use std::collections::VecDeque;
use std::sync::atomic::Ordering;

const UNIT: u64 = 8;

fn rounded(len: u64) -> u64 {
    len.div_ceil(UNIT).max(1) * UNIT
}

struct Live {
    pos: u64,
    len: u64,
    /// Units `[pad_from, cap)` skipped by this segment's wrap, if any.
    pad_from: Option<u64>,
}

struct Model {
    cap: u64,
    occupied: Vec<bool>,
    fifo: VecDeque<Live>,
}

impl Model {
    fn new(cap: u64) -> Model {
        Model {
            cap,
            occupied: vec![false; (cap / UNIT) as usize],
            fifo: VecDeque::new(),
        }
    }

    fn set(&mut self, from: u64, to: u64, value: bool) {
        for unit in &mut self.occupied[(from / UNIT) as usize..(to / UNIT) as usize] {
            assert_ne!(*unit, value, "model: live segments overlap");
            *unit = value;
        }
    }

    fn free(&self, from: u64, to: u64) -> bool {
        !self.occupied[(from / UNIT) as usize..(to / UNIT) as usize]
            .iter()
            .any(|&o| o)
    }

    fn in_use(&self) -> u64 {
        self.occupied.iter().filter(|&&o| o).count() as u64 * UNIT
    }

    fn reserve(&mut self, len: u64) -> Result<u64, AllocError> {
        let need = rounded(len);
        if need > self.cap {
            return Err(AllocError::TooLarge);
        }
        let behind = self
            .fifo
            .back()
            .map_or(0, |newest| newest.pos + rounded(newest.len));
        let (pos, pad_from) = if behind + need <= self.cap {
            (behind, None)
        } else {
            (0, Some(behind))
        };
        if !self.free(pos, pos + need) || pad_from.is_some_and(|from| !self.free(from, self.cap)) {
            return Err(AllocError::Full);
        }
        self.set(pos, pos + need, true);
        if let Some(from) = pad_from {
            self.set(from, self.cap, true);
        }
        self.fifo.push_back(Live { pos, len, pad_from });
        Ok(pos)
    }

    fn release(&mut self) -> Option<Live> {
        let oldest = self.fifo.pop_front()?;
        self.set(oldest.pos, oldest.pos + rounded(oldest.len), false);
        if let Some(from) = oldest.pad_from {
            self.set(from, self.cap, false);
        }
        Some(oldest)
    }
}

/// What both implementations offer, so one driver checks both.
trait Subject {
    fn reserve(&mut self, len: u64) -> Result<u64, AllocError>;
    fn release(&mut self, pos: u64, len: u64);
    fn reclaim(&mut self) -> u64;
    fn in_use(&self) -> u64;
}

struct Bare {
    words: RingWords,
    cap: u64,
}

impl Bare {
    fn ring(&self) -> Ring<'_> {
        self.words.ring(self.cap)
    }
}

impl Subject for Bare {
    fn reserve(&mut self, len: u64) -> Result<u64, AllocError> {
        ring_reserve(&self.ring(), len).map(|at| at.start)
    }
    fn release(&mut self, pos: u64, len: u64) {
        ring_release(&self.ring(), pos, len);
    }
    fn reclaim(&mut self) -> u64 {
        ring_reclaim(&self.ring())
    }
    fn in_use(&self) -> u64 {
        ring_in_use(&self.ring())
    }
}

/// Client 1 of 2, so the region does not start at buffer offset 0.
struct Partitioned {
    alloc: PartitionAllocator,
    handles: VecDeque<Segment>,
}

const CLIENT: usize = 1;

impl Subject for Partitioned {
    fn reserve(&mut self, len: u64) -> Result<u64, AllocError> {
        let segment = self.alloc.allocate(CLIENT, len as usize)?;
        let pos = (segment.offset() - self.alloc.region_capacity()) as u64;
        self.handles.push_back(segment);
        Ok(pos)
    }
    fn release(&mut self, pos: u64, len: u64) {
        let segment = self.handles.pop_front().expect("model and subject agree");
        assert_eq!(
            (
                segment.offset() - self.alloc.region_capacity(),
                segment.len()
            ),
            (pos as usize, len as usize)
        );
        self.alloc.release(CLIENT, segment);
    }
    fn reclaim(&mut self) -> u64 {
        self.handles.clear(); // abandoned: the reservations stay
        self.alloc.revoke_remaining(CLIENT) as u64
    }
    fn in_use(&self) -> u64 {
        assert_eq!(self.alloc.in_use(0), 0, "the other region is untouched");
        self.alloc.in_use(CLIENT) as u64
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// A length in thousandths of the ring's capacity.
    Reserve(u64),
    Release,
    Reclaim,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        // Mostly small next to the ring, sometimes most of it or too much.
        6 => (1u64..250).prop_map(Op::Reserve),
        1 => (500u64..1100).prop_map(Op::Reserve),
        6 => Just(Op::Release),
        1 => Just(Op::Reclaim),
    ];
    proptest::collection::vec(op, 1..200)
}

fn check(subject: &mut dyn Subject, cap: u64, ops: &[Op]) {
    let mut model = Model::new(cap);
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Reserve(permille) => {
                let len = (cap * permille / 1000).max(1);
                let was_empty = model.fifo.is_empty();
                let expected = model.reserve(len);
                let got = subject.reserve(len);
                assert_eq!(got, expected, "op {} reserve({})", i, len);
                if was_empty && len <= cap {
                    assert_eq!(got, Ok(0), "op {}: an empty ring starts at 0", i);
                }
            }
            Op::Release => {
                if let Some(oldest) = model.release() {
                    subject.release(oldest.pos, oldest.len);
                }
            }
            Op::Reclaim => {
                let live = model.in_use();
                while model.release().is_some() {}
                assert_eq!(subject.reclaim(), live, "op {} reclaim", i);
                assert_eq!(
                    subject.reclaim(),
                    0,
                    "op {}: a second sweep finds nothing",
                    i
                );
            }
        }
        assert_eq!(
            subject.in_use(),
            model.in_use(),
            "in_use after op {} {:?}",
            i,
            op
        );
    }
    // FIFO release reclaims every pad: drained, the ring is empty, and —
    // wherever its position is — all of it is reservable at once, from 0.
    while let Some(oldest) = model.release() {
        subject.release(oldest.pos, oldest.len);
    }
    assert_eq!(subject.in_use(), 0);
    assert_eq!(subject.reserve(cap), Ok(0));
    assert_eq!(subject.in_use(), cap);
    assert_eq!(subject.reserve(1), Err(AllocError::Full));
    subject.release(0, cap);
    assert_eq!(subject.in_use(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bare_ring_follows_the_model(cap_units in 1u64..48, seed_ops in ops()) {
        let cap = cap_units * UNIT;
        let mut bare = Bare { words: Default::default(), cap };
        check(&mut bare, cap, &seed_ops);
        let RingWords { head, tail, floor } = &bare.words;
        let (head, tail) = (head.load(Ordering::Relaxed), tail.load(Ordering::Relaxed));
        prop_assert_eq!(head, tail, "counters end equal");
        prop_assert!(floor.load(Ordering::Relaxed) <= head);
    }

    #[test]
    fn partition_allocator_follows_the_model(cap_units in 1u64..48, seed_ops in ops()) {
        let cap = cap_units * UNIT;
        let mut partitioned = Partitioned {
            alloc: PartitionAllocator::with_capacity(2 * cap as usize, 2),
            handles: VecDeque::new(),
        };
        check(&mut partitioned, cap, &seed_ops);
    }
}
