//! Sharded block cache that admits a block on its second miss.
//!
//! Decoded blocks (one dataset payload each) live behind `Arc`s in a
//! fixed set of shards; each shard is an independently locked hash map
//! with its own slice of the byte budget, so concurrent readers on
//! different blocks rarely touch the same lock at all.
//!
//! A block's first miss does not cache it: it leaves only the block's id
//! behind — a slot without data in the shard's map, and an entry in the
//! shard's *ghost*, a FIFO of first misses. A block missed again while
//! its id is remembered is admitted into the shard's LRU. Blocks that are
//! read once — a point lookup of fresh data, the newest block of a window
//! that then moves on — thus cost the cache an id, not their bytes. The
//! ghost remembers ids until the blocks they name would fill the shard's
//! budget, and the ids are charged to that budget: what a shard holds,
//! blocks and ids, never exceeds it. The price is one extra read of every
//! block that is read again. Remembered ids live in the map the hit path
//! probes anyway, so a first miss writes one more slot and one queue
//! entry, and looks nothing else up.
//!
//! The *hit* path is the product here: a `try_lock` on one shard, a hash
//! probe, a recency stamp, and an `Arc::clone` of the payload — no
//! allocation, no blocking, no panic path. `cargo run -p xtask --
//! analyze` verifies that closure. Contended hits, misses, admission and
//! eviction are all `#[cold]` — they end in file I/O anyway.

use damaris_obs::{Counter, Registry};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard};

/// A cached, decoded dataset payload. Cloning is reference-count only.
pub type Block = Arc<Vec<u8>>;

/// Cache key: which file (engine-assigned stable id) and which dataset
/// ordinal within it. SDF files are immutable once published, so a
/// `BlockId` names one exact byte string forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockId {
    /// Engine-assigned id of the file (stable per relative path).
    pub file: u64,
    /// Dataset ordinal within the file's index.
    pub ordinal: u32,
}

/// Fixed shard count; power of two so the selector is a mask.
const SHARDS: usize = 16;
/// Approximate bookkeeping overhead charged per cached block: its map
/// slot, and the queue entry its first miss may have left behind.
const SLOT_OVERHEAD: u64 = 64;
/// Approximate bookkeeping overhead charged per remembered id: its map
/// slot and its queue entry.
const GHOST_OVERHEAD: u64 = 64;

/// A map slot: a resident block, or the id of a block missed once.
struct Slot {
    /// The block; `None` while only its id is remembered.
    data: Option<Block>,
    /// Resident: the tick of its last use. Remembered: the tick it was
    /// remembered at, which its [`Remembered`] entry repeats.
    tick: u64,
}

/// One first miss in a shard's ghost queue.
struct Remembered {
    id: BlockId,
    /// The tick of the slot this entry remembered. A slot admitted since,
    /// or remembered again later, no longer carries it: the entry is inert.
    tick: u64,
    /// What the block would cost resident.
    cost: u64,
}

#[derive(Default)]
struct Shard {
    /// Resident blocks and remembered ids, one probe for both.
    map: HashMap<BlockId, Slot>,
    /// Bytes of the blocks held (payload + [`SLOT_OVERHEAD`] each).
    bytes: u64,
    /// Monotonic recency clock, bumped on every touch.
    tick: u64,
    /// The ghost: first misses, oldest first.
    ghost: VecDeque<Remembered>,
    /// Sum of the costs in `ghost`.
    named: u64,
    /// Slots holding a remembered id (the live entries of `ghost`).
    remembered: u64,
}

impl Shard {
    /// Bytes charged to the shard's budget for the ids remembered.
    fn ghost_bytes(&self) -> u64 {
        self.remembered * GHOST_OVERHEAD
    }

    /// Remembers `id`, stamped `tick`, forgetting the oldest ids while the
    /// blocks named would not fit `budget`.
    fn remember(&mut self, id: BlockId, tick: u64, cost: u64, budget: u64) {
        self.map.insert(id, Slot { data: None, tick });
        self.ghost.push_back(Remembered { id, tick, cost });
        self.named += cost;
        self.remembered += 1;
        while self.named > budget && self.forget_oldest() {}
    }

    /// Forgets the oldest first miss; `false` when there is none. Its slot
    /// goes too, unless it was admitted or remembered again since.
    fn forget_oldest(&mut self) -> bool {
        let Some(oldest) = self.ghost.pop_front() else {
            return false;
        };
        self.named -= oldest.cost;
        if let Some(slot) = self.map.get(&oldest.id) {
            if slot.data.is_none() && slot.tick == oldest.tick {
                self.map.remove(&oldest.id);
                self.remembered -= 1;
            }
        }
        true
    }

    /// Evicts least-recently-used blocks, then forgets the oldest ids,
    /// until `extra` more bytes fit `budget` beside what is held.
    /// Returns the number of blocks evicted.
    fn shed(&mut self, budget: u64, extra: u64) -> u64 {
        let mut evicted = 0;
        while self.bytes + self.ghost_bytes() + extra > budget {
            let lru = self
                .map
                .iter()
                .filter(|(_, s)| s.data.is_some())
                .min_by_key(|(_, s)| s.tick)
                .map(|(&id, _)| id);
            if let Some(victim) = lru {
                if let Some(Slot {
                    data: Some(gone), ..
                }) = self.map.remove(&victim)
                {
                    self.bytes -= gone.len() as u64 + SLOT_OVERHEAD;
                    evicted += 1;
                }
            } else if !self.forget_oldest() {
                break;
            }
        }
        evicted
    }
}

/// Point-in-time cache effectiveness numbers (also exported through the
/// engine's [`Registry`] as `query.cache_*` counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// Blocks read and not admitted: a first miss, or a block larger
    /// than a shard's budget.
    pub declined: u64,
    /// Bytes of the blocks resident across all shards right now (the
    /// ghosts' ids not counted).
    pub resident_bytes: u64,
}

/// The sharded cache. Shareable across threads (`&self` everywhere).
pub struct BlockCache {
    shards: Vec<Mutex<Shard>>,
    /// Byte budget per shard (total budget / [`SHARDS`], at least one).
    shard_budget: u64,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    declined: Counter,
}

/// Locks a shard, recovering from a poisoned mutex: a shard holds
/// `Arc`s, ids and byte counts, and nothing that updates them panics.
fn lock_shard(m: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl BlockCache {
    /// A cache holding at most `byte_budget` bytes of blocks and
    /// remembered ids, registering its counters in `registry` as
    /// `query.cache_hits`, `query.cache_misses`, `query.cache_evictions`
    /// and `query.cache_declined`.
    pub fn new(byte_budget: u64, registry: &Registry) -> BlockCache {
        BlockCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            shard_budget: (byte_budget / SHARDS as u64).max(1),
            hits: registry.counter("query.cache_hits"),
            misses: registry.counter("query.cache_misses"),
            evictions: registry.counter("query.cache_evictions"),
            declined: registry.counter("query.cache_declined"),
        }
    }

    #[inline]
    fn shard_of(id: BlockId) -> usize {
        // Fibonacci-style mix so file ids that differ only in low bits
        // still spread across shards.
        let h = (id.file ^ u64::from(id.ordinal).wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (h >> 32) as usize & (SHARDS - 1)
    }

    /// Looks up a block, stamping recency on hit. The uncontended hit is
    /// the no-alloc, no-block fast path; a busy shard falls through to
    /// the blocking `#[cold]` twin rather than spinning.
    // ANALYZE: hot
    pub fn get(&self, id: BlockId) -> Option<Block> {
        let shard = self.shards.get(Self::shard_of(id))?;
        let mut guard = match shard.try_lock() {
            Ok(g) => g,
            Err(_) => return self.get_contended(id),
        };
        guard.tick += 1;
        let now = guard.tick;
        match guard.map.get_mut(&id) {
            Some(Slot {
                data: Some(data),
                tick,
            }) => {
                *tick = now;
                let block = Arc::clone(data);
                drop(guard);
                self.hits.inc();
                Some(block)
            }
            _ => {
                drop(guard);
                self.misses.inc();
                None
            }
        }
    }

    /// Slow twin of [`get`](BlockCache::get) for a contended shard.
    #[cold]
    fn get_contended(&self, id: BlockId) -> Option<Block> {
        let mut guard = lock_shard(&self.shards[Self::shard_of(id)]);
        guard.tick += 1;
        let now = guard.tick;
        match guard.map.get_mut(&id) {
            Some(Slot {
                data: Some(data),
                tick,
            }) => {
                *tick = now;
                let block = Arc::clone(data);
                drop(guard);
                self.hits.inc();
                Some(block)
            }
            _ => {
                drop(guard);
                self.misses.inc();
                None
            }
        }
    }

    /// Offers a block just read after a miss. The first offer of a block
    /// only remembers its id; an offer while the id is remembered admits
    /// the block, evicting least-recently-used blocks until the shard
    /// fits its budget. A block larger than a whole shard's budget is
    /// never admitted (it would only evict everything and then be evicted
    /// itself next admission).
    #[cold]
    pub fn insert(&self, id: BlockId, data: Block) {
        let cost = data.len() as u64 + SLOT_OVERHEAD;
        if cost > self.shard_budget {
            self.declined.inc();
            return;
        }
        let mut guard = lock_shard(&self.shards[Self::shard_of(id)]);
        let shard = &mut *guard;
        shard.tick += 1;
        let now = shard.tick;
        match shard.map.get_mut(&id) {
            Some(Slot {
                data: Some(_),
                tick,
            }) => {
                // Racing insert of the same block: keep the resident copy.
                *tick = now;
                return;
            }
            Some(slot @ Slot { data: None, .. }) => {
                // Missed again while remembered: admit. Restamped, the slot
                // leaves its queue entry inert until it reaches the front.
                slot.tick = now;
                shard.remembered -= 1;
            }
            None => {
                shard.remember(id, now, cost, self.shard_budget);
                let evicted = shard.shed(self.shard_budget, 0);
                drop(guard);
                self.count_evictions(evicted);
                self.declined.inc();
                return;
            }
        }
        let evicted = shard.shed(self.shard_budget, cost);
        shard.bytes += cost;
        shard.map.insert(
            id,
            Slot {
                data: Some(data),
                tick: now,
            },
        );
        drop(guard);
        self.count_evictions(evicted);
    }

    /// Adds `evicted` to the eviction counter, leaving it untouched (and
    /// its cache line cold) when nothing was evicted.
    fn count_evictions(&self, evicted: u64) {
        if evicted > 0 {
            self.evictions.add(evicted);
        }
    }

    /// Drops every block and every remembered id of the files in `files`
    /// — the engine calls it for the files a refresh stopped listing
    /// (superseded by a compaction), whose blocks no new snapshot reads.
    #[cold]
    pub fn forget_files(&self, files: &HashSet<u64>) {
        if files.is_empty() {
            return;
        }
        for shard in &self.shards {
            let mut guard = lock_shard(shard);
            let shard = &mut *guard;
            let (bytes, remembered) = (&mut shard.bytes, &mut shard.remembered);
            shard.map.retain(|id, slot| {
                let kept = !files.contains(&id.file);
                match (kept, &slot.data) {
                    (true, _) => {}
                    (false, Some(data)) => *bytes -= data.len() as u64 + SLOT_OVERHEAD,
                    (false, None) => *remembered -= 1,
                }
                kept
            });
            let named = &mut shard.named;
            shard.ghost.retain(|entry| {
                let kept = !files.contains(&entry.id.file);
                if !kept {
                    *named -= entry.cost;
                }
                kept
            });
        }
    }

    /// Current effectiveness counters.
    pub fn stats(&self) -> CacheStats {
        let resident_bytes = self.shards.iter().map(|s| lock_shard(s).bytes).sum();
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            declined: self.declined.get(),
            resident_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(n: usize, fill: u8) -> Block {
        Arc::new(vec![fill; n])
    }

    /// `n` ids that all land in shard 0.
    fn same_shard(n: usize) -> Vec<BlockId> {
        let ids: Vec<BlockId> = (0..100_000u64)
            .map(|f| BlockId {
                file: f,
                ordinal: 0,
            })
            .filter(|&id| BlockCache::shard_of(id) == 0)
            .take(n)
            .collect();
        assert_eq!(ids.len(), n);
        ids
    }

    /// Offers `data` twice, as two misses of the same block would.
    fn admit(cache: &BlockCache, id: BlockId, data: Block) {
        cache.insert(id, Arc::clone(&data));
        cache.insert(id, data);
    }

    #[test]
    fn hit_miss_and_recency() {
        let reg = Registry::new();
        let cache = BlockCache::new(1 << 20, &reg);
        let id = BlockId {
            file: 1,
            ordinal: 0,
        };
        assert!(cache.get(id).is_none());
        admit(&cache, id, block(100, 7));
        let got = cache.get(id).expect("cached");
        assert_eq!(got.as_slice(), &[7u8; 100][..]);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(reg.counter("query.cache_hits").get(), 1);
    }

    #[test]
    fn a_block_offered_once_is_not_resident() {
        let reg = Registry::new();
        let cache = BlockCache::new(1 << 20, &reg);
        let id = BlockId {
            file: 3,
            ordinal: 1,
        };
        cache.insert(id, block(100, 1));
        assert!(cache.get(id).is_none());
        let stats = cache.stats();
        assert_eq!((stats.resident_bytes, stats.declined), (0, 1));
        assert_eq!(reg.counter("query.cache_declined").get(), 1);
    }

    #[test]
    fn a_second_offer_admits_the_block() {
        let reg = Registry::new();
        let cache = BlockCache::new(1 << 20, &reg);
        let id = BlockId {
            file: 3,
            ordinal: 1,
        };
        cache.insert(id, block(100, 1));
        cache.insert(id, block(100, 1));
        assert_eq!(cache.get(id).expect("admitted").as_slice(), &[1u8; 100][..]);
        let stats = cache.stats();
        assert_eq!(stats.resident_bytes, 100 + SLOT_OVERHEAD);
        assert_eq!(stats.declined, 1);
        // Admitted: one slot, holding the block; its queue entry is inert.
        let mut shard = lock_shard(&cache.shards[BlockCache::shard_of(id)]);
        assert_eq!((shard.map.len(), shard.remembered), (1, 0));
        assert!(shard.forget_oldest());
        assert!(
            shard.map[&id].data.is_some(),
            "forgetting an admitted id keeps its block"
        );
    }

    #[test]
    fn an_id_is_forgotten_after_one_shard_budget_of_other_misses() {
        let cost = 1000 + SLOT_OVERHEAD;
        let ids = same_shard(5);
        // Other misses naming one block less than a shard's budget: the
        // first id is still remembered, and its second offer admits it.
        let reg = Registry::new();
        let cache = BlockCache::new(cost * 4 * SHARDS as u64, &reg);
        cache.insert(ids[0], block(1000, 0));
        for &other in &ids[1..4] {
            cache.insert(other, block(1000, 1));
        }
        cache.insert(ids[0], block(1000, 0));
        assert!(cache.get(ids[0]).is_some(), "remembered within the budget");
        // One shard budget of other misses: forgotten, so offered again it
        // is a first miss.
        let reg = Registry::new();
        let cache = BlockCache::new(cost * 4 * SHARDS as u64, &reg);
        cache.insert(ids[0], block(1000, 0));
        for &other in &ids[1..5] {
            cache.insert(other, block(1000, 1));
        }
        cache.insert(ids[0], block(1000, 0));
        assert!(cache.get(ids[0]).is_none(), "forgotten past the budget");
        assert_eq!(cache.stats().declined, 6);
    }

    #[test]
    fn blocks_and_ghost_stay_within_budget_under_a_stream_of_tiny_blocks() {
        let reg = Registry::new();
        let budget = 4096 * SHARDS as u64;
        let cache = BlockCache::new(budget, &reg);
        let mut ghost_peak = 0;
        for f in 0..20_000u64 {
            let id = BlockId {
                file: f,
                ordinal: 0,
            };
            cache.insert(id, block(8, 0));
            // Every fourth block is read again right away and admitted.
            if f % 4 == 0 {
                cache.insert(id, block(8, 0));
            }
            let shard = lock_shard(&cache.shards[BlockCache::shard_of(id)]);
            assert!(
                shard.bytes + shard.ghost_bytes() <= cache.shard_budget,
                "{} B of blocks + {} B of ghost over a {} B shard",
                shard.bytes,
                shard.ghost_bytes(),
                cache.shard_budget
            );
            assert!(shard.named <= cache.shard_budget);
            // Every remembered slot has its queue entry.
            let remembered = shard.map.values().filter(|s| s.data.is_none()).count();
            assert_eq!(remembered as u64, shard.remembered);
            assert!(remembered <= shard.ghost.len());
            ghost_peak = ghost_peak.max(shard.ghost_bytes());
        }
        let stats = cache.stats();
        assert!(stats.resident_bytes > 0 && ghost_peak > 0, "{stats:?}");
        assert!(stats.resident_bytes <= budget);
        assert!(stats.evictions > 0);
    }

    #[test]
    fn lru_evicts_least_recently_used_within_budget() {
        let reg = Registry::new();
        // Budget for ~3 blocks of 1000 bytes in one shard; use ids that
        // land in the same shard by brute-force search.
        let cache = BlockCache::new((1000 + 64) * 3 * SHARDS as u64, &reg);
        let shard0 = same_shard(4);
        for (i, &id) in shard0.iter().take(3).enumerate() {
            admit(&cache, id, block(1000, i as u8));
        }
        // Touch 0 and 2 so 1 is the LRU victim.
        assert!(cache.get(shard0[0]).is_some());
        assert!(cache.get(shard0[2]).is_some());
        admit(&cache, shard0[3], block(1000, 3));
        assert!(cache.get(shard0[1]).is_none(), "LRU slot evicted");
        assert!(cache.get(shard0[0]).is_some());
        assert!(cache.get(shard0[2]).is_some());
        assert!(cache.get(shard0[3]).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn oversized_blocks_are_not_cached() {
        let reg = Registry::new();
        let cache = BlockCache::new(SHARDS as u64 * 128, &reg);
        let id = BlockId {
            file: 9,
            ordinal: 9,
        };
        admit(&cache, id, block(4096, 1));
        assert!(cache.get(id).is_none());
        assert_eq!(cache.stats().resident_bytes, 0);
        assert_eq!(cache.stats().declined, 2);
    }

    #[test]
    fn forgetting_every_file_empties_every_shard() {
        let reg = Registry::new();
        let cache = BlockCache::new(1 << 20, &reg);
        for f in 0..64u64 {
            admit(
                &cache,
                BlockId {
                    file: f,
                    ordinal: 0,
                },
                block(32, 0),
            );
        }
        // Remembered, not admitted.
        cache.insert(
            BlockId {
                file: 7,
                ordinal: 1,
            },
            block(32, 0),
        );
        assert!(cache.stats().resident_bytes > 0);
        cache.forget_files(&(0..64u64).collect());
        assert_eq!(cache.stats().resident_bytes, 0);
        assert!(cache
            .get(BlockId {
                file: 0,
                ordinal: 0
            })
            .is_none());
        for shard in &cache.shards {
            let shard = lock_shard(shard);
            assert_eq!((shard.ghost_bytes(), shard.named), (0, 0));
            assert!(shard.map.is_empty() && shard.ghost.is_empty());
        }
        // The forgotten id offered again is a first miss.
        cache.insert(
            BlockId {
                file: 7,
                ordinal: 1,
            },
            block(32, 0),
        );
        assert!(cache
            .get(BlockId {
                file: 7,
                ordinal: 1
            })
            .is_none());
    }

    #[test]
    fn forgetting_some_files_keeps_the_others() {
        let reg = Registry::new();
        let cache = BlockCache::new(1 << 20, &reg);
        for f in 0..8u64 {
            admit(
                &cache,
                BlockId {
                    file: f,
                    ordinal: 0,
                },
                block(32, f as u8),
            );
        }
        cache.forget_files(&(0..8u64).filter(|f| f % 2 == 0).collect());
        for f in 0..8u64 {
            let held = cache.get(BlockId {
                file: f,
                ordinal: 0,
            });
            assert_eq!(held.is_some(), f % 2 == 1, "file {f}");
        }
        assert_eq!(cache.stats().resident_bytes, 4 * (32 + SLOT_OVERHEAD));
    }

    #[test]
    fn concurrent_readers_share_blocks() {
        let reg = Registry::new();
        let cache = Arc::new(BlockCache::new(1 << 20, &reg));
        for f in 0..32u64 {
            admit(
                &cache,
                BlockId {
                    file: f,
                    ordinal: 0,
                },
                block(64, f as u8),
            );
        }
        let mut handles = Vec::new();
        for t in 0..8 {
            let cache = Arc::clone(&cache);
            handles.push(std::thread::spawn(move || {
                for round in 0..200u64 {
                    let f = (t + round * 7) % 32;
                    if let Some(b) = cache.get(BlockId {
                        file: f,
                        ordinal: 0,
                    }) {
                        assert_eq!(b[0], f as u8);
                    }
                }
            }));
        }
        for h in handles {
            h.join().expect("reader thread");
        }
        assert!(cache.stats().hits > 0);
    }
}
