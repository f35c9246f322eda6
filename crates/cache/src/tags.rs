//! Flat tag storage of a set-associative cache: the tags of every way of
//! every set in one contiguous array (the ways' replacement state in a
//! parallel one), the aggregate statistics and cold-miss tracking.
//!
//! [`TagArray`] is the lean core: it answers hit/miss, picks victims under
//! the four [`ReplacementPolicy`]s and counts [`CacheStats`], but does no
//! per-task or per-region attribution. The private L1 filter of the replay
//! pipeline runs on it directly (only its aggregate statistics are ever
//! read); [`SetAssocCache`](crate::SetAssocCache) wraps it and adds the
//! attribution the L2 organisations report.

use std::collections::HashSet;
use std::hash::BuildHasherDefault;

use serde::{Deserialize, Serialize};

use compmem_trace::{Access, LineAddr};

use crate::cache::{AccessOutcome, EvictedLine, LineAddrHasher};
use crate::config::CacheConfig;
use crate::geometry::CacheGeometry;
use crate::replacement::ReplacementPolicy;
use crate::stats::CacheStats;

/// Tag of an empty way. Tags are full line addresses (byte address / 64),
/// so no real line ever carries it.
const EMPTY: u64 = u64::MAX;

type LineSet = HashSet<LineAddr, BuildHasherDefault<LineAddrHasher>>;

/// Replacement and write-back state of one way (its tag lives in the
/// separate tag array, so a lookup scans tags only).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
struct Way {
    dirty: bool,
    /// Clock of the last use (LRU and the masked fallback of tree-PLRU).
    used: u64,
    /// Clock of the fill (FIFO).
    filled: u64,
}

/// Per-set replacement state that is not per way.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct SetState {
    /// Tree-PLRU internal-node bits.
    plru: u64,
    /// Deterministic xorshift state for the random policy.
    rng: u64,
}

/// Outcome of accessing one set: whether the tag was present, and the tag
/// and dirtiness of the line evicted to make room, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SetOutcome {
    hit: bool,
    evicted: Option<(u64, bool)>,
}

/// A set-associative, write-back, write-allocate tag array with aggregate
/// statistics and cold-miss tracking.
///
/// Way-partitioned organisations pass an `allowed_ways` bit mask
/// restricting both where a line may be filled and which ways may be
/// victimised; the other organisations pass an all-ones mask. A hit counts
/// wherever the line lives (a line filled before a repartitioning may sit
/// outside the current mask, as in column caching).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TagArray {
    geometry: CacheGeometry,
    policy: ReplacementPolicy,
    /// Ways per set.
    assoc: usize,
    /// `sets × assoc` tags, set-major; [`EMPTY`] marks a free way.
    tags: Vec<u64>,
    /// The state of each way, indexed like `tags`.
    ways: Vec<Way>,
    sets: Vec<SetState>,
    /// Event counter for the use and fill stamps. One clock serves every
    /// set: stamps are only ever compared within a set, where a shared
    /// monotonic clock orders them exactly as a per-set one would.
    clock: u64,
    stats: CacheStats,
    seen_lines: LineSet,
}

impl TagArray {
    /// Creates an empty tag array from a configuration.
    pub fn new(config: CacheConfig) -> Self {
        let geometry = config.geometry();
        let assoc = geometry.ways() as usize;
        let sets = (0..geometry.sets())
            .map(|i| SetState {
                plru: 0,
                rng: (config.random_seed() ^ u64::from(i)) | 1,
            })
            .collect();
        TagArray {
            geometry,
            policy: config.replacement_policy(),
            assoc,
            tags: vec![EMPTY; geometry.sets() as usize * assoc],
            ways: vec![Way::default(); geometry.sets() as usize * assoc],
            sets,
            clock: 0,
            stats: CacheStats::new(),
            seen_lines: LineSet::default(),
        }
    }

    /// Returns the geometry of the cache.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Returns the replacement policy of the cache.
    pub fn replacement_policy(&self) -> ReplacementPolicy {
        self.policy
    }

    /// Accesses the cache with conventional (modulo) set indexing.
    #[inline]
    pub fn access(&mut self, access: &Access) -> AccessOutcome {
        let index = self.geometry.index_of(access.addr.line());
        self.access_in(index as usize, u64::MAX, access)
    }

    /// Accesses the cache at an explicitly chosen set index, restricted to
    /// the ways allowed by `allowed_ways`.
    ///
    /// # Panics
    ///
    /// Panics if `set_index` is out of range, or if the set is full and
    /// `allowed_ways` selects none of its ways.
    pub fn access_at(
        &mut self,
        set_index: u32,
        allowed_ways: u64,
        access: &Access,
    ) -> AccessOutcome {
        assert!(
            set_index < self.geometry.sets(),
            "set index {set_index} out of range ({} sets)",
            self.geometry.sets()
        );
        self.access_in(set_index as usize, allowed_ways, access)
    }

    #[inline]
    fn access_in(&mut self, set: usize, allowed_ways: u64, access: &Access) -> AccessOutcome {
        let line = access.addr.line();
        let outcome = self.access_set(
            set,
            self.geometry.tag_of(line),
            access.kind.is_write(),
            allowed_ways,
        );
        let evicted = outcome.evicted.map(|(tag, dirty)| EvictedLine {
            line: LineAddr::new(tag),
            dirty,
        });
        // Cold tracking only needs the set membership test on a miss: a hit
        // line is resident, so it was necessarily inserted when it was
        // first filled.
        let cold = !outcome.hit && self.seen_lines.insert(line);
        let writeback = evicted.is_some_and(|e| e.dirty);
        self.stats.record(access.kind, outcome.hit, cold, writeback);
        AccessOutcome {
            hit: outcome.hit,
            cold,
            evicted,
        }
    }

    /// Accesses `tag` in set `set`: a hit touches the line (and marks it
    /// dirty on a write); a miss fills a free allowed way, else evicts the
    /// policy victim among the allowed ways.
    #[inline]
    fn access_set(
        &mut self,
        set: usize,
        tag: u64,
        is_write: bool,
        allowed_ways: u64,
    ) -> SetOutcome {
        self.clock += 1;
        let clock = self.clock;
        let base = set * self.assoc;
        if let Some(way) = self.tags[base..base + self.assoc]
            .iter()
            .position(|&t| t == tag)
        {
            let state = &mut self.ways[base + way];
            state.used = clock;
            state.dirty |= is_write;
            if self.policy == ReplacementPolicy::TreePlru {
                self.plru_touch(set, way);
            }
            return SetOutcome {
                hit: true,
                evicted: None,
            };
        }
        self.fill(set, tag, is_write, allowed_ways)
    }

    /// The miss path of [`access_set`](Self::access_set).
    #[inline(never)]
    fn fill(&mut self, set: usize, tag: u64, is_write: bool, allowed_ways: u64) -> SetOutcome {
        let clock = self.clock;
        let base = set * self.assoc;
        let tags = &self.tags[base..base + self.assoc];
        let way = match (0..self.assoc).find(|&w| allowed_ways & bit(w) != 0 && tags[w] == EMPTY) {
            Some(way) => way,
            None => self.victim(set, allowed_ways),
        };
        let old = std::mem::replace(&mut self.tags[base + way], tag);
        let slot = &mut self.ways[base + way];
        let evicted = (old != EMPTY).then_some((old, slot.dirty));
        *slot = Way {
            dirty: is_write,
            used: clock,
            filled: clock,
        };
        if self.policy == ReplacementPolicy::TreePlru {
            self.plru_touch(set, way);
        }
        SetOutcome {
            hit: false,
            evicted,
        }
    }

    /// The victim way among the allowed ways of a full set. Walks the mask
    /// bits in way order; nothing is allocated.
    fn victim(&mut self, set: usize, allowed_ways: u64) -> usize {
        let span = if self.assoc >= 64 {
            u64::MAX
        } else {
            bit(self.assoc) - 1
        };
        let mask = allowed_ways & span;
        assert!(mask != 0, "way mask must allow at least one way of the set");
        let ways = &self.ways[set * self.assoc..(set + 1) * self.assoc];
        // The first allowed way with the smallest stamp.
        let oldest = |stamp: fn(&Way) -> u64| {
            let mut best = mask.trailing_zeros() as usize;
            let mut rest = mask & (mask - 1);
            while rest != 0 {
                let way = rest.trailing_zeros() as usize;
                if stamp(&ways[way]) < stamp(&ways[best]) {
                    best = way;
                }
                rest &= rest - 1;
            }
            best
        };
        match self.policy {
            ReplacementPolicy::Lru => oldest(|w| w.used),
            ReplacementPolicy::Fifo => oldest(|w| w.filled),
            ReplacementPolicy::TreePlru if mask == span && self.assoc.is_power_of_two() => {
                self.plru_victim(set)
            }
            // Masked tree-PLRU has no meaningful hardware analogue; fall
            // back to LRU stamps restricted to the allowed ways.
            ReplacementPolicy::TreePlru => oldest(|w| w.used),
            ReplacementPolicy::Random => {
                // xorshift64*, then the (r mod n)-th allowed way.
                let state = &mut self.sets[set].rng;
                *state ^= *state >> 12;
                *state ^= *state << 25;
                *state ^= *state >> 27;
                let r = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
                let mut rest = mask;
                for _ in 0..r % u64::from(mask.count_ones()) {
                    rest &= rest - 1;
                }
                rest.trailing_zeros() as usize
            }
        }
    }

    /// Updates the tree-PLRU bits of `set` so they point away from `way`.
    fn plru_touch(&mut self, set: usize, way: usize) {
        let ways = self.assoc;
        if !ways.is_power_of_two() || ways == 1 {
            return;
        }
        let bits = &mut self.sets[set].plru;
        let mut node = 1usize;
        let mut lo = 0usize;
        let mut hi = ways;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if way < mid {
                // Accessed the left half: point the bit to the right half.
                *bits |= 1 << node;
                hi = mid;
                node *= 2;
            } else {
                *bits &= !(1 << node);
                lo = mid;
                node = node * 2 + 1;
            }
        }
    }

    /// Follows the tree-PLRU bits of `set` to the victim way.
    fn plru_victim(&self, set: usize) -> usize {
        let bits = self.sets[set].plru;
        let mut node = 1usize;
        let mut lo = 0usize;
        let mut hi = self.assoc;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if bits & (1 << node) != 0 {
                // Bit points right.
                lo = mid;
                node = node * 2 + 1;
            } else {
                hi = mid;
                node *= 2;
            }
        }
        lo
    }

    fn set_tags(&self, set_index: u32) -> &[u64] {
        let base = set_index as usize * self.assoc;
        &self.tags[base..base + self.assoc]
    }

    /// Returns `true` if `line` is currently resident (under conventional
    /// indexing; no statistics or replacement state is updated).
    pub fn probe(&self, line: LineAddr) -> bool {
        self.probe_at(self.geometry.index_of(line), line)
    }

    /// Returns `true` if `line` is resident in the given set.
    pub fn probe_at(&self, set_index: u32, line: LineAddr) -> bool {
        let tag = self.geometry.tag_of(line);
        self.set_tags(set_index).contains(&tag)
    }

    /// Number of lines currently resident.
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != EMPTY).count()
    }

    /// Invalidates the whole cache and resets cold tracking, returning the
    /// number of dirty lines that would have been written back.
    pub fn flush(&mut self) -> u64 {
        let (_, dirty) = self.flush_ways(u64::MAX);
        self.seen_lines.clear();
        dirty
    }

    /// Invalidates the ways of `set_index` selected by `mask`, returning
    /// `(invalidated, dirty)` line counts. Replacement metadata of the
    /// flushed ways is left as is — the stamps only matter relative to
    /// occupied ways — and the cold-miss tracker is untouched: a
    /// repartition-invalidated line was referenced before, so its re-fetch
    /// is a conflict miss, not a cold one.
    ///
    /// # Panics
    ///
    /// Panics if `set_index` is out of range.
    pub fn flush_set_ways(&mut self, set_index: u32, mask: u64) -> (u64, u64) {
        assert!(
            set_index < self.geometry.sets(),
            "set index {set_index} out of range ({} sets)",
            self.geometry.sets()
        );
        let base = set_index as usize * self.assoc;
        let mut invalidated = 0;
        let mut dirty = 0;
        for way in 0..self.assoc {
            let tag = &mut self.tags[base + way];
            if mask & bit(way) == 0 || *tag == EMPTY {
                continue;
            }
            *tag = EMPTY;
            invalidated += 1;
            if std::mem::take(&mut self.ways[base + way].dirty) {
                dirty += 1;
            }
        }
        (invalidated, dirty)
    }

    /// Invalidates the ways selected by `mask` in **every** set, returning
    /// `(invalidated, dirty)` line counts; the cold-miss tracker is
    /// untouched, as in [`flush_set_ways`](Self::flush_set_ways).
    pub fn flush_ways(&mut self, mask: u64) -> (u64, u64) {
        let mut invalidated = 0;
        let mut dirty = 0;
        for set in 0..self.geometry.sets() {
            let (i, d) = self.flush_set_ways(set, mask);
            invalidated += i;
            dirty += d;
        }
        (invalidated, dirty)
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Clears the statistics (contents stay resident).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::new();
    }
}

/// The mask bit of way `way`.
#[inline]
fn bit(way: usize) -> u64 {
    1 << way
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set::CacheSet;
    use compmem_trace::{AccessKind, Addr, RegionId, TaskId};
    use proptest::prelude::*;

    /// The reference model: one [`CacheSet`] per set plus the aggregate
    /// statistics and the cold-line set, composed as `TagArray` composes
    /// its own.
    struct Reference {
        geometry: CacheGeometry,
        policy: ReplacementPolicy,
        sets: Vec<CacheSet>,
        stats: CacheStats,
        seen: std::collections::HashSet<LineAddr>,
    }

    impl Reference {
        fn new(config: CacheConfig) -> Self {
            let geometry = config.geometry();
            Reference {
                geometry,
                policy: config.replacement_policy(),
                sets: (0..geometry.sets())
                    .map(|i| CacheSet::new(geometry.ways(), config.random_seed() ^ u64::from(i)))
                    .collect(),
                stats: CacheStats::new(),
                seen: Default::default(),
            }
        }

        fn access_at(&mut self, set: u32, allowed: u64, access: &Access) -> AccessOutcome {
            let line = access.addr.line();
            let out = self.sets[set as usize].access(
                self.geometry.tag_of(line),
                access.kind.is_write(),
                allowed,
                self.policy,
            );
            let evicted = out.evicted.map(|(tag, dirty)| EvictedLine {
                line: LineAddr::new(tag),
                dirty,
            });
            let cold = !out.hit && self.seen.insert(line);
            self.stats
                .record(access.kind, out.hit, cold, evicted.is_some_and(|e| e.dirty));
            AccessOutcome {
                hit: out.hit,
                cold,
                evicted,
            }
        }

        fn flush_set_ways(&mut self, set: u32, mask: u64) -> (u64, u64) {
            self.sets[set as usize].invalidate_ways(mask)
        }

        fn flush(&mut self) -> u64 {
            self.seen.clear();
            self.sets.iter_mut().map(|s| s.flush().len() as u64).sum()
        }

        fn occupancy(&self) -> usize {
            self.sets.iter().map(CacheSet::occupancy).sum()
        }
    }

    /// One random operation: `(selector, line, kind, way mask)`. Selector
    /// 0–19 accesses `line`, 20–27 re-accesses the previous operation's
    /// line (the bursts real streams are made of), 28 invalidates the
    /// masked ways of the line's set, 29 flushes everything.
    type Op = (u8, u64, u8, u64);

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        prop::collection::vec((0u8..30, 0u64..96, 0u8..3, 0u64..256), 1..400)
    }

    fn check_parity(policy: ReplacementPolicy, sets: u32, ways: u32, seed: u64, ops: &[Op]) {
        let config = CacheConfig::new(sets, ways)
            .unwrap()
            .policy(policy)
            .seed(seed);
        let mut flat = TagArray::new(config);
        let mut reference = Reference::new(config);
        let full = if ways >= 64 {
            u64::MAX
        } else {
            (1 << ways) - 1
        };
        let mut previous = 0;
        for (step, &(selector, line, kind, mask)) in ops.iter().enumerate() {
            let line = if (20..28).contains(&selector) {
                previous
            } else {
                line
            };
            previous = line;
            let set = (line % u64::from(sets)) as u32;
            // Masks are drawn per way count; an empty draw means "all
            // ways", so full sets always have a victim.
            let mask = match mask & full {
                0 => u64::MAX,
                m => m,
            };
            match selector {
                0..=27 => {
                    let kind = [AccessKind::InstrFetch, AccessKind::Load, AccessKind::Store]
                        [kind as usize];
                    let access = Access {
                        addr: Addr::new(line * 64 + 4),
                        kind,
                        size: 4,
                        task: TaskId::new(0),
                        region: RegionId::new(0),
                    };
                    assert_eq!(
                        flat.access_at(set, mask, &access),
                        reference.access_at(set, mask, &access),
                        "{policy} step {step}"
                    );
                }
                28 => assert_eq!(
                    flat.flush_set_ways(set, mask),
                    reference.flush_set_ways(set, mask),
                    "{policy} step {step}"
                ),
                _ => assert_eq!(flat.flush(), reference.flush(), "{policy} step {step}"),
            }
        }
        assert_eq!(flat.stats(), &reference.stats, "{policy}");
        assert_eq!(flat.occupancy(), reference.occupancy(), "{policy}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The flat storage reproduces the per-set reference model access
        /// for access — hit, cold, victim tag and dirtiness — and ends with
        /// identical statistics, under every policy, with way masks
        /// (including tree-PLRU's masked LRU fallback) and invalidations
        /// interleaved.
        #[test]
        fn flat_storage_matches_the_reference_sets(
            ops in ops(),
            sets in prop::sample::select(vec![1u32, 2, 4]),
            ways in prop::sample::select(vec![1u32, 2, 4, 8]),
            seed in 0u64..1_000,
        ) {
            for policy in ReplacementPolicy::ALL {
                check_parity(policy, sets, ways, seed, &ops);
            }
        }
    }
}
