//! The per-set reference model of the cache core (test builds only).
//!
//! Three vectors per set and a victim search that first collects the
//! allowed ways: the plainest statement of the four replacement policies.
//! [`TagArray`](crate::TagArray) is checked against it outcome for
//! outcome.

use serde::{Deserialize, Serialize};

use crate::replacement::ReplacementPolicy;

/// State of a single filled way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct LineState {
    tag: u64,
    dirty: bool,
}

/// Outcome of accessing one set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SetOutcome {
    /// Whether the tag was already present.
    pub hit: bool,
    /// Tag and dirtiness of a line that was evicted to make room, if any.
    pub evicted: Option<(u64, bool)>,
}

/// One cache set: an array of ways plus the replacement metadata.
///
/// Way-partitioned organisations pass an `allowed_ways` bit mask restricting
/// both where a line may be filled and which ways may be victimised; the
/// conventional and set-partitioned organisations pass an all-ones mask.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct CacheSet {
    ways: Vec<Option<LineState>>,
    /// Monotonic last-use stamps (LRU and the masked fallback of tree-PLRU).
    use_stamp: Vec<u64>,
    /// Monotonic fill stamps (FIFO).
    fill_stamp: Vec<u64>,
    /// Tree-PLRU internal-node bits.
    plru_bits: u64,
    /// Monotonic event counter for the stamps above.
    clock: u64,
    /// Deterministic xorshift state for the random policy.
    rng_state: u64,
}

impl CacheSet {
    /// Creates an empty set with `ways` ways.
    pub fn new(ways: u32, seed: u64) -> Self {
        CacheSet {
            ways: vec![None; ways as usize],
            use_stamp: vec![0; ways as usize],
            fill_stamp: vec![0; ways as usize],
            plru_bits: 0,
            clock: 0,
            rng_state: seed | 1,
        }
    }

    /// Returns `true` if `tag` is present (no metadata update).
    pub fn probe(&self, tag: u64) -> bool {
        self.ways
            .iter()
            .any(|w| matches!(w, Some(l) if l.tag == tag))
    }

    /// Number of filled ways.
    pub fn occupancy(&self) -> usize {
        self.ways.iter().filter(|w| w.is_some()).count()
    }

    /// Invalidates every line, returning the tags of dirty lines.
    pub fn flush(&mut self) -> Vec<u64> {
        let dirty = self
            .ways
            .iter()
            .filter_map(|w| w.and_then(|l| l.dirty.then_some(l.tag)))
            .collect();
        for w in &mut self.ways {
            *w = None;
        }
        dirty
    }

    /// Invalidates the lines resident in the ways selected by `mask`,
    /// returning `(invalidated, dirty)` line counts (dirty lines would be
    /// written back). Replacement metadata of the flushed ways is left as
    /// is — the stamps only matter relative to occupied ways.
    pub fn invalidate_ways(&mut self, mask: u64) -> (u64, u64) {
        let mut invalidated = 0;
        let mut dirty = 0;
        for (way, slot) in self.ways.iter_mut().enumerate() {
            if mask & (1 << way) == 0 {
                continue;
            }
            if let Some(line) = slot.take() {
                invalidated += 1;
                if line.dirty {
                    dirty += 1;
                }
            }
        }
        (invalidated, dirty)
    }

    /// Accesses `tag` in this set.
    ///
    /// On a miss the line is filled into an allowed way, evicting a victim if
    /// all allowed ways are occupied. `is_write` marks the line dirty.
    pub fn access(
        &mut self,
        tag: u64,
        is_write: bool,
        allowed_ways: u64,
        policy: ReplacementPolicy,
    ) -> SetOutcome {
        self.clock += 1;
        // Hit path: the line may live in any way (a line filled before a
        // repartitioning may sit outside the current mask; hits on it are
        // still hits, as in column caching).
        if let Some(way) = self
            .ways
            .iter()
            .position(|w| matches!(w, Some(l) if l.tag == tag))
        {
            self.touch(way, policy);
            if is_write {
                if let Some(line) = &mut self.ways[way] {
                    line.dirty = true;
                }
            }
            return SetOutcome {
                hit: true,
                evicted: None,
            };
        }

        // Miss path: fill into a free allowed way, else evict the policy
        // victim among the allowed ways.
        let way = match self.free_allowed_way(allowed_ways) {
            Some(w) => w,
            None => self.victim(allowed_ways, policy),
        };
        let evicted = self.ways[way].map(|l| (l.tag, l.dirty));
        self.ways[way] = Some(LineState {
            tag,
            dirty: is_write,
        });
        self.fill_stamp[way] = self.clock;
        self.touch(way, policy);
        SetOutcome {
            hit: false,
            evicted,
        }
    }

    fn free_allowed_way(&self, allowed_ways: u64) -> Option<usize> {
        (0..self.ways.len()).find(|&w| allowed_ways & (1 << w) != 0 && self.ways[w].is_none())
    }

    fn touch(&mut self, way: usize, policy: ReplacementPolicy) {
        self.use_stamp[way] = self.clock;
        if policy == ReplacementPolicy::TreePlru {
            self.plru_touch(way);
        }
    }

    fn victim(&mut self, allowed_ways: u64, policy: ReplacementPolicy) -> usize {
        let allowed: Vec<usize> = (0..self.ways.len())
            .filter(|&w| allowed_ways & (1 << w) != 0)
            .collect();
        assert!(
            !allowed.is_empty(),
            "way mask must allow at least one way of the set"
        );
        let full_mask = allowed.len() == self.ways.len();
        match policy {
            ReplacementPolicy::Lru => self.min_by_stamp(&allowed, &self.use_stamp),
            ReplacementPolicy::Fifo => self.min_by_stamp(&allowed, &self.fill_stamp),
            ReplacementPolicy::TreePlru if full_mask && self.ways.len().is_power_of_two() => {
                self.plru_victim()
            }
            // Masked tree-PLRU has no meaningful hardware analogue; fall back
            // to LRU stamps restricted to the allowed ways.
            ReplacementPolicy::TreePlru => self.min_by_stamp(&allowed, &self.use_stamp),
            ReplacementPolicy::Random => {
                // xorshift64*
                self.rng_state ^= self.rng_state >> 12;
                self.rng_state ^= self.rng_state << 25;
                self.rng_state ^= self.rng_state >> 27;
                let r = self.rng_state.wrapping_mul(0x2545_F491_4F6C_DD1D);
                allowed[(r % allowed.len() as u64) as usize]
            }
        }
    }

    fn min_by_stamp(&self, allowed: &[usize], stamps: &[u64]) -> usize {
        *allowed
            .iter()
            .min_by_key(|&&w| stamps[w])
            .expect("allowed is non-empty")
    }

    /// Updates the tree-PLRU bits so they point away from `way`.
    fn plru_touch(&mut self, way: usize) {
        let ways = self.ways.len();
        if !ways.is_power_of_two() || ways == 1 {
            return;
        }
        let mut node = 1usize;
        let mut lo = 0usize;
        let mut hi = ways;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if way < mid {
                // Accessed the left half: point the bit to the right half.
                self.plru_bits |= 1 << node;
                hi = mid;
                node *= 2;
            } else {
                self.plru_bits &= !(1 << node);
                lo = mid;
                node = node * 2 + 1;
            }
        }
    }

    /// Follows the tree-PLRU bits to the victim way.
    fn plru_victim(&self) -> usize {
        let ways = self.ways.len();
        let mut node = 1usize;
        let mut lo = 0usize;
        let mut hi = ways;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if self.plru_bits & (1 << node) != 0 {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: u64 = u64::MAX;

    #[test]
    fn fills_empty_ways_before_evicting() {
        let mut set = CacheSet::new(4, 1);
        for tag in 0..4 {
            let out = set.access(tag, false, ALL, ReplacementPolicy::Lru);
            assert!(!out.hit);
            assert!(out.evicted.is_none());
        }
        assert_eq!(set.occupancy(), 4);
        let out = set.access(99, false, ALL, ReplacementPolicy::Lru);
        assert!(!out.hit);
        assert!(out.evicted.is_some());
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut set = CacheSet::new(2, 1);
        set.access(1, false, ALL, ReplacementPolicy::Lru);
        set.access(2, false, ALL, ReplacementPolicy::Lru);
        set.access(1, false, ALL, ReplacementPolicy::Lru); // 2 is now LRU
        let out = set.access(3, false, ALL, ReplacementPolicy::Lru);
        assert_eq!(out.evicted, Some((2, false)));
        assert!(set.probe(1));
        assert!(set.probe(3));
    }

    #[test]
    fn fifo_ignores_reuse() {
        let mut set = CacheSet::new(2, 1);
        set.access(1, false, ALL, ReplacementPolicy::Fifo);
        set.access(2, false, ALL, ReplacementPolicy::Fifo);
        set.access(1, false, ALL, ReplacementPolicy::Fifo); // reuse does not protect 1
        let out = set.access(3, false, ALL, ReplacementPolicy::Fifo);
        assert_eq!(out.evicted, Some((1, false)));
    }

    #[test]
    fn dirty_lines_report_dirty_on_eviction() {
        let mut set = CacheSet::new(1, 1);
        set.access(7, true, ALL, ReplacementPolicy::Lru);
        let out = set.access(8, false, ALL, ReplacementPolicy::Lru);
        assert_eq!(out.evicted, Some((7, true)));
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut set = CacheSet::new(1, 1);
        set.access(7, false, ALL, ReplacementPolicy::Lru);
        set.access(7, true, ALL, ReplacementPolicy::Lru);
        let out = set.access(8, false, ALL, ReplacementPolicy::Lru);
        assert_eq!(out.evicted, Some((7, true)));
    }

    #[test]
    fn way_mask_restricts_fill_and_victim() {
        let mut set = CacheSet::new(4, 1);
        // Partition A owns ways 0-1, partition B owns ways 2-3.
        let mask_a = 0b0011;
        let mask_b = 0b1100;
        set.access(1, false, mask_a, ReplacementPolicy::Lru);
        set.access(2, false, mask_a, ReplacementPolicy::Lru);
        set.access(10, false, mask_b, ReplacementPolicy::Lru);
        set.access(11, false, mask_b, ReplacementPolicy::Lru);
        // A third line of partition A must evict an A line, not a B line.
        let out = set.access(3, false, mask_a, ReplacementPolicy::Lru);
        assert_eq!(out.evicted, Some((1, false)));
        assert!(set.probe(10));
        assert!(set.probe(11));
    }

    #[test]
    fn hit_outside_mask_is_still_a_hit() {
        let mut set = CacheSet::new(2, 1);
        set.access(5, false, 0b01, ReplacementPolicy::Lru);
        let out = set.access(5, false, 0b10, ReplacementPolicy::Lru);
        assert!(out.hit);
    }

    #[test]
    fn tree_plru_cycles_through_all_ways() {
        let mut set = CacheSet::new(4, 1);
        for tag in 0..4 {
            set.access(tag, false, ALL, ReplacementPolicy::TreePlru);
        }
        // Access tags 0..4 again (all hits), then a stream of new tags must
        // eventually evict every original line: PLRU never evicts the way it
        // just touched.
        let mut evicted = Vec::new();
        for tag in 10..18 {
            let out = set.access(tag, false, ALL, ReplacementPolicy::TreePlru);
            if let Some((t, _)) = out.evicted {
                evicted.push(t);
            }
        }
        assert_eq!(evicted.len(), 8);
        for tag in 0..4 {
            assert!(evicted.contains(&tag), "way holding {tag} never evicted");
        }
    }

    #[test]
    fn plru_victim_is_not_most_recently_used() {
        let mut set = CacheSet::new(4, 1);
        for tag in 0..4 {
            set.access(tag, false, ALL, ReplacementPolicy::TreePlru);
        }
        set.access(2, false, ALL, ReplacementPolicy::TreePlru);
        let out = set.access(42, false, ALL, ReplacementPolicy::TreePlru);
        assert_ne!(out.evicted, Some((2, false)));
    }

    #[test]
    fn random_policy_is_deterministic_per_seed() {
        let run = |seed| {
            let mut set = CacheSet::new(4, seed);
            let mut evictions = Vec::new();
            for tag in 0..32 {
                if let Some(e) = set
                    .access(tag, false, ALL, ReplacementPolicy::Random)
                    .evicted
                {
                    evictions.push(e.0);
                }
            }
            evictions
        };
        assert_eq!(run(3), run(3));
    }

    #[test]
    fn flush_returns_dirty_tags_and_empties() {
        let mut set = CacheSet::new(4, 1);
        set.access(1, true, ALL, ReplacementPolicy::Lru);
        set.access(2, false, ALL, ReplacementPolicy::Lru);
        let dirty = set.flush();
        assert_eq!(dirty, vec![1]);
        assert_eq!(set.occupancy(), 0);
        assert!(!set.probe(1));
    }

    #[test]
    #[should_panic(expected = "way mask")]
    fn empty_mask_with_full_set_panics() {
        let mut set = CacheSet::new(2, 1);
        set.access(1, false, ALL, ReplacementPolicy::Lru);
        set.access(2, false, ALL, ReplacementPolicy::Lru);
        set.access(3, false, 0, ReplacementPolicy::Lru);
    }
}
