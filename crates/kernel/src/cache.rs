//! A passive LRU page-cache index, shared by the buffer cache (metadata,
//! keyed by disk block) and the UBC (file data, keyed by inode + page).
//!
//! "Passive" means the index performs no I/O and touches no simulated
//! memory: it only decides *which page* holds *which key* and *who gets
//! evicted*. The kernel drives all data movement, registry bookkeeping, and
//! write-back, so the cache cannot hide any of the machinery the
//! experiments measure.

use rio_mem::PageNum;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Multiply-mix hasher for the index and for every other host-side kernel
/// table ([`MixMap`]): the keys are block numbers, page numbers, inode
/// numbers, descriptors and `(inode, page)` pairs the kernel itself hands
/// out, so there is nothing to defend against and SipHash's cost per
/// lookup buys nothing. Fixed, not seeded — and nothing depends on a map's
/// iteration order ([`PageCache::keys`] walks the slots).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MixHasher(u64);

impl Hasher for MixHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(b as u64));
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        // The table indexes by the low bits, the multiply mixes upwards.
        self.0 ^ (self.0 >> 32)
    }
}

/// A host-side kernel table keyed by numbers the kernel hands out.
pub(crate) type MixMap<K, V> = HashMap<K, V, BuildHasherDefault<MixHasher>>;

/// What [`PageCache::insert`] displaced, if anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted<K> {
    /// The key that lost its page.
    pub key: K,
    /// Whether it was dirty (the kernel must write it back first).
    pub dirty: bool,
    /// The page it occupied (now reassigned to the new key).
    pub page: PageNum,
}

#[derive(Debug, Clone)]
struct Slot<K> {
    key: Option<K>,
    dirty: bool,
    stamp: u64,
    /// Valid bytes in the page (UBC partial pages; full for metadata).
    valid: u32,
}

/// An LRU index over a fixed set of pages.
#[derive(Debug, Clone)]
pub struct PageCache<K> {
    pages: Vec<PageNum>,
    slots: Vec<Slot<K>>,
    map: MixMap<K, usize>,
    tick: u64,
    dirty_count: usize,
    /// Every slot below this one is occupied: where `insert` starts its
    /// search for a free slot.
    free_hint: usize,
}

impl<K: Eq + Hash + Copy> PageCache<K> {
    /// A cache over the given pages.
    ///
    /// # Panics
    ///
    /// Panics if `pages` is empty.
    pub fn new(pages: Vec<PageNum>) -> Self {
        assert!(!pages.is_empty(), "cache needs at least one page");
        let slots = pages
            .iter()
            .map(|_| Slot {
                key: None,
                dirty: false,
                stamp: 0,
                valid: 0,
            })
            .collect();
        PageCache {
            pages,
            slots,
            map: HashMap::default(),
            tick: 0,
            dirty_count: 0,
            free_hint: 0,
        }
    }

    /// Number of dirty entries (O(1); drives the dirty-data throttle).
    pub fn dirty_count(&self) -> usize {
        self.dirty_count
    }

    /// Number of page slots.
    pub fn capacity(&self) -> usize {
        self.pages.len()
    }

    /// Number of cached keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up a key, refreshing its LRU position. Returns its page.
    pub fn lookup(&mut self, key: K) -> Option<PageNum> {
        let &slot = self.map.get(&key)?;
        self.tick += 1;
        self.slots[slot].stamp = self.tick;
        Some(self.pages[slot])
    }

    /// Looks up without refreshing LRU (diagnostics).
    pub fn peek(&self, key: K) -> Option<PageNum> {
        self.map.get(&key).map(|&s| self.pages[s])
    }

    /// Inserts a key, evicting the least-recently-used entry if full.
    /// Returns the assigned page and what was evicted.
    ///
    /// # Panics
    ///
    /// Panics if the key is already present (callers `lookup` first).
    pub fn insert(&mut self, key: K) -> (PageNum, Option<Evicted<K>>) {
        let hint = self.free_hint;
        let free = self.slots[hint..]
            .iter()
            .position(|s| s.key.is_none())
            .map(|i| hint + i);
        let placed = self.place(key, free);
        self.free_hint = free.map_or(self.slots.len(), |idx| idx + 1);
        placed
    }

    /// [`PageCache::insert`] as first written — a scan from slot 0 for the
    /// lowest free slot. The definition the hinted search is tested against.
    #[cfg(test)]
    fn insert_reference(&mut self, key: K) -> (PageNum, Option<Evicted<K>>) {
        let free = self.slots.iter().position(|s| s.key.is_none());
        self.place(key, free)
    }

    /// Gives `key` the free slot `free`, or the least-recently-used slot
    /// when there is none.
    fn place(&mut self, key: K, free: Option<usize>) -> (PageNum, Option<Evicted<K>>) {
        assert!(!self.map.contains_key(&key), "key already cached");
        self.tick += 1;
        let (idx, evicted) = match free {
            Some(idx) => (idx, None),
            None => {
                let idx = self
                    .slots
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, s)| s.stamp)
                    .map(|(i, _)| i)
                    .expect("non-empty slots");
                let old = self.slots[idx].key.expect("occupied slot");
                if self.slots[idx].dirty {
                    self.dirty_count -= 1;
                }
                self.map.remove(&old);
                let evicted = Evicted {
                    key: old,
                    dirty: self.slots[idx].dirty,
                    page: self.pages[idx],
                };
                (idx, Some(evicted))
            }
        };
        self.slots[idx] = Slot {
            key: Some(key),
            dirty: false,
            stamp: self.tick,
            valid: 0,
        };
        self.map.insert(key, idx);
        (self.pages[idx], evicted)
    }

    /// Marks a cached key dirty.
    ///
    /// # Panics
    ///
    /// Panics if the key is not cached.
    pub fn mark_dirty(&mut self, key: K) {
        let &slot = self.map.get(&key).expect("key cached");
        if !self.slots[slot].dirty {
            self.dirty_count += 1;
        }
        self.slots[slot].dirty = true;
    }

    /// Clears a cached key's dirty bit (after write-back).
    pub fn mark_clean(&mut self, key: K) {
        if let Some(&slot) = self.map.get(&key) {
            if self.slots[slot].dirty {
                self.dirty_count -= 1;
            }
            self.slots[slot].dirty = false;
        }
    }

    /// Whether a cached key is dirty.
    pub fn is_dirty(&self, key: K) -> bool {
        self.map
            .get(&key)
            .is_some_and(|&slot| self.slots[slot].dirty)
    }

    /// Sets the valid-byte count for a key's page.
    pub fn set_valid(&mut self, key: K, valid: u32) {
        if let Some(&slot) = self.map.get(&key) {
            self.slots[slot].valid = valid;
        }
    }

    /// Valid-byte count for a key's page.
    pub fn valid(&self, key: K) -> u32 {
        self.map.get(&key).map_or(0, |&slot| self.slots[slot].valid)
    }

    /// Drops a key without eviction bookkeeping (truncate/unlink).
    pub fn remove(&mut self, key: K) -> Option<PageNum> {
        let slot = self.map.remove(&key)?;
        if self.slots[slot].dirty {
            self.dirty_count -= 1;
        }
        self.slots[slot] = Slot {
            key: None,
            dirty: false,
            stamp: 0,
            valid: 0,
        };
        self.free_hint = self.free_hint.min(slot);
        Some(self.pages[slot])
    }

    /// All dirty keys, oldest first (write-back order). The walk over the
    /// slots ends at the last dirty one — at once when nothing is dirty,
    /// which is what most `fsync` and update-daemon runs find.
    pub fn dirty_keys(&self) -> Vec<K> {
        let mut v: Vec<(u64, K)> = self
            .slots
            .iter()
            .filter(|s| s.dirty)
            .take(self.dirty_count)
            .map(|s| (s.stamp, s.key.expect("dirty slot occupied")))
            .collect();
        v.sort_by_key(|&(stamp, _)| stamp);
        v.into_iter().map(|(_, k)| k).collect()
    }

    /// All cached keys, least recently used first: the order `insert`
    /// would evict them in.
    #[cfg(test)]
    pub(crate) fn lru_order(&self) -> Vec<K> {
        let mut v: Vec<(u64, K)> = self
            .slots
            .iter()
            .filter_map(|s| Some((s.stamp, s.key?)))
            .collect();
        v.sort_by_key(|&(stamp, _)| stamp);
        v.into_iter().map(|(_, k)| k).collect()
    }

    /// All cached keys, in slot order — the same order in every run, which
    /// the map's own iteration would not be.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.slots.iter().filter_map(|s| s.key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rio_det::proptest_lite::{check, Config};
    use rio_det::pt_assert_eq;

    fn cache(n: u64) -> PageCache<u64> {
        PageCache::new((0..n).map(PageNum).collect())
    }

    #[test]
    fn insert_lookup_round_trip() {
        let mut c = cache(4);
        let (p, ev) = c.insert(10);
        assert!(ev.is_none());
        assert_eq!(c.lookup(10), Some(p));
        assert_eq!(c.lookup(11), None);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_evicts_oldest_untouched() {
        let mut c = cache(2);
        c.insert(1);
        c.insert(2);
        c.lookup(1); // refresh 1; 2 is now LRU
        let (_, ev) = c.insert(3);
        let ev = ev.unwrap();
        assert_eq!(ev.key, 2);
        assert_eq!(c.lookup(2), None);
        assert!(c.lookup(1).is_some());
    }

    #[test]
    fn eviction_reports_dirtiness_and_page() {
        let mut c = cache(1);
        let (p1, _) = c.insert(1);
        c.mark_dirty(1);
        let (p2, ev) = c.insert(2);
        let ev = ev.unwrap();
        assert!(ev.dirty);
        assert_eq!(ev.key, 1);
        assert_eq!(ev.page, p1);
        assert_eq!(p1, p2, "page reused");
    }

    #[test]
    fn dirty_tracking() {
        let mut c = cache(4);
        c.insert(1);
        c.insert(2);
        c.mark_dirty(2);
        assert!(!c.is_dirty(1));
        assert!(c.is_dirty(2));
        assert_eq!(c.dirty_keys(), vec![2]);
        c.mark_clean(2);
        assert!(c.dirty_keys().is_empty());
    }

    #[test]
    fn dirty_keys_are_oldest_first() {
        let mut c = cache(4);
        c.insert(1);
        c.insert(2);
        c.insert(3);
        c.mark_dirty(3);
        c.mark_dirty(1);
        // 3 was dirtied first by stamp order of its slot (insert stamp),
        // but stamps track last touch: 1 inserted first => older stamp.
        assert_eq!(c.dirty_keys(), vec![1, 3]);
    }

    #[test]
    fn dirty_keys_skip_interleaved_clean_slots() {
        let mut c = cache(8);
        assert!(c.dirty_keys().is_empty(), "nothing cached");
        for k in 0..8 {
            c.insert(k);
        }
        assert!(c.dirty_keys().is_empty(), "nothing dirty");
        // Dirty every other slot, then touch them out of slot order so the
        // stamps, not the slots, decide the order.
        for k in [6, 2, 4, 0] {
            c.mark_dirty(k);
        }
        for k in [4, 0, 6, 2] {
            c.lookup(k);
        }
        assert_eq!(c.dirty_keys(), vec![4, 0, 6, 2]);
        // The last dirty slot is found though clean ones follow it, and a
        // cleaned or evicted one drops out.
        c.mark_clean(6);
        c.remove(0);
        assert_eq!(c.dirty_keys(), vec![4, 2]);
        assert_eq!(c.dirty_count(), 2);
    }

    #[test]
    fn remove_frees_the_slot() {
        let mut c = cache(1);
        let (p, _) = c.insert(5);
        assert_eq!(c.remove(5), Some(p));
        assert!(c.is_empty());
        let (_, ev) = c.insert(6);
        assert!(ev.is_none(), "slot was free");
    }

    #[test]
    fn keys_come_in_slot_order() {
        let mut c = cache(4);
        for k in [30, 10, 20] {
            c.insert(k);
        }
        c.remove(10);
        c.insert(5); // takes the freed slot, between 30 and 20
        c.lookup(20);
        assert_eq!(c.keys().collect::<Vec<_>>(), vec![30, 5, 20]);
        // Pair keys hash through the same mix and behave the same.
        let mut ubc: PageCache<(u64, u64)> = PageCache::new((0..64).map(PageNum).collect());
        let keys: Vec<(u64, u64)> = (0..64).map(|i| (i % 4, i / 4)).collect();
        for &k in &keys {
            ubc.insert(k);
        }
        assert_eq!(ubc.keys().collect::<Vec<_>>(), keys);
        assert!(keys.iter().all(|&k| ubc.peek(k).is_some()));
    }

    #[test]
    fn hinted_insert_matches_the_scan_from_slot_zero() {
        check("hinted insert == reference", Config::with_cases(64), |g| {
            let (mut new, mut old) = (cache(8), cache(8));
            for _ in 0..g.len_between(1, 200) {
                let key = g.in_range(0..16u64);
                let cached = new.peek(key).is_some();
                match g.in_range(0..4u32) {
                    0 if !cached => pt_assert_eq!(new.insert(key), old.insert_reference(key)),
                    0 | 1 => pt_assert_eq!(new.lookup(key), old.lookup(key)),
                    2 => pt_assert_eq!(new.remove(key), old.remove(key)),
                    _ if cached => {
                        new.mark_dirty(key);
                        old.mark_dirty(key);
                    }
                    _ => {}
                }
                pt_assert_eq!(
                    new.keys().collect::<Vec<_>>(),
                    old.keys().collect::<Vec<_>>()
                );
                pt_assert_eq!(new.dirty_keys(), old.dirty_keys());
            }
            Ok(())
        });
    }

    #[test]
    fn valid_bytes_tracked_per_key() {
        let mut c = cache(2);
        c.insert(1);
        c.set_valid(1, 4096);
        assert_eq!(c.valid(1), 4096);
        assert_eq!(c.valid(2), 0);
    }

    #[test]
    #[should_panic(expected = "already cached")]
    fn duplicate_insert_panics() {
        let mut c = cache(2);
        c.insert(1);
        c.insert(1);
    }
}
