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
/// iteration order (a file's pages are found by walking its record's list
/// of slots, and handed out sorted).
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

/// A key the cache can index. A key that names a page of a file — the
/// UBC's `(inode, page)` — files its slot under that file's record; a
/// buffer-cache block number belongs to no file.
pub trait CacheKey: Eq + Hash + Copy {
    /// The file whose page this key names, if any.
    fn file(self) -> Option<u64>;
}

impl CacheKey for u64 {
    fn file(self) -> Option<u64> {
        None
    }
}

impl CacheKey for (u64, u64) {
    fn file(self) -> Option<u64> {
        Some(self.0)
    }
}

/// A file's UFS write-clustering run (McVoy & Kleiman 1991): the bytes
/// written since its last clustered flush, and where its last write ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ClusterRun {
    pub(crate) pending: u64,
    pub(crate) end: u64,
}

/// End of a file's list of slots.
const NIL: u32 = u32::MAX;

/// The cache's in-core record of one file: the first of its resident
/// pages' slots, which link the rest (in no order), and its clustering
/// run. It lives while either does, so the run outlives the eviction of
/// every page of the file; only [`PageCache::forget_file`] (unlink) ends
/// it.
#[derive(Debug, Clone, Copy)]
struct FileRecord {
    head: u32,
    run: Option<ClusterRun>,
}

impl FileRecord {
    const EMPTY: Self = FileRecord {
        head: NIL,
        run: None,
    };
}

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

#[derive(Debug, Clone, Copy)]
struct Slot<K> {
    key: Option<K>,
    dirty: bool,
    stamp: u64,
    /// Valid bytes in the page (UBC partial pages; full for metadata).
    valid: u32,
    /// The neighbouring slots on the key's file's list (`NIL` at the ends).
    prev: u32,
    next: u32,
}

impl<K> Slot<K> {
    const FREE: Self = Slot {
        key: None,
        dirty: false,
        stamp: 0,
        valid: 0,
        prev: NIL,
        next: NIL,
    };
}

/// An LRU index over a fixed set of pages.
#[derive(Debug, Clone)]
pub struct PageCache<K> {
    pages: Vec<PageNum>,
    slots: Vec<Slot<K>>,
    map: MixMap<K, usize>,
    /// Per-file records, for keys that name a file's page.
    files: MixMap<u64, FileRecord>,
    tick: u64,
    dirty_count: usize,
    /// Every slot below this one is occupied: where `insert` starts its
    /// search for a free slot.
    free_hint: usize,
}

impl<K: CacheKey> PageCache<K> {
    /// A cache over the given pages.
    ///
    /// # Panics
    ///
    /// Panics if `pages` is empty or holds 2³² − 1 pages or more.
    pub fn new(pages: Vec<PageNum>) -> Self {
        assert!(!pages.is_empty(), "cache needs at least one page");
        assert!(pages.len() < NIL as usize, "slot numbers fit a u32");
        let slots = vec![Slot::FREE; pages.len()];
        PageCache {
            pages,
            slots,
            map: HashMap::default(),
            files: MixMap::default(),
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
                self.unlink(idx, old);
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
            stamp: self.tick,
            ..Slot::FREE
        };
        self.map.insert(key, idx);
        self.link(idx, key);
        (self.pages[idx], evicted)
    }

    /// Puts slot `idx`, just given `key`, at the head of its file's list.
    fn link(&mut self, idx: usize, key: K) {
        let Some(file) = key.file() else {
            return;
        };
        let rec = self.files.entry(file).or_insert(FileRecord::EMPTY);
        let next = rec.head;
        rec.head = idx as u32;
        self.slots[idx].next = next;
        if next != NIL {
            self.slots[next as usize].prev = idx as u32;
        }
    }

    /// Takes slot `idx`, about to lose `key`, off its file's list, and
    /// drops the file's record if nothing is left in it.
    fn unlink(&mut self, idx: usize, key: K) {
        let Some(file) = key.file() else {
            return;
        };
        let Slot { prev, next, .. } = self.slots[idx];
        if next != NIL {
            self.slots[next as usize].prev = prev;
        }
        if prev != NIL {
            self.slots[prev as usize].next = next;
            return;
        }
        let rec = self
            .files
            .get_mut(&file)
            .expect("a cached page's file has a record");
        rec.head = next;
        if next == NIL && rec.run.is_none() {
            self.files.remove(&file);
        }
    }

    /// The slots of `file`'s resident pages, in list order.
    fn file_slots(&self, file: u64) -> impl Iterator<Item = usize> + '_ {
        let mut at = self.files.get(&file).map_or(NIL, |rec| rec.head);
        std::iter::from_fn(move || {
            let idx = (at != NIL).then_some(at as usize)?;
            at = self.slots[idx].next;
            Some(idx)
        })
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
        self.unlink(slot, key);
        self.slots[slot] = Slot::FREE;
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

    /// All cached keys, in slot order.
    #[cfg(test)]
    pub(crate) fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.slots.iter().filter_map(|s| s.key)
    }

    /// The keys of `file`'s resident pages, in slot order — the same order
    /// in every run, which the record's list would not give.
    pub(crate) fn file_keys(&self, file: u64) -> Vec<K> {
        let mut slots: Vec<usize> = self.file_slots(file).collect();
        slots.sort_unstable();
        slots
            .into_iter()
            .map(|idx| self.slots[idx].key.expect("listed slot occupied"))
            .collect()
    }

    /// [`PageCache::file_keys`] as a walk over every slot: the definition
    /// the record is tested against.
    #[cfg(test)]
    fn file_keys_reference(&self, file: u64) -> Vec<K> {
        self.keys().filter(|k| k.file() == Some(file)).collect()
    }

    /// `file`'s dirty keys, oldest first: [`PageCache::dirty_keys`]'
    /// write-back order, for one file.
    pub(crate) fn file_dirty_keys(&self, file: u64) -> Vec<K> {
        let mut v: Vec<(u64, K)> = self
            .file_slots(file)
            .map(|idx| &self.slots[idx])
            .filter(|s| s.dirty)
            .map(|s| (s.stamp, s.key.expect("listed slot occupied")))
            .collect();
        // No two occupied slots share a stamp, so the order is total.
        v.sort_unstable_by_key(|&(stamp, _)| stamp);
        v.into_iter().map(|(_, k)| k).collect()
    }

    /// [`PageCache::file_dirty_keys`] as a filter of the whole dirty list:
    /// the definition the record is tested against.
    #[cfg(test)]
    fn file_dirty_keys_reference(&self, file: u64) -> Vec<K> {
        let mut keys = self.dirty_keys();
        keys.retain(|k| k.file() == Some(file));
        keys
    }

    /// `file`'s clustering run, if it has one.
    pub(crate) fn cluster_run(&self, file: u64) -> Option<ClusterRun> {
        self.files.get(&file)?.run
    }

    /// Sets `file`'s clustering run; it lasts until [`PageCache::forget_file`].
    pub(crate) fn set_cluster_run(&mut self, file: u64, run: ClusterRun) {
        self.files.entry(file).or_insert(FileRecord::EMPTY).run = Some(run);
    }

    /// Drops `file`'s record, clustering run and all: the file is gone
    /// (unlink), and a new file may reuse its number.
    ///
    /// # Panics
    ///
    /// Panics if a page of `file` is still cached.
    pub(crate) fn forget_file(&mut self, file: u64) {
        let rec = self.files.remove(&file);
        assert!(
            rec.is_none_or(|rec| rec.head == NIL),
            "file {file} forgotten with pages cached"
        );
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
    fn file_records_match_the_scans_of_every_slot() {
        check("file record == slot scan", Config::with_cases(64), |g| {
            let mut c: PageCache<(u64, u64)> = PageCache::new((0..6).map(PageNum).collect());
            // What each file's clustering run should be: set by a write,
            // kept through eviction, ended by unlink alone.
            let mut runs = [None; 3];
            for step in 0..g.len_between(1, 200) {
                let ino = g.in_range(0..3u64);
                let key = (ino, g.in_range(0..6u64));
                let cached = c.peek(key).is_some();
                match g.in_range(0..7u32) {
                    0 if !cached => {
                        c.insert(key);
                    }
                    0 | 1 => {
                        c.lookup(key);
                    }
                    2 => {
                        c.remove(key);
                    }
                    3 if cached => c.mark_dirty(key),
                    3 => {}
                    4 => c.mark_clean(key),
                    5 => {
                        let run = ClusterRun {
                            pending: step as u64,
                            end: key.1,
                        };
                        c.set_cluster_run(ino, run);
                        runs[ino as usize] = Some(run);
                    }
                    _ => {
                        for key in c.file_keys(ino) {
                            c.remove(key);
                        }
                        c.forget_file(ino);
                        runs[ino as usize] = None;
                    }
                }
                for file in 0..3 {
                    pt_assert_eq!(c.file_keys(file), c.file_keys_reference(file));
                    pt_assert_eq!(c.file_dirty_keys(file), c.file_dirty_keys_reference(file));
                    pt_assert_eq!(c.cluster_run(file), runs[file as usize]);
                }
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
