//! A pool's snapshots, kept as reverse deltas (RevDedup's shape): the
//! latest snapshot's file map whole, and every older snapshot as only the
//! entries that differ from the next newer one. A snapshot's retained
//! memory is therefore O(files changed since the previous snapshot), not
//! O(files); reading an older snapshot walks the deltas between it and the
//! latest.
//!
//! The deltas are canonical: an entry is kept only where the table really
//! differs from the next snapshot's, so the names that differ between any
//! two snapshots are found among the deltas between them.

use crate::pool::FileTable;
use squirrel_hash::FnvHashMap;
use std::collections::{BTreeMap, BTreeSet};

/// A whole file set: name → table.
pub(crate) type FileMap = BTreeMap<String, FileTable>;

/// What a snapshot differs by from the next newer one: for every name
/// whose table differs, the table it held here (`None`: the file did not
/// exist), sorted by name. A slice sized to its entries, not a map: most
/// deltas hold one file.
type Delta = Vec<(String, Option<FileTable>)>;

/// One snapshot: its tag and its delta. The latest snapshot's is empty.
struct Snapshot {
    tag: String,
    undo: Delta,
}

/// Where `name` sits in `delta`.
fn find(delta: &Delta, name: &str) -> Result<usize, usize> {
    delta.binary_search_by(|(n, _)| n.as_str().cmp(name))
}

/// Snapshots in creation order.
#[derive(Default)]
pub(crate) struct History {
    snaps: Vec<Snapshot>,
    /// The latest snapshot's file set, whole; empty when there is none.
    latest: FileMap,
}

/// `name`'s table in `snaps[0]`, where `snaps` runs up to the latest
/// snapshot and `latest` is its whole file set.
fn lookup<'a>(snaps: &'a [Snapshot], latest: &'a FileMap, name: &str) -> Option<&'a FileTable> {
    match snaps
        .iter()
        .find_map(|s| find(&s.undo, name).ok().map(|i| &s.undo[i].1))
    {
        Some(table) => table.as_ref(),
        None => latest.get(name),
    }
}

impl History {
    pub(crate) fn len(&self) -> usize {
        self.snaps.len()
    }

    pub(crate) fn tag(&self, i: usize) -> &str {
        &self.snaps[i].tag
    }

    pub(crate) fn tags(&self) -> impl Iterator<Item = &str> {
        self.snaps.iter().map(|s| s.tag.as_str())
    }

    pub(crate) fn position(&self, tag: &str) -> Option<usize> {
        self.snaps.iter().position(|s| s.tag == tag)
    }

    /// Snapshot `live` as `tag`. The previous latest snapshot keeps only
    /// the entries `live` changed, found by one merge of the two sorted
    /// maps; the whole map takes those changes.
    pub(crate) fn push(&mut self, tag: &str, live: &FileMap) {
        if let Some(prev) = self.snaps.last_mut() {
            let mut undo = Delta::new();
            let mut old = self.latest.iter().peekable();
            for (name, table) in live {
                // Names the live set no longer holds.
                while let Some((gone, was)) = old.next_if(|(n, _)| *n < name) {
                    undo.push((gone.clone(), Some(was.clone())));
                }
                match old.next_if(|(n, _)| *n == name) {
                    Some((_, was)) if was == table => {}
                    Some((_, was)) => undo.push((name.clone(), Some(was.clone()))),
                    None => undo.push((name.clone(), None)),
                }
            }
            undo.extend(old.map(|(gone, was)| (gone.clone(), Some(was.clone()))));
            for (name, _) in &undo {
                match live.get(name) {
                    Some(table) => self.latest.insert(name.clone(), table.clone()),
                    None => self.latest.remove(name),
                };
            }
            undo.shrink_to_fit();
            prev.undo = undo;
        } else {
            self.latest = live.clone();
        }
        self.snaps.push(Snapshot {
            tag: tag.to_string(),
            undo: Delta::new(),
        });
    }

    /// `name`'s table in snapshot `i`.
    pub(crate) fn table(&self, i: usize, name: &str) -> Option<&FileTable> {
        lookup(&self.snaps[i..], &self.latest, name)
    }

    /// Snapshot `i`'s whole file set.
    pub(crate) fn view(&self, i: usize) -> BTreeMap<&str, &FileTable> {
        let mut view: BTreeMap<&str, &FileTable> =
            self.latest.iter().map(|(n, t)| (n.as_str(), t)).collect();
        for snap in self.snaps[i..].iter().rev() {
            for (name, table) in &snap.undo {
                match table {
                    Some(table) => view.insert(name, table),
                    None => view.remove(name.as_str()),
                };
            }
        }
        view
    }

    /// Every name whose table may differ between snapshots `a` and `b`, in
    /// name order: the names the deltas between them hold.
    pub(crate) fn changed_between(&self, a: usize, b: usize) -> BTreeSet<&str> {
        self.snaps[a.min(b)..a.max(b)]
            .iter()
            .flat_map(|s| s.undo.iter().map(|(name, _)| name.as_str()))
            .collect()
    }

    /// Destroy snapshot `i`, handing `release` every table it held. The
    /// next older snapshot's delta absorbs `i`'s, so every other
    /// snapshot's file set is unchanged.
    pub(crate) fn remove(&mut self, i: usize, mut release: impl FnMut(&FileTable)) {
        for table in self.view(i).values() {
            release(table);
        }
        let gone = self.snaps.remove(i);
        if i == self.snaps.len() {
            // The latest went: the whole map steps back one snapshot.
            match self.snaps.last_mut() {
                Some(prev) => {
                    for (name, table) in std::mem::take(&mut prev.undo) {
                        match table {
                            Some(table) => self.latest.insert(name, table),
                            None => self.latest.remove(&name),
                        };
                    }
                }
                None => self.latest.clear(),
            }
        } else if i > 0 {
            let (older, newer) = self.snaps.split_at_mut(i);
            let prev = &mut older[i - 1].undo;
            for (name, table) in gone.undo {
                match find(prev, &name) {
                    Err(at) => prev.insert(at, (name, table)),
                    // Changed and changed back across the gap: no entry.
                    Ok(at) => {
                        if prev[at].1.as_ref() == lookup(newer, &self.latest, &name) {
                            prev.remove(at);
                        }
                    }
                }
            }
        }
    }

    /// Drop `name` from every snapshot, handing `release` each stored table
    /// once with the number of snapshots that held it. Each delta and the
    /// whole map are rewritten once. Returns whether any snapshot held it.
    pub(crate) fn purge(&mut self, name: &str, mut release: impl FnMut(&FileTable, u64)) -> bool {
        let mut any = false;
        // First snapshot the next stored table of `name` covers.
        let mut from = 0;
        for (j, snap) in self.snaps.iter_mut().enumerate() {
            if let Ok(at) = find(&snap.undo, name) {
                if let (_, Some(table)) = snap.undo.remove(at) {
                    release(&table, (j + 1 - from) as u64);
                    any = true;
                }
                from = j + 1;
            }
        }
        if let Some(table) = self.latest.remove(name) {
            release(&table, (self.snaps.len() - from) as u64);
            any = true;
        }
        any
    }

    /// Every stored table once, with the number of snapshots that hold it:
    /// what a walk of every snapshot's file set counts, without the walk.
    pub(crate) fn for_each_table(&self, mut f: impl FnMut(&FileTable, u64)) {
        // First snapshot the next stored table of each name covers.
        let mut from: FnvHashMap<&str, usize> = FnvHashMap::default();
        for (j, snap) in self.snaps.iter().enumerate() {
            for (name, table) in &snap.undo {
                let start = from.insert(name.as_str(), j + 1).unwrap_or(0);
                if let Some(table) = table {
                    f(table, (j + 1 - start) as u64);
                }
            }
        }
        for (name, table) in &self.latest {
            let start = from.get(name.as_str()).copied().unwrap_or(0);
            f(table, (self.snaps.len() - start) as u64);
        }
    }

    /// Entries each snapshot retains, oldest first: its delta's, and the
    /// whole map's for the latest.
    #[cfg(test)]
    pub(crate) fn retained_entries(&self) -> Vec<usize> {
        let mut entries: Vec<usize> = self.snaps.iter().map(|s| s.undo.len()).collect();
        if let Some(last) = entries.last_mut() {
            *last = self.latest.len();
        }
        entries
    }
}

#[cfg(test)]
mod tests {
    use crate::config::PoolConfig;
    use crate::pool::ZPool;
    use squirrel_compress::Codec;

    const BS: usize = 512;
    const IMPORTS: usize = 256;

    /// Import `i`'s three blocks: content of its own, so every import
    /// changes the file it lands on.
    fn import(p: &mut ZPool, name: &str, i: usize) {
        let blocks: Vec<Vec<u8>> = (0..3)
            .map(|b| {
                (0..BS)
                    .map(|j| ((i * 31 + b * 7 + j) % 251) as u8)
                    .collect()
            })
            .collect();
        p.import_file(name, &blocks, (3 * BS) as u64);
    }

    /// A sender and a replica after `IMPORTS` registrations, each an import
    /// onto one of 192 names (the last 64 overwrite), every 16th also
    /// deleting a file, then a snapshot and the replica's `recv` of the
    /// diff. Returns them with the files each snapshot changed.
    fn registrations(threads: usize) -> (ZPool, ZPool, Vec<usize>) {
        let cfg = PoolConfig {
            threads,
            ..PoolConfig::new(BS, Codec::Lzjb)
        };
        let (mut sender, mut replica) = (ZPool::new(cfg), ZPool::new(cfg));
        let mut changed = Vec::new();
        for i in 0..IMPORTS {
            import(&mut sender, &format!("f{:03}", i % 192), i);
            let deleted = i % 16 == 15 && sender.has_file(&format!("f{:03}", i - 8));
            if deleted {
                sender.delete_file(&format!("f{:03}", i - 8));
            }
            changed.push(1 + usize::from(deleted));
            sender.snapshot(&format!("s{i}"));
            replica
                .recv(&sender.send_latest().expect("tip"))
                .expect("recv");
        }
        (sender, replica, changed)
    }

    #[test]
    fn each_snapshot_retains_only_the_files_it_changed() {
        for threads in [1, 2, 8] {
            let (sender, replica, changed) = registrations(threads);
            for p in [&sender, &replica] {
                let retained = p.history().retained_entries();
                // Each older snapshot: the files the next one changed. The
                // latest: the whole map, one entry per file.
                assert_eq!(retained[..IMPORTS - 1], changed[1..], "threads {threads}");
                assert_eq!(retained[IMPORTS - 1], p.file_count());
                // A whole map per snapshot would retain ≈ 24 000 entries.
                assert!(retained.iter().sum::<usize>() <= p.file_count() + 2 * IMPORTS);
                assert!(p.check_refcounts());
                assert_eq!(p.stats(), p.stats_by_walk());
            }
            assert_eq!(sender.stats(), replica.stats());
        }
    }

    /// Destroying a middle snapshot folds its delta into the next older
    /// one: a file changed on both sides keeps the older table, unless it
    /// changed back, when the entry goes.
    #[test]
    fn destroying_a_middle_snapshot_folds_its_delta_into_the_older_one() {
        for back in [false, true] {
            let mut p = ZPool::new(PoolConfig::new(BS, Codec::Lzjb));
            import(&mut p, "a", 0);
            import(&mut p, "b", 1);
            p.snapshot("s0");
            import(&mut p, "a", 2);
            p.snapshot("s1");
            import(&mut p, "a", if back { 0 } else { 3 });
            import(&mut p, "b", 4);
            p.snapshot("s2");
            let before: Vec<_> = ["s0", "s2"]
                .map(|t| p.send_between(None, t).expect("tag").encode())
                .into();
            assert!(p.destroy_snapshot("s1"));
            let after: Vec<_> = ["s0", "s2"]
                .map(|t| p.send_between(None, t).expect("tag").encode())
                .into();
            assert_eq!(before, after, "changed back: {back}");
            // `b` changed once; `a` changed twice, and back to s0's table
            // when `back`.
            let kept = if back { 1 } else { 2 };
            assert_eq!(p.history().retained_entries(), vec![kept, 2]);
            assert!(p.check_refcounts());
        }
    }

    #[test]
    fn purging_a_file_every_snapshot_holds_rewrites_each_piece_once() {
        for threads in [1, 2, 8] {
            let (mut sender, _, _) = registrations(threads);
            // `f000` was imported first and rewritten once (import 192):
            // two stored tables, the first held by 192 snapshots, the
            // second by 64, and by the live set.
            let before: usize = sender.history().retained_entries().iter().sum();
            let held_by = |p: &ZPool| {
                p.snapshot_tags()
                    .iter()
                    .filter(|t| p.snapshot_file_names(t).expect("tag").contains(&"f000"))
                    .count()
            };
            assert_eq!(held_by(&sender), IMPORTS);
            assert!(sender.purge_file("f000"));
            let after: usize = sender.history().retained_entries().iter().sum();
            // One entry per stored table, not one per snapshot: the first
            // in one delta, the second in the whole map.
            assert_eq!(before - after, 2, "threads {threads}");
            assert_eq!(held_by(&sender), 0);
            assert!(!sender.has_file("f000"));
            assert!(sender.check_refcounts());
            assert_eq!(sender.stats(), sender.stats_by_walk());
            assert!(!sender.purge_file("f000"));
        }
    }
}
