//! An id-ordered copy-on-write map: the structure that lets one epoch of
//! the database share almost all of its state with the next.
//!
//! Ids are grouped into chunks of 64 consecutive values (`id >> 6`); each
//! chunk sits behind an [`Arc`].  Cloning the map copies the chunk
//! *pointers* — O(len / 64) — and a write through a shared pointer copies
//! that one chunk first, so two clones diverge by exactly the chunks one
//! of them rewrote.
//!
//! The chunks sit in a vector sorted by key, and the entries of a chunk
//! are sorted by id.  A lookup first tries the slot a dense run of ids
//! puts it in (chunk `key − first key`, entry `id mod 64`) and
//! binary-searches only when that slot holds another key, so sequential
//! ids are found without a search.  A chunk created below the highest
//! one shifts the vector, O(len / 64); ids that grow, as sequential ids
//! do, only append.  Iteration is ascending by id and the JSON form is
//! the `BTreeMap<u64, V>` object, so swapping a `BTreeMap` for this map
//! changes no persisted byte.

use most_testkit::ser::{Json, JsonKey, ToJson};
use std::sync::Arc;

const CHUNK_BITS: u32 = 6;

/// Entries of one chunk, ascending by id; never empty while in the map.
type Chunk<V> = Vec<(u64, V)>;

/// The map.  See the module docs.
#[derive(Debug, Clone)]
pub struct CowMap<V> {
    /// `(id >> 6, chunk)`, ascending by key.
    chunks: Vec<(u64, Arc<Chunk<V>>)>,
    len: usize,
    /// Name of the `most-obs` counter bumped once per chunk copied.
    copy_counter: &'static str,
}

/// The slot of `id` in its chunk, or the slot it would take.
fn entry_slot<V>(chunk: &Chunk<V>, id: u64) -> Result<usize, usize> {
    find(chunk, id, id & ((1 << CHUNK_BITS) - 1), |e| e.0)
}

/// Write access to a chunk, copying it first (and counting the copy) when
/// another clone of the map still points at it.
fn unshare<'a, V: Clone>(chunk: &'a mut Arc<Chunk<V>>, copy_counter: &str) -> &'a mut Chunk<V> {
    if Arc::get_mut(chunk).is_none() {
        most_obs::inc(copy_counter);
    }
    Arc::make_mut(chunk)
}

/// Where `key` sits in `entries`, ascending by key: `Ok` with its slot, or
/// `Err` with the slot it would take.  Tries `guess` first.
fn find<T>(
    entries: &[T],
    key: u64,
    guess: u64,
    key_of: impl Fn(&T) -> u64,
) -> Result<usize, usize> {
    match entries.get(guess as usize) {
        Some(entry) if key_of(entry) == key => Ok(guess as usize),
        _ => entries.binary_search_by_key(&key, key_of),
    }
}

impl<V: Clone> CowMap<V> {
    /// An empty map whose chunk copies are counted under `copy_counter`.
    pub fn new(copy_counter: &'static str) -> Self {
        CowMap {
            chunks: Vec::new(),
            len: 0,
            copy_counter,
        }
    }

    /// A map holding `entries` (a later duplicate id replaces an earlier one).
    pub fn from_entries(
        copy_counter: &'static str,
        entries: impl IntoIterator<Item = (u64, V)>,
    ) -> Self {
        let mut map = CowMap::new(copy_counter);
        for (id, value) in entries {
            map.insert(id, value);
        }
        map
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map holds no entry.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The slot of the chunk holding `id`'s key, or the slot it would take.
    fn chunk_slot(&self, id: u64) -> Result<usize, usize> {
        let key = id >> CHUNK_BITS;
        let first = self.chunks.first().map_or(0, |c| c.0);
        find(&self.chunks, key, key.wrapping_sub(first), |c| c.0)
    }

    /// The value stored under `id`.
    pub fn get(&self, id: u64) -> Option<&V> {
        let chunk = &self.chunks[self.chunk_slot(id).ok()?].1;
        let at = entry_slot(chunk, id).ok()?;
        Some(&chunk[at].1)
    }

    /// Whether `id` is present.
    pub fn contains_key(&self, id: u64) -> bool {
        self.get(id).is_some()
    }

    /// Write access to the value under `id`.  A miss copies nothing.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut V> {
        let slot = self.chunk_slot(id).ok()?;
        let chunk = &mut self.chunks[slot].1;
        let at = entry_slot(chunk, id).ok()?;
        Some(&mut unshare(chunk, self.copy_counter)[at].1)
    }

    /// Stores `value` under `id`, returning the value it replaced.
    pub fn insert(&mut self, id: u64, value: V) -> Option<V> {
        let slot = self.chunk_slot(id).unwrap_or_else(|slot| {
            self.chunks.insert(slot, (id >> CHUNK_BITS, Arc::default()));
            slot
        });
        let chunk = unshare(&mut self.chunks[slot].1, self.copy_counter);
        match entry_slot(chunk, id) {
            Ok(at) => Some(std::mem::replace(&mut chunk[at].1, value)),
            Err(at) => {
                chunk.insert(at, (id, value));
                self.len += 1;
                None
            }
        }
    }

    /// Removes and returns the value under `id`.  A miss copies nothing;
    /// removing a chunk's last entry drops the chunk.
    pub fn remove(&mut self, id: u64) -> Option<V> {
        let slot = self.chunk_slot(id).ok()?;
        let chunk = &mut self.chunks[slot].1;
        let at = entry_slot(chunk, id).ok()?;
        self.len -= 1;
        if chunk.len() == 1 {
            let (_, last) = self.chunks.remove(slot);
            return Some(Arc::unwrap_or_clone(last).remove(0).1);
        }
        Some(unshare(chunk, self.copy_counter).remove(at).1)
    }

    /// Entries in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.chunks
            .iter()
            .flat_map(|(_, chunk)| chunk.iter().map(|(id, value)| (*id, value)))
    }

    /// Ids in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.iter().map(|(id, _)| id)
    }

    /// Values in ascending id order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, value)| value)
    }

    /// Number of chunks.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// How many of this map's chunks are the *same allocation* in `other`
    /// — what two epochs share rather than merely agree on.
    pub fn chunks_shared_with(&self, other: &CowMap<V>) -> usize {
        self.chunks
            .iter()
            .filter(|(key, chunk)| {
                other
                    .chunk_slot(key << CHUNK_BITS)
                    .is_ok_and(|slot| Arc::ptr_eq(chunk, &other.chunks[slot].1))
            })
            .count()
    }
}

impl<V: Clone + ToJson> ToJson for CowMap<V> {
    fn to_json(&self) -> Json {
        Json::Obj(
            self.iter()
                .map(|(id, value)| (id.to_key(), value.to_json()))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn sample() -> (CowMap<String>, BTreeMap<u64, String>) {
        let mut map = CowMap::new("test.chunks_copied");
        let mut reference = BTreeMap::new();
        for id in [700u64, 3, 64, 65, 1, 63, 4096, 2, 640] {
            assert_eq!(
                map.insert(id, format!("v{id}")),
                reference.insert(id, format!("v{id}"))
            );
        }
        (map, reference)
    }

    #[test]
    fn iterates_ascending_and_encodes_like_a_btreemap() {
        let (map, reference) = sample();
        assert_eq!(map.len(), reference.len());
        assert_eq!(
            map.keys().collect::<Vec<_>>(),
            reference.keys().copied().collect::<Vec<_>>()
        );
        assert_eq!(
            map.values().collect::<Vec<_>>(),
            reference.values().collect::<Vec<_>>()
        );
        assert_eq!(
            map.to_json().render().unwrap(),
            reference.to_json().render().unwrap()
        );
        assert_eq!(map.get(64), Some(&"v64".to_string()));
        assert_eq!(map.get(66), None);
        assert!(map.contains_key(4096) && !map.contains_key(4097));
    }

    /// Lookups agree with a `BTreeMap` whether or not the slot a dense run
    /// of ids suggests holds the id: gaps, chunks created below the first
    /// one, and removals that empty the first chunk.
    #[test]
    fn lookups_find_ids_off_the_dense_slots() {
        let mut map = CowMap::new("test.chunks_copied");
        let mut reference = BTreeMap::new();
        let ids = (200..400u64)
            .chain((0..50).map(|i| 1_000 + 3 * i))
            .chain([1 << 40, 5, 130, 70]);
        for id in ids {
            map.insert(id, id);
            reference.insert(id, id);
        }
        for id in (128..192).chain([5, 70]) {
            assert_eq!(map.remove(id), reference.remove(&id));
        }
        for id in (0..1_300).chain([1 << 40, (1 << 40) + 1]) {
            assert_eq!(map.get(id), reference.get(&id), "id {id}");
        }
        assert!(map.iter().map(|(id, _)| id).eq(reference.keys().copied()));
    }

    #[test]
    fn insert_replaces_and_remove_of_a_last_element_drops_the_chunk() {
        let (mut map, mut reference) = sample();
        assert_eq!(
            map.insert(3, "again".into()),
            reference.insert(3, "again".into())
        );
        assert_eq!(map.len(), reference.len());
        let chunks = map.chunk_count();
        // 4096 is alone in its chunk; 64 shares one with 65.
        assert_eq!(map.remove(4096), Some("v4096".into()));
        assert_eq!(map.chunk_count(), chunks - 1);
        assert_eq!(map.remove(64), Some("v64".into()));
        assert_eq!(map.chunk_count(), chunks - 1);
        assert_eq!(map.remove(64), None);
        assert_eq!(map.len(), reference.len() - 2);
        for id in map.keys().collect::<Vec<_>>() {
            assert!(map.remove(id).is_some());
        }
        assert!(map.is_empty());
        assert_eq!(map.chunk_count(), 0);
    }

    #[test]
    fn a_write_through_a_clone_copies_one_chunk_and_leaves_the_original_intact() {
        let (original, _) = sample();
        let mut copy = original.clone();
        assert_eq!(copy.chunks_shared_with(&original), original.chunk_count());
        // Misses copy nothing.
        assert!(copy.get_mut(66).is_none());
        assert!(copy.remove(66).is_none());
        assert_eq!(copy.chunks_shared_with(&original), original.chunk_count());
        copy.get_mut(65).unwrap().push('!');
        assert_eq!(
            copy.chunks_shared_with(&original),
            original.chunk_count() - 1
        );
        assert_eq!(original.get(65), Some(&"v65".to_string()));
        assert_eq!(copy.get(65), Some(&"v65!".to_string()));
        // The sibling in the copied chunk came along unchanged.
        assert_eq!(copy.get(64), original.get(64));
    }
}
