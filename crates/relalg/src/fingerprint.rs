//! Fixed-width **join-key fingerprints** over interned values — the data
//! layout the hot loops key their hash tables on.
//!
//! A join key used to be a `Vec<&Value>`: one heap allocation per probed
//! row, SipHash over every value, and pointer-chasing equality. With
//! strings interned ([`mod@crate::intern`]), every [`Value`] packs into one
//! `u64` *word* (tag bits + int bits / bool / dictionary id), and a key —
//! any ordered slice of tuple positions — folds into a single mixed `u64`
//! **fingerprint**. The join build/probe in [`crate::plan`] and
//! [`mod@crate::eval`], the ⊕-bucket slot maps, and the registry's per-root
//! taps all key on fingerprints through an identity-hash map
//! ([`FpMap`]): no per-row allocation, no byte-walking hash, one integer
//! compare per lookup. Fingerprints can collide, so every consumer keeps a
//! collision-checked fallback: candidates that share a fingerprint are
//! verified against the actual values (an `O(arity)` integer compare under
//! interning) before they count as equal.
//!
//! ## Layout modes
//!
//! [`LayoutMode`] is snapshotted per *structure* at construction, so a
//! table is never built under one mode and probed under another:
//!
//! * [`LayoutMode::Fingerprint`] — the layout described above, and the
//!   only one production code runs.
//! * [`LayoutMode::Collide`] — every fingerprint is the same constant, so
//!   *all* keys collide and the fallback path carries the entire workload.
//!   A test hook switched on with [`force_layout`]: correctness under
//!   `Collide` proves the collision handling is complete. Both modes
//!   produce **bit-identical results** — the mode moves constants, never
//!   output.

use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Which key layout the structure under construction uses. See the module
/// docs; snapshot it once per structure with [`LayoutMode::current`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LayoutMode {
    /// Fingerprinted keys over interned ids (the default).
    Fingerprint,
    /// Fingerprinting with every fingerprint forced equal — exercises the
    /// collision-checked fallback end to end (test-only).
    Collide,
}

/// Set while [`force_layout`] holds the process in [`LayoutMode::Collide`].
static COLLIDE: AtomicBool = AtomicBool::new(false);

impl LayoutMode {
    /// The mode new structures should be built with: [`LayoutMode::Collide`]
    /// while [`force_layout`] forces it, else [`LayoutMode::Fingerprint`].
    pub fn current() -> LayoutMode {
        if COLLIDE.load(Ordering::Relaxed) {
            LayoutMode::Collide
        } else {
            LayoutMode::Fingerprint
        }
    }

    /// Fingerprint of the key formed by `positions` of `t`. Under
    /// [`LayoutMode::Collide`] every key fingerprints to the same constant.
    pub fn key_fp(self, t: &Tuple, positions: &[usize]) -> u64 {
        match self {
            LayoutMode::Collide => COLLIDE_FP,
            LayoutMode::Fingerprint => fp_of(positions.iter().map(|&i| t.get(i))),
        }
    }

    /// Fingerprint of the whole tuple (all positions in order).
    pub fn tuple_fp(self, t: &Tuple) -> u64 {
        match self {
            LayoutMode::Collide => COLLIDE_FP,
            LayoutMode::Fingerprint => fp_of(t.values().iter()),
        }
    }
}

/// Force every subsequently *constructed* structure into `mode` (`None`
/// restores the fingerprint default). Existing structures are unaffected —
/// each snapshots its mode at construction — so flipping the override
/// mid-flight is safe; it only changes what gets built next.
/// Process-global: a hook for differential tests, not a configuration.
pub fn force_layout(mode: Option<LayoutMode>) {
    COLLIDE.store(mode == Some(LayoutMode::Collide), Ordering::Relaxed);
}

/// The constant all fingerprints collapse to under [`LayoutMode::Collide`].
const COLLIDE_FP: u64 = 0xC0111DE;

/// `splitmix64` finalizer — the standard 64-bit mixer; good avalanche from
/// one multiply-xor-shift round trip.
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Pack one value into a fixed-width word: a tag in the top bits so values
/// of different variants never alias, payload below (int bits, bool, or
/// the interned dictionary id).
#[inline]
fn value_word(v: &Value) -> u64 {
    match v {
        Value::Bool(b) => (1 << 62) | u64::from(*b),
        Value::Int(i) => (2 << 62) | (*i as u64 & ((1 << 62) - 1)),
        Value::Str(s) => (3 << 62) | u64::from(s.id()),
    }
}

/// Fold an ordered sequence of values into one fingerprint. Order matters
/// (the accumulator threads through the mixer), so `(a, b)` and `(b, a)`
/// fingerprint differently.
#[inline]
pub(crate) fn fp_of<'a>(values: impl Iterator<Item = &'a Value>) -> u64 {
    let mut h: u64 = 0x5108_37AC_E2D4_9F13;
    for v in values {
        h = splitmix64(h ^ value_word(v));
    }
    h
}

/// Pass-through hasher for keys that are already well-mixed fingerprints:
/// `write_u64` stores the word, `finish` returns it. Using SipHash on top
/// of a fingerprint would re-pay the cost the fingerprint removed.
#[derive(Default, Clone)]
pub struct FpHasher(u64);

impl Hasher for FpHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Fingerprint maps are keyed on u64 only; this path would indicate
        // a mis-keyed map. Fold bytes anyway to stay correct.
        for &b in bytes {
            self.0 = splitmix64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, w: u64) {
        self.0 = w;
    }
}

/// A hash map keyed by pre-mixed `u64` fingerprints (identity hash).
pub type FpMap<V> = HashMap<u64, V, BuildHasherDefault<FpHasher>>;

/// Values sharing one fingerprint: almost always exactly one, a spilled
/// list only on a genuine collision (or under [`LayoutMode::Collide`]).
/// Keeping the single-entry case inline means a fingerprint table of
/// mostly-unique keys — the normal join shape — does no per-key list
/// allocation at all.
#[derive(Clone, Debug)]
pub(crate) enum Bucket<T> {
    One(T),
    Many(Vec<T>),
}

impl<T: Copy> Bucket<T> {
    /// Append `v`, spilling to a list on the first collision.
    pub(crate) fn push(&mut self, v: T) {
        match self {
            Bucket::One(first) => *self = Bucket::Many(vec![*first, v]),
            Bucket::Many(list) => list.push(v),
        }
    }

    /// The bucketed values, in insertion order.
    pub(crate) fn as_slice(&self) -> &[T] {
        match self {
            Bucket::One(v) => std::slice::from_ref(v),
            Bucket::Many(list) => list,
        }
    }
}

/// Slots sharing one fingerprint (see [`Bucket`]).
pub(crate) type SlotEntry = Bucket<usize>;

/// A tuple → slot index keyed on whole-tuple fingerprints ([`fp_of`])
/// with collision-checked fallback. Lookups resolve candidate slots
/// against the caller's tuple column — the map itself stores no tuple
/// handles, which also makes clears cheap.
#[derive(Clone, Debug)]
pub(crate) struct TupleSlotMap {
    mode: LayoutMode,
    map: FpMap<SlotEntry>,
}

impl TupleSlotMap {
    /// An empty map laid out per [`LayoutMode::current`].
    pub(crate) fn with_capacity(n: usize) -> TupleSlotMap {
        TupleSlotMap {
            mode: LayoutMode::current(),
            map: FpMap::with_capacity_and_hasher(n, BuildHasherDefault::default()),
        }
    }

    /// Record that `t` lives at `slot`. The caller must not insert the
    /// same tuple twice (slot maps are built over distinct tuples; use
    /// [`TupleSlotMap::get`] first for get-or-insert flows).
    pub(crate) fn insert(&mut self, t: &Arc<Tuple>, slot: usize) {
        self.map
            .entry(self.mode.tuple_fp(t))
            .and_modify(|b| b.push(slot))
            .or_insert(SlotEntry::One(slot));
    }

    /// The slot of `t`, if present. `tuples` is the slot → tuple column
    /// candidates are verified against.
    pub(crate) fn get(&self, t: &Tuple, tuples: &[Arc<Tuple>]) -> Option<usize> {
        self.map
            .get(&self.mode.tuple_fp(t))?
            .as_slice()
            .iter()
            .copied()
            .find(|&s| *tuples[s] == *t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::tuple;

    #[test]
    fn value_words_are_tagged_per_variant() {
        // A bool, an int and a string whose payload bits coincide must
        // still fingerprint apart.
        let b = Value::bool(true);
        let i = Value::int(1);
        let s = Value::str("x");
        assert_ne!(value_word(&b), value_word(&i));
        assert_ne!(value_word(&i), value_word(&s));
        assert_ne!(value_word(&b), value_word(&s));
    }

    #[test]
    fn fingerprints_are_order_sensitive() {
        let ab = tuple(["a", "b"]);
        let ba = tuple(["b", "a"]);
        let mode = LayoutMode::Fingerprint;
        assert_ne!(mode.tuple_fp(&ab), mode.tuple_fp(&ba));
        assert_eq!(mode.tuple_fp(&ab), mode.tuple_fp(&tuple(["a", "b"])));
    }

    #[test]
    fn key_fp_selects_positions() {
        let t = tuple(["a", "b", "c"]);
        let mode = LayoutMode::Fingerprint;
        assert_eq!(mode.key_fp(&t, &[0]), mode.tuple_fp(&tuple(["a"])));
        assert_ne!(mode.key_fp(&t, &[0]), mode.key_fp(&t, &[1]));
    }

    #[test]
    fn collide_mode_flattens_every_fingerprint() {
        let mode = LayoutMode::Collide;
        assert_eq!(
            mode.tuple_fp(&tuple(["a"])),
            mode.tuple_fp(&tuple(["completely", "different"]))
        );
    }

    #[test]
    fn fp_hasher_passes_u64_through() {
        use std::hash::Hasher as _;
        let mut h = FpHasher::default();
        h.write_u64(0xDEAD_BEEF);
        assert_eq!(h.finish(), 0xDEAD_BEEF);
    }

    fn slots_of(tuples: &[Arc<Tuple>]) -> TupleSlotMap {
        let mut m = TupleSlotMap::with_capacity(tuples.len());
        for (i, t) in tuples.iter().enumerate() {
            m.insert(t, i);
        }
        m
    }

    #[test]
    fn slot_map_round_trips_in_every_mode() {
        let tuples: Vec<Arc<Tuple>> = (0..64)
            .map(|i| Arc::new(tuple([format!("k{i}"), format!("v{}", i % 7)])))
            .collect();
        for mode in [LayoutMode::Fingerprint, LayoutMode::Collide] {
            force_layout(Some(mode));
            let m = slots_of(&tuples);
            for (i, t) in tuples.iter().enumerate() {
                assert_eq!(m.get(t, &tuples), Some(i), "{mode:?}");
            }
            assert_eq!(m.get(&tuple(["missing", "row"]), &tuples), None, "{mode:?}");
        }
        force_layout(None);
    }
}
