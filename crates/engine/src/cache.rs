//! The two-level `(block bytes → decoded block → per-uarch annotation)`
//! cache, for callers that reuse work across calls: the server, `facile
//! diff` and the benchmarks. A one-shot caller such as `facile --batch`
//! builds its engine [`without_cache`](crate::Engine::without_cache).
//!
//! Building an [`AnnotatedBlock`] (descriptor lookups, macro-fusion
//! resolution) is the shared front half of every predictor, and decoding
//! the block's bytes is identical across *all* microarchitectures. Across
//! calls, the cache keeps both, in two levels:
//!
//! * **Level 1 — per bytes**: the decoded [`Block`] inside its
//!   uarch-independent [`Dataflow`], with its canonical hex, built once
//!   and shared via `Arc`.
//! * **Level 2 — per uarch**: the [`AnnotatedBlock`], stored in a fixed
//!   array indexed by the microarchitecture — the second uarch of a sweep
//!   costs an array probe, not a rehash of the block bytes, and its
//!   annotation specialises the resident dataflow instead of rebuilding
//!   it.
//!
//! An engine annotates through one function, `get_or_annotate`, with a
//! cache and without one. With a cache it makes exactly one locked
//! `(bytes, uarch)` probe of both levels: a level-2 hit is the answer; a
//! level-1 hit lends the resident dataflow; only bytes never seen ask
//! the caller for a dataflow, which shares the input's decoded block,
//! decodes its bytes, or reuses the block its worker holds. The
//! annotation is then built outside the lock and published with one
//! insert. Without a cache, the probe and the insert are skipped and
//! everything else is the same code.
//!
//! Storage is a byte-bounded, sharded segmented LRU
//! ([`facile_util::SlruCache`]): a long-running server fed an endless
//! stream of *distinct* blocks evicts cold probation entries instead of
//! growing without bound, while the hot working set is promoted to the
//! protected segment and survives. The cache is a pure memoization, so
//! an evicted block simply re-decodes/re-annotates on its next
//! occurrence with bit-identical results.

use crate::error::PredictError;
use facile_faults::Point;
use facile_isa::{AnnotatedBlock, Dataflow};
use facile_uarch::Uarch;
use facile_util::{HeapSize, SlruCache};
use facile_x86::Block;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A shared value with its block's canonical hex rendering.
pub(crate) type WithHex<T> = (Arc<T>, Arc<str>);

/// Hit/miss counters of a [`AnnotationCache`], per level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Annotation lookups served from the cache (level 2 hits).
    pub hits: u64,
    /// Annotation lookups that had to annotate (level 2 misses).
    pub misses: u64,
    /// Lookups that found the decoded block resident (level 1 hits),
    /// including every level-2 hit. A `decode_hits > hits` gap is the
    /// multi-uarch sweep win: the bytes were known, only the
    /// per-uarch annotation was new.
    pub decode_hits: u64,
    /// Lookups whose bytes had never been seen: the block was decoded
    /// (or registered, for pre-decoded inputs) from scratch.
    pub decode_misses: u64,
    /// Annotations currently resident (level 2 entries).
    pub entries: usize,
    /// Distinct decoded blocks currently resident (level 1 entries).
    pub blocks: usize,
    /// Accounted bytes currently resident.
    pub bytes: usize,
    /// Entries evicted by the byte bound since the last clear.
    pub evictions: u64,
}

/// One level-1 entry: the block's dataflow (which owns the decoded
/// block), its canonical hex rendering (batch rows carry it; rendering
/// once per distinct bytes beats re-formatting it per row), and the
/// per-uarch annotations (an array index per [`Uarch`], not a second
/// map).
#[derive(Debug)]
struct ByteEntry {
    dataflow: Arc<Dataflow>,
    hex: Arc<str>,
    annos: [Option<Arc<AnnotatedBlock>>; Uarch::ALL.len()],
    /// Running total of [`HeapSize::heap_bytes`]: the cache asks for it
    /// under the shard lock before and after every insert, so it must
    /// not re-walk the resident annotations.
    bytes: usize,
}

impl ByteEntry {
    /// Assemble an entry from its dataflow and hex, both built
    /// beforehand (the accounting walks the block's instructions, so
    /// callers assemble it outside the shard lock where they can).
    fn new(dataflow: Arc<Dataflow>, hex: Arc<str>) -> ByteEntry {
        ByteEntry {
            bytes: std::mem::size_of::<Dataflow>() + dataflow.heap_bytes() + hex.len(),
            dataflow,
            hex,
            annos: Default::default(),
        }
    }

    /// Publish `ab` (accounted at `bytes`) into slot `ui` unless a racing
    /// writer got there first; returns the resident annotation.
    fn insert(&mut self, ui: usize, ab: Arc<AnnotatedBlock>, bytes: usize) -> &Arc<AnnotatedBlock> {
        let slot = &mut self.annos[ui];
        if slot.is_none() {
            self.bytes += bytes;
        }
        slot.get_or_insert(ab)
    }
}

/// Accounted bytes of one resident annotation (its shared dataflow and
/// interned descriptors count as pointers; the level-1 entry and the
/// intern table own those).
fn annotation_bytes(ab: &AnnotatedBlock) -> usize {
    std::mem::size_of::<AnnotatedBlock>() + ab.heap_bytes()
}

/// Accounting: the entry owns its dataflow and decoded block (deep, once
/// — the annotations share both by pointer), the hex rendering, and each
/// resident annotation, summed as they are inserted.
impl HeapSize for ByteEntry {
    fn heap_bytes(&self) -> usize {
        self.bytes
    }
}

/// A thread-safe, sharded, byte-bounded two-level memo table from block
/// bytes to the shared decoded block and its per-uarch annotations.
#[derive(Debug)]
pub struct AnnotationCache {
    table: SlruCache<Box<[u8]>, ByteEntry>,
    hits: AtomicU64,
    misses: AtomicU64,
    decode_hits: AtomicU64,
    decode_misses: AtomicU64,
}

impl Default for AnnotationCache {
    fn default() -> Self {
        AnnotationCache::new()
    }
}

impl AnnotationCache {
    /// An empty cache, accounted but effectively unbounded.
    #[must_use]
    pub fn new() -> AnnotationCache {
        AnnotationCache::with_capacity(usize::MAX)
    }

    /// An empty cache holding at most `capacity` accounted bytes.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> AnnotationCache {
        AnnotationCache {
            table: SlruCache::new(capacity),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            decode_hits: AtomicU64::new(0),
            decode_misses: AtomicU64::new(0),
        }
    }

    /// Change the byte capacity, evicting down to it if needed.
    pub fn set_capacity(&self, bytes: usize) {
        self.table.set_capacity(bytes);
    }

    /// The annotation of `block` on `uarch`, computed at most once per
    /// distinct `(byte sequence, uarch)`: the one clone needed to own the
    /// level-1 entry happens only when the bytes were never seen.
    pub fn annotate(&self, block: &Block, uarch: Uarch) -> Arc<AnnotatedBlock> {
        let decoded = || Ok(dataflow_of(Arc::new(block.clone())));
        match get_or_annotate(Some(self), block.bytes(), uarch, decoded) {
            Ok((ab, _)) => ab,
            Err(_) => unreachable!("a decoded block has nothing to decode"),
        }
    }

    /// One locked probe of both levels, with the hit counters applied.
    fn probe(
        &self,
        bytes: &[u8],
        ui: usize,
    ) -> Option<Result<WithHex<AnnotatedBlock>, WithHex<Dataflow>>> {
        let probe = self.table.read(bytes, |e| match &e.annos[ui] {
            Some(hit) => Ok((Arc::clone(hit), Arc::clone(&e.hex))),
            None => Err((Arc::clone(&e.dataflow), Arc::clone(&e.hex))),
        })?;
        if probe.is_ok() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        self.decode_hits.fetch_add(1, Ordering::Relaxed);
        Some(probe)
    }

    /// Publish a fresh annotation with one insert (first writer wins) and
    /// return the resident pair. Bytes never seen (`fresh`) get their
    /// entry assembled here, outside the shard lock, and the insert only
    /// moves it in; an entry evicted since the probe, the rare case, is
    /// re-assembled under the lock from the same dataflow and hex.
    fn publish(
        &self,
        bytes: &[u8],
        (ab, hex): WithHex<AnnotatedBlock>,
        fresh: bool,
    ) -> WithHex<AnnotatedBlock> {
        let (ui, dataflow) = (ab.uarch() as usize, Arc::clone(ab.dataflow()));
        let ab_bytes = annotation_bytes(&ab);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut entry = fresh.then(|| {
            self.decode_misses.fetch_add(1, Ordering::Relaxed);
            ByteEntry::new(Arc::clone(&dataflow), Arc::clone(&hex))
        });
        if let Some(entry) = &mut entry {
            entry.insert(ui, Arc::clone(&ab), ab_bytes);
        }
        self.table.get_or_insert_with(
            bytes,
            || bytes.into(),
            move || entry.unwrap_or_else(|| ByteEntry::new(dataflow, hex)),
            move |e| (Arc::clone(e.insert(ui, ab, ab_bytes)), Arc::clone(&e.hex)),
        )
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let (mut blocks, mut entries) = (0, 0);
        self.table.for_each(|_, e| {
            blocks += 1;
            entries += e.annos.iter().flatten().count();
        });
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            decode_hits: self.decode_hits.load(Ordering::Relaxed),
            decode_misses: self.decode_misses.load(Ordering::Relaxed),
            entries,
            blocks,
            bytes: self.table.bytes(),
            evictions: self.table.evictions(),
        }
    }

    /// Drop all entries and reset counters.
    pub fn clear(&self) {
        self.table.clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.decode_hits.store(0, Ordering::Relaxed);
        self.decode_misses.store(0, Ordering::Relaxed);
    }
}

/// The annotation of the block spelled `bytes` on `uarch`, with its
/// canonical hex: the one path by which a block is annotated, with a
/// cache or without one. A cache gets exactly one locked probe of both
/// levels, and a level-2 hit is returned as it is. Otherwise the block is
/// annotated outside any lock, from the resident dataflow or, for bytes
/// the cache has not seen (or without a cache), from `dataflow()`, whose
/// error is returned and not cached. A cache then publishes the
/// annotation (first writer wins; a racing duplicate is deterministic
/// and harmless).
pub(crate) fn get_or_annotate(
    cache: Option<&AnnotationCache>,
    bytes: &[u8],
    uarch: Uarch,
    dataflow: impl FnOnce() -> Result<WithHex<Dataflow>, PredictError>,
) -> Result<WithHex<AnnotatedBlock>, PredictError> {
    let probe = cache.and_then(|c| c.probe(bytes, uarch as usize));
    let fresh = probe.is_none();
    let (dataflow, hex) = match probe {
        Some(Ok(hit)) => return Ok(hit),
        Some(Err(resident)) => resident,
        None => dataflow()?,
    };
    facile_faults::maybe_panic(Point::AnnotatePanic, bytes);
    let ab = Arc::new(AnnotatedBlock::from_dataflow(dataflow, uarch));
    Ok(match cache {
        Some(cache) => cache.publish(bytes, (ab, hex), fresh),
        None => (ab, hex),
    })
}

/// A decoded block's new dataflow and its canonical hex.
pub(crate) fn dataflow_of(block: Arc<Block>) -> WithHex<Dataflow> {
    let hex = block.to_hex().into();
    (Arc::new(Dataflow::new(block)), hex)
}

#[cfg(test)]
mod tests {
    use super::*;
    use facile_x86::hex;
    use facile_x86::reg::names::*;
    use facile_x86::Mnemonic;

    #[test]
    fn annotation_is_shared_per_bytes_and_uarch() {
        let cache = AnnotationCache::new();
        let b = Block::assemble(&[(Mnemonic::Add, vec![RAX.into(), RCX.into()])]).unwrap();
        let a1 = cache.annotate(&b, Uarch::Skl);
        let a2 = cache.annotate(&b, Uarch::Skl);
        assert!(Arc::ptr_eq(&a1, &a2));
        let a3 = cache.annotate(&b, Uarch::Hsw);
        assert!(!Arc::ptr_eq(&a1, &a3));
        let s = cache.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert_eq!(s.entries, 2);
        // One decoded block backs both annotations.
        assert_eq!(s.blocks, 1);
        assert_eq!(s.decode_misses, 1);
        assert!(s.bytes > 0);
        cache.clear();
        assert_eq!(cache.stats(), CacheStats::default());
    }

    fn loop_block() -> Block {
        Block::assemble(&[
            (Mnemonic::Add, vec![RAX.into(), RCX.into()]),
            (Mnemonic::Dec, vec![RDX.into()]),
            (
                Mnemonic::Jcc(facile_x86::Cond::Ne),
                vec![facile_x86::Operand::Rel(-7)],
            ),
        ])
        .unwrap()
    }

    #[test]
    fn running_byte_total_matches_a_recount() {
        let b = Arc::new(loop_block());
        let df = Arc::new(Dataflow::new(Arc::clone(&b)));
        let mut e = ByteEntry::new(Arc::clone(&df), b.to_hex().into());
        for (ui, &u) in Uarch::ALL.iter().enumerate() {
            let ab = Arc::new(AnnotatedBlock::from_dataflow(Arc::clone(&df), u));
            let n = annotation_bytes(&ab);
            e.insert(ui, Arc::clone(&ab), n);
            // A racing duplicate loses and adds nothing.
            e.insert(ui, ab, n);
        }
        // The dataflow (with its block) is counted once, however many
        // annotations share it.
        let recount = std::mem::size_of::<Dataflow>()
            + df.heap_bytes()
            + e.hex.len()
            + e.annos
                .iter()
                .flatten()
                .map(|a| annotation_bytes(a))
                .sum::<usize>();
        assert_eq!(e.heap_bytes(), recount);
    }

    #[test]
    fn a_nine_uarch_sweep_builds_one_dataflow() {
        let cache = AnnotationCache::new();
        let b = Arc::new(loop_block());
        let annos: Vec<_> = Uarch::ALL
            .iter()
            .map(|&u| {
                let shared = || Ok(dataflow_of(Arc::clone(&b)));
                let (ab, _) = get_or_annotate(Some(&cache), b.bytes(), u, shared)
                    .expect("a decoded block annotates");
                ab
            })
            .collect();
        let resident = cache
            .table
            .read(b.bytes(), |e| Arc::clone(&e.dataflow))
            .expect("the block is resident");
        for a in &annos {
            assert!(Arc::ptr_eq(a.dataflow(), &resident), "{}", a.uarch());
        }
        // The entry and the nine annotations hold the only references.
        assert_eq!(Arc::strong_count(&resident), 1 + 1 + annos.len());
        let s = cache.stats();
        assert_eq!((s.blocks, s.entries), (1, Uarch::ALL.len()));
        assert_eq!(s.decode_misses, 1);
    }

    #[test]
    fn decode_is_memoized_and_shared_with_annotations() {
        let cache = AnnotationCache::new();
        let b = Block::assemble(&[(Mnemonic::Add, vec![RAX.into(), RCX.into()])]).unwrap();
        let decodes = std::cell::Cell::new(0);
        let get = |bytes: &[u8], uarch| {
            get_or_annotate(Some(&cache), bytes, uarch, || {
                decodes.set(decodes.get() + 1);
                Block::decode(bytes)
                    .map(|b| dataflow_of(Arc::new(b)))
                    .map_err(|source| PredictError::Decode {
                        input: hex::encode(bytes),
                        source,
                    })
            })
        };
        let (a1, hex) = get(b.bytes(), Uarch::Skl).expect("valid bytes");
        let (a2, _) = get(b.bytes(), Uarch::Skl).expect("valid bytes");
        assert!(Arc::ptr_eq(&a1, &a2));
        // Another uarch's annotation reuses the cached decoded block.
        let (a3, _) = get(b.bytes(), Uarch::Hsw).expect("valid bytes");
        assert!(std::ptr::eq(a3.block(), a1.block()));
        assert_eq!(decodes.get(), 1);
        assert_eq!(&*hex, a1.block().to_hex());
        let s = cache.stats();
        assert_eq!(s.decode_misses, 1);
        assert!(s.decode_hits >= 2);
        // Bad bytes error out and are not cached.
        assert!(get(&[0x06], Uarch::Skl).is_err());
        assert_eq!(cache.stats().blocks, 1);
    }

    #[test]
    fn entries_count_across_shards() {
        let cache = AnnotationCache::new();
        // Distinct byte patterns land in different shards; the aggregate
        // entry count must still see all of them.
        let blocks: Vec<Block> = (0..32u8)
            .map(|i| {
                Block::assemble(&[(
                    Mnemonic::Add,
                    vec![
                        facile_x86::Reg::gpr(i % 8, facile_x86::reg::Width::W64).into(),
                        RCX.into(),
                    ],
                )])
                .unwrap()
            })
            .collect();
        for b in &blocks {
            cache.annotate(b, Uarch::Skl);
        }
        let distinct: std::collections::HashSet<&[u8]> = blocks.iter().map(Block::bytes).collect();
        assert_eq!(cache.stats().entries, distinct.len());
        assert_eq!(cache.stats().blocks, distinct.len());
    }

    #[test]
    fn tight_capacity_evicts_but_stays_correct() {
        let bounded = AnnotationCache::with_capacity(16 * 1024);
        let unbounded = AnnotationCache::new();
        let blocks: Vec<Block> = (0..512u32)
            .map(|i| {
                // mov eax, imm32 with a distinct immediate per block.
                let mut bytes = vec![0xb8];
                bytes.extend_from_slice(&i.to_le_bytes());
                Block::decode(&bytes).unwrap()
            })
            .collect();
        for b in &blocks {
            let a = bounded.annotate(b, Uarch::Skl);
            let r = unbounded.annotate(b, Uarch::Skl);
            assert_eq!(format!("{a:?}"), format!("{r:?}"));
        }
        let s = bounded.stats();
        assert!(s.bytes <= 16 * 1024, "bytes {} over cap", s.bytes);
        assert!(s.evictions > 0);
        // Re-annotating an evicted block recomputes identically.
        for b in &blocks {
            let a = bounded.annotate(b, Uarch::Skl);
            let r = unbounded.annotate(b, Uarch::Skl);
            assert_eq!(format!("{a:?}"), format!("{r:?}"));
        }
    }
}
