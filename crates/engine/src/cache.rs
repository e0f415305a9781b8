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
//!   uarch-independent [`Dataflow`], built once and shared via `Arc`
//!   (this is also where hex/byte inputs are decoded at most once per
//!   distinct byte string).
//! * **Level 2 — per uarch**: the [`AnnotatedBlock`], stored in a fixed
//!   array indexed by the microarchitecture — the second uarch of a sweep
//!   costs an array probe, not a rehash of the block bytes, and its
//!   annotation specialises the resident dataflow instead of rebuilding
//!   it.
//!
//! Storage is a byte-bounded, sharded segmented LRU
//! ([`facile_util::SlruCache`]): a long-running server fed an endless
//! stream of *distinct* blocks evicts cold probation entries instead of
//! growing without bound, while the hot working set is promoted to the
//! protected segment and survives. The cache is a pure memoization, so
//! an evicted block simply re-decodes/re-annotates on its next
//! occurrence with bit-identical results.

use facile_isa::{AnnotatedBlock, Dataflow};
use facile_uarch::Uarch;
use facile_util::{HeapSize, SlruCache};
use facile_x86::{Block, DecodeError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

    /// A new entry for a block whose bytes missed: builds its dataflow
    /// and hex, so callers run it before taking the shard lock.
    fn build(block: Arc<Block>) -> ByteEntry {
        let hex = block.to_hex().into();
        ByteEntry::new(Arc::new(Dataflow::new(block)), hex)
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

/// The microarchitecture with index `ui` (inverse of `uarch as usize`).
fn ui_uarch(ui: usize) -> Uarch {
    Uarch::ALL[ui]
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

    /// The decoded block for `bytes`, decoding at most once per distinct
    /// byte string (a first decode also builds the block's dataflow, which
    /// its annotations share). Decode failures are not cached (error
    /// inputs are the rare path and keeping them out bounds the table by
    /// valid blocks).
    ///
    /// # Errors
    /// Whatever [`Block::decode`] reports for the bytes.
    pub fn decode(&self, bytes: &[u8]) -> Result<Arc<Block>, DecodeError> {
        if let Some(block) = self.table.read(bytes, |e| Arc::clone(e.dataflow.block())) {
            self.decode_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(block);
        }
        // Decode and build the entry outside the lock; a racing duplicate
        // is deterministic and harmless (first writer wins).
        facile_faults::maybe_panic(facile_faults::Point::DecodePanic, bytes);
        let entry = ByteEntry::build(Arc::new(Block::decode(bytes)?));
        self.decode_misses.fetch_add(1, Ordering::Relaxed);
        Ok(self.table.get_or_insert_with(
            bytes,
            || bytes.into(),
            move || entry,
            |e| Arc::clone(e.dataflow.block()),
        ))
    }

    /// The annotation of `block` on `uarch` plus the block's canonical
    /// hex, computed at most once per distinct `(byte sequence, uarch)`.
    /// Takes a shared block; a level-1 miss registers it (no re-decode,
    /// no block clone).
    pub fn annotate_shared(
        &self,
        block: &Arc<Block>,
        uarch: Uarch,
    ) -> (Arc<AnnotatedBlock>, Arc<str>) {
        self.annotate_or_register(block.bytes(), uarch as usize, || Arc::clone(block))
    }

    /// [`AnnotationCache::annotate_shared`] from a borrowed block: the
    /// one clone needed to own the level-1 entry happens only when the
    /// bytes were never seen.
    pub fn annotate(&self, block: &Block, uarch: Uarch) -> Arc<AnnotatedBlock> {
        self.annotate_with_hex(block, uarch).0
    }

    /// [`AnnotationCache::annotate`] returning the cached canonical hex
    /// rendering along with the annotation.
    pub fn annotate_with_hex(
        &self,
        block: &Block,
        uarch: Uarch,
    ) -> (Arc<AnnotatedBlock>, Arc<str>) {
        self.annotate_or_register(block.bytes(), uarch as usize, || Arc::new(block.clone()))
    }

    /// Both annotate paths. One locked probe of both levels; on a miss,
    /// annotate outside the lock (so workers don't serialize on misses; a
    /// racing duplicate annotation is deterministic and harmless), then
    /// publish with one insert (first writer wins). Bytes never seen get
    /// their entry, dataflow and hex built here too, from the block
    /// `owned` hands over, and the insert only moves it in; an entry
    /// evicted since the probe, the rare case, is re-assembled from the
    /// same dataflow and hex.
    fn annotate_or_register(
        &self,
        bytes: &[u8],
        ui: usize,
        owned: impl FnOnce() -> Arc<Block>,
    ) -> (Arc<AnnotatedBlock>, Arc<str>) {
        let (dataflow, hex, mut fresh) = match self.probe(bytes, ui) {
            Probe::Hit(hit) => return hit,
            Probe::Block(dataflow, hex) => (dataflow, hex, None),
            Probe::Miss => {
                let entry = ByteEntry::build(owned());
                (
                    Arc::clone(&entry.dataflow),
                    Arc::clone(&entry.hex),
                    Some(entry),
                )
            }
        };
        facile_faults::maybe_panic(facile_faults::Point::AnnotatePanic, bytes);
        let ab = Arc::new(AnnotatedBlock::from_dataflow(
            Arc::clone(&dataflow),
            ui_uarch(ui),
        ));
        let ab_bytes = annotation_bytes(&ab);
        self.misses.fetch_add(1, Ordering::Relaxed);
        if let Some(entry) = &mut fresh {
            entry.insert(ui, Arc::clone(&ab), ab_bytes);
        }
        self.table.get_or_insert_with(
            bytes,
            || bytes.into(),
            move || fresh.unwrap_or_else(|| ByteEntry::new(dataflow, hex)),
            move |e| (Arc::clone(e.insert(ui, ab, ab_bytes)), Arc::clone(&e.hex)),
        )
    }

    /// One locked probe of both levels, with the hit counters applied.
    fn probe(&self, bytes: &[u8], ui: usize) -> Probe {
        let probe = self.table.read(bytes, |e| match &e.annos[ui] {
            Some(hit) => Ok((Arc::clone(hit), Arc::clone(&e.hex))),
            None => Err((Arc::clone(&e.dataflow), Arc::clone(&e.hex))),
        });
        match probe {
            Some(Ok(hit)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.decode_hits.fetch_add(1, Ordering::Relaxed);
                Probe::Hit(hit)
            }
            Some(Err((dataflow, hex))) => {
                self.decode_hits.fetch_add(1, Ordering::Relaxed);
                Probe::Block(dataflow, hex)
            }
            None => {
                self.decode_misses.fetch_add(1, Ordering::Relaxed);
                Probe::Miss
            }
        }
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

/// Result of one locked probe of both cache levels.
enum Probe {
    /// Level-2 hit: the annotation and hex.
    Hit((Arc<AnnotatedBlock>, Arc<str>)),
    /// Level-1 hit only: the resident dataflow and hex.
    Block(Arc<Dataflow>, Arc<str>),
    /// The bytes were never seen.
    Miss,
}

#[cfg(test)]
mod tests {
    use super::*;
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
            .map(|&u| cache.annotate_shared(&b, u).0)
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
        let d1 = cache.decode(b.bytes()).expect("valid bytes");
        let d2 = cache.decode(b.bytes()).expect("valid bytes");
        assert!(Arc::ptr_eq(&d1, &d2));
        // The annotation reuses the cached decoded block.
        let (a, hex) = cache.annotate_shared(&d1, Uarch::Skl);
        assert!(std::ptr::eq(a.block(), &*d1));
        assert_eq!(&*hex, d1.to_hex());
        let s = cache.stats();
        assert_eq!(s.decode_misses, 1);
        assert!(s.decode_hits >= 2);
        // Bad bytes error out and are not cached.
        assert!(cache.decode(&[0x06]).is_err());
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
