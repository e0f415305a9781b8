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
//! * **Level 2 — per uarch**: a slot in a fixed array indexed by the
//!   microarchitecture, holding the [`AnnotatedBlock`] and its Brief
//!   rows: the `Ok` [`Detail::Brief`](facile_explain::Detail::Brief)
//!   predictions made on it, keyed by the predictor's identity and the
//!   resolved notion. The second uarch of a sweep costs an array probe,
//!   not a rehash of the block bytes, and its annotation specialises the
//!   resident dataflow instead of rebuilding it.
//!
//! An engine annotates through one function, `get_or_annotate`, with a
//! cache and without one. With a cache it makes exactly one locked
//! `(bytes, uarch)` probe of both levels: a level-2 hit is the
//! annotation, and under the same lock it also copies out the Brief
//! rows the unit's predictors already have, so a warm unit is answered
//! without running a model or taking a second lock. A level-1 hit lends
//! the resident dataflow; only bytes never seen ask the caller for a
//! dataflow, which shares the input's decoded block, decodes its bytes,
//! or reuses the block its worker holds. The annotation is then built
//! outside the lock and published with one insert, and each Brief row
//! the engine computes for it is kept with one more (`memoize`). Without
//! a cache, the probe and the inserts are skipped and everything else is
//! the same code.
//!
//! A Brief row is kept only for a predictor that says its answers are
//! pure functions of the annotated block and notion
//! ([`Predictor::memoizable`]); an external tool is not, and keeps its
//! own result cache. The key is the predictor's `Arc` identity, held as
//! a `Weak` so that its address cannot be reused while the row lives:
//! re-registering a key installs a new predictor, which never sees the
//! old one's rows.
//!
//! Storage is a byte-bounded, sharded segmented LRU
//! ([`facile_util::SlruCache`]): a long-running server fed an endless
//! stream of *distinct* blocks evicts cold probation entries instead of
//! growing without bound, while the hot working set is promoted to the
//! protected segment and survives. Brief rows are counted in their
//! entry's bytes, so the byte bound covers them, and they leave with
//! their entry on eviction or `clear`. The cache is a pure memoization,
//! so an evicted block simply re-decodes, re-annotates and re-predicts
//! on its next occurrence with bit-identical results.

use crate::engine::notion;
use crate::error::PredictError;
use crate::predictor::{Prediction, Predictor};
use facile_core::Mode;
use facile_explain::Component;
use facile_faults::Point;
use facile_isa::{AnnotatedBlock, Dataflow};
use facile_uarch::Uarch;
use facile_util::{Counters, HeapSize, SlruCache, SmallVec};
use facile_x86::Block;
use std::borrow::Cow;
use std::sync::{Arc, Weak};

/// A shared value with its block's canonical hex rendering.
pub(crate) type WithHex<T> = (Arc<T>, Arc<str>);

/// What a [`Detail::Brief`](facile_explain::Detail::Brief) prediction
/// carries: its throughput and bottleneck.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Brief {
    throughput: f64,
    bottleneck: Option<Component>,
}

impl Brief {
    /// The Brief part of `p`: `None` when `p` carries an explanation.
    pub(crate) fn of(p: &Prediction) -> Option<Brief> {
        p.explanation.is_none().then_some(Brief {
            throughput: p.throughput,
            bottleneck: p.bottleneck,
        })
    }

    /// The prediction this Brief row was kept from.
    pub(crate) fn prediction(self) -> Prediction {
        Prediction {
            throughput: self.throughput,
            bottleneck: self.bottleneck,
            explanation: None,
        }
    }
}

/// One unit's kept Brief rows, one per predictor it asked for (in the
/// order asked); empty when the unit's annotation was not resident.
pub(crate) type Briefs = SmallVec<Option<Brief>, 4>;

/// What a unit asks a level-2 hit for besides its annotation: the Brief
/// rows of `predictors` at its notion (`mode`, `None` = auto).
#[derive(Clone, Copy)]
pub(crate) struct Wanted<'a> {
    pub(crate) predictors: &'a [Arc<dyn Predictor>],
    pub(crate) mode: Option<Mode>,
}

impl Wanted<'_> {
    /// Ask for no Brief rows.
    pub(crate) const NOTHING: Wanted<'static> = Wanted {
        predictors: &[],
        mode: None,
    };
}

/// A kept Brief row with its key, the predictor that made it and the
/// resolved notion (flat, so a row takes 32 bytes).
#[derive(Debug)]
struct BriefRow {
    predictor: Weak<dyn Predictor>,
    throughput: f64,
    bottleneck: Option<Component>,
    mode: Mode,
}

impl BriefRow {
    fn is_for(&self, predictor: &Arc<dyn Predictor>, mode: Mode) -> bool {
        self.mode == mode && std::ptr::addr_eq(self.predictor.as_ptr(), Arc::as_ptr(predictor))
    }

    fn brief(&self) -> Brief {
        Brief {
            throughput: self.throughput,
            bottleneck: self.bottleneck,
        }
    }
}

/// One level-2 slot: an annotation and the Brief rows made on it.
#[derive(Debug)]
struct Slot {
    annotation: Arc<AnnotatedBlock>,
    briefs: Box<[BriefRow]>,
}

impl Slot {
    /// The kept rows `wanted` asks for.
    fn briefs(&self, wanted: Wanted<'_>) -> Briefs {
        let mut out = Briefs::new();
        if self.briefs.is_empty() {
            return out;
        }
        let mode = notion(wanted.mode, &self.annotation);
        for p in wanted.predictors {
            out.push(
                self.briefs
                    .iter()
                    .find(|r| r.is_for(p, mode))
                    .map(BriefRow::brief),
            );
        }
        out
    }
}

/// The cache's counters, in per-thread cells: every lookup bumps one,
/// and a shared cell would be written by every worker.
const HITS: usize = 0;
const MISSES: usize = 1;
const DECODE_HITS: usize = 2;
const DECODE_MISSES: usize = 3;

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
/// per-uarch slots (an array index per [`Uarch`], not a second map).
#[derive(Debug)]
struct ByteEntry {
    dataflow: Arc<Dataflow>,
    hex: Arc<str>,
    slots: [Option<Slot>; Uarch::ALL.len()],
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
            slots: Default::default(),
        }
    }

    /// Publish `ab` (accounted at `bytes`) into slot `ui` unless a racing
    /// writer got there first; returns the resident annotation.
    fn insert(&mut self, ui: usize, ab: Arc<AnnotatedBlock>, bytes: usize) -> &Arc<AnnotatedBlock> {
        let slot = &mut self.slots[ui];
        if slot.is_none() {
            self.bytes += bytes;
        }
        &slot
            .get_or_insert(Slot {
                annotation: ab,
                briefs: Box::default(),
            })
            .annotation
    }

    /// Keep `brief` in slot `ui` for `(predictor, mode)` unless the slot
    /// is empty (evicted and not re-published) or already keeps one (a
    /// racing duplicate, which computed the same row).
    fn memoize(&mut self, ui: usize, predictor: &Arc<dyn Predictor>, mode: Mode, brief: Brief) {
        let Some(slot) = &mut self.slots[ui] else {
            return;
        };
        if slot.briefs.iter().any(|r| r.is_for(predictor, mode)) {
            return;
        }
        let mut rows = std::mem::take(&mut slot.briefs).into_vec();
        rows.reserve_exact(1);
        rows.push(BriefRow {
            predictor: Arc::downgrade(predictor),
            throughput: brief.throughput,
            bottleneck: brief.bottleneck,
            mode,
        });
        slot.briefs = rows.into_boxed_slice();
        self.bytes += std::mem::size_of::<BriefRow>();
    }
}

/// Accounted bytes of one resident annotation, its owned descriptors
/// included (its shared dataflow counts as a pointer; the level-1 entry
/// owns it).
fn annotation_bytes(ab: &AnnotatedBlock) -> usize {
    std::mem::size_of::<AnnotatedBlock>() + ab.heap_bytes()
}

/// Accounting: the entry owns its dataflow and decoded block (deep, once
/// — the annotations share both by pointer), the hex rendering, each
/// resident annotation and each kept Brief row, summed as they are
/// inserted.
impl HeapSize for ByteEntry {
    fn heap_bytes(&self) -> usize {
        self.bytes
    }
}

/// A thread-safe, sharded, byte-bounded two-level memo table from block
/// bytes to the shared decoded block and its per-uarch annotations and
/// Brief rows.
#[derive(Debug)]
pub struct AnnotationCache {
    table: SlruCache<Box<[u8]>, ByteEntry>,
    counts: Counters<4>,
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
            counts: Counters::new(),
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
        let bytes = Cow::Borrowed(block.bytes());
        let decoded = |_| Ok(dataflow_of(Arc::new(block.clone())));
        match get_or_annotate(Some(self), bytes, uarch, Wanted::NOTHING, decoded) {
            Ok(((ab, _), _)) => ab,
            Err(_) => unreachable!("a decoded block has nothing to decode"),
        }
    }

    /// One locked probe of both levels, with the hit counters applied: a
    /// level-2 hit comes with the Brief rows `wanted` asks for.
    #[allow(clippy::type_complexity)]
    fn probe(
        &self,
        bytes: &[u8],
        ui: usize,
        wanted: Wanted<'_>,
    ) -> Option<Result<(WithHex<AnnotatedBlock>, Briefs), WithHex<Dataflow>>> {
        let probe = self.table.read(bytes, |e| match &e.slots[ui] {
            Some(hit) => Ok((
                (Arc::clone(&hit.annotation), Arc::clone(&e.hex)),
                hit.briefs(wanted),
            )),
            None => Err((Arc::clone(&e.dataflow), Arc::clone(&e.hex))),
        })?;
        if probe.is_ok() {
            self.counts.add(HITS, 1);
        }
        self.counts.add(DECODE_HITS, 1);
        Some(probe)
    }

    /// Keep `brief`, `predictor`'s `Ok` Brief row for the annotated block
    /// `ab` at notion `mode`, beside `ab` in the cache, if its slot is
    /// still resident.
    pub(crate) fn memoize(
        &self,
        ab: &AnnotatedBlock,
        predictor: &Arc<dyn Predictor>,
        mode: Mode,
        brief: Brief,
    ) {
        let ui = ab.uarch() as usize;
        self.table.update(ab.block().bytes(), |e| {
            e.memoize(ui, predictor, mode, brief);
        });
    }

    /// Publish a fresh annotation with one insert (first writer wins) and
    /// return the resident pair. Bytes never seen (`fresh`) get their
    /// entry assembled here, outside the shard lock, and the insert only
    /// moves it in; an entry evicted since the probe, the rare case, is
    /// re-assembled under the lock from the same dataflow and hex. The
    /// entry is keyed by the block's own bytes.
    fn publish(&self, (ab, hex): WithHex<AnnotatedBlock>, fresh: bool) -> WithHex<AnnotatedBlock> {
        let (ui, dataflow) = (ab.uarch() as usize, Arc::clone(ab.dataflow()));
        let ab_bytes = annotation_bytes(&ab);
        self.counts.add(MISSES, 1);
        let mut entry = fresh.then(|| {
            self.counts.add(DECODE_MISSES, 1);
            ByteEntry::new(Arc::clone(&dataflow), Arc::clone(&hex))
        });
        if let Some(entry) = &mut entry {
            entry.insert(ui, Arc::clone(&ab), ab_bytes);
        }
        let bytes = dataflow.block().bytes();
        self.table.get_or_insert_with(
            bytes,
            || bytes.into(),
            || entry.unwrap_or_else(|| ByteEntry::new(Arc::clone(&dataflow), hex)),
            |e| (Arc::clone(e.insert(ui, ab, ab_bytes)), Arc::clone(&e.hex)),
        )
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let (mut blocks, mut entries) = (0, 0);
        self.table.for_each(|_, e| {
            blocks += 1;
            entries += e.slots.iter().flatten().count();
        });
        let [hits, misses, decode_hits, decode_misses] = self.counts.snapshot();
        CacheStats {
            hits,
            misses,
            decode_hits,
            decode_misses,
            entries,
            blocks,
            bytes: self.table.bytes(),
            evictions: self.table.evictions(),
        }
    }

    /// Drop all entries and reset counters.
    pub fn clear(&self) {
        self.table.clear();
        self.counts.reset();
    }
}

/// The annotation of the block spelled `bytes` on `uarch`, with its
/// canonical hex: the one path by which a block is annotated, with a
/// cache or without one. A cache gets exactly one locked probe of both
/// levels, and a level-2 hit is returned as it is, with the Brief rows
/// `wanted` asks for. Otherwise the block is annotated outside any lock,
/// from the resident dataflow or, for bytes the cache has not seen (or
/// without a cache), from `dataflow(bytes)`, which takes the bytes over
/// (a block decoded from owned bytes keeps them without a copy) and
/// whose error is returned and not cached. A cache then publishes the
/// annotation (first writer wins; a racing duplicate is deterministic and
/// harmless), and a fresh annotation has no Brief rows yet.
pub(crate) fn get_or_annotate<'b>(
    cache: Option<&AnnotationCache>,
    bytes: Cow<'b, [u8]>,
    uarch: Uarch,
    wanted: Wanted<'_>,
    dataflow: impl FnOnce(Cow<'b, [u8]>) -> Result<WithHex<Dataflow>, PredictError>,
) -> Result<(WithHex<AnnotatedBlock>, Briefs), PredictError> {
    let probe = cache.and_then(|c| c.probe(&bytes, uarch as usize, wanted));
    let fresh = probe.is_none();
    let (dataflow, hex) = match probe {
        Some(Ok(hit)) => return Ok(hit),
        Some(Err(resident)) => resident,
        None => dataflow(bytes)?,
    };
    facile_faults::maybe_panic(Point::AnnotatePanic, dataflow.block().bytes());
    let ab = Arc::new(AnnotatedBlock::from_dataflow(dataflow, uarch));
    let annotated = match cache {
        Some(cache) => cache.publish((ab, hex), fresh),
        None => (ab, hex),
    };
    Ok((annotated, Briefs::new()))
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
    fn a_kept_brief_row_is_small() {
        assert_eq!(std::mem::size_of::<BriefRow>(), 32);
        assert_eq!(std::mem::size_of::<Option<Slot>>(), 24);
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
            + e.slots
                .iter()
                .flatten()
                .map(|s| annotation_bytes(&s.annotation))
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
                let shared = |_| Ok(dataflow_of(Arc::clone(&b)));
                let ((ab, _), _) =
                    get_or_annotate(Some(&cache), b.bytes().into(), u, Wanted::NOTHING, shared)
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
            get_or_annotate(
                Some(&cache),
                bytes.into(),
                uarch,
                Wanted::NOTHING,
                |bytes| {
                    decodes.set(decodes.get() + 1);
                    Block::decode(&*bytes)
                        .map(|b| dataflow_of(Arc::new(b)))
                        .map_err(|source| PredictError::Decode {
                            input: hex::encode(&bytes),
                            source,
                        })
                },
            )
            .map(|(annotated, _)| annotated)
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
