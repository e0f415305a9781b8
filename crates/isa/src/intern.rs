//! The instruction-descriptor intern table.
//!
//! A corpus like BHive is massively redundant at the instruction level:
//! a few hundred distinct instruction encodings cover millions of block
//! occurrences. Classification ([`describe`](crate::classify::describe))
//! and architectural-effect extraction ([`Inst::effects`]) are by far
//! the heaviest per-instruction steps of annotation, so this module memoizes them process-wide in a
//! **two-level** table keyed by instruction bytes:
//!
//! * **Level 1 — per bytes** ([`InternedCore`]): the decoded instruction
//!   and its architectural effects. These are microarchitecture-
//!   *independent*, so a nine-uarch sweep computes them once, not nine
//!   times.
//! * **Level 2 — per `(bytes, uarch)`** ([`InternedInst`]): the
//!   performance descriptor, stored in a fixed array indexed by the
//!   microarchitecture — probing a second uarch costs an array index,
//!   not another hash lookup.
//!
//! The table is sharded by a deterministic hash of the key bytes so that
//! concurrent annotation threads do not serialize on a single lock.
//!
//! Keying by raw bytes is sound because x86 decoding is prefix-
//! deterministic: a byte string either decodes to exactly one instruction
//! of exactly its own length or it does not appear as a single-entry key
//! at all. Macro-fused pairs are keyed by the concatenated bytes of both
//! instructions, which can never collide with a single-instruction key of
//! the same bytes (the pair's first instruction boundary falls strictly
//! inside the byte string).

use crate::classify::{describe_fused_pair_loading, describe_with_effects};
use crate::desc::InstrDesc;
use facile_uarch::{Uarch, UarchConfig};
use facile_util::{HeapSize, SlruCache};
use facile_x86::{Effects, Inst};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Default byte capacity of the intern table. Keys include immediates
/// and displacements, so a streaming corpus with varied constants can
/// mint unbounded distinct encodings; the segmented-LRU bound keeps
/// the hot working set resident while a cold scan streams through
/// probation. 64 MiB comfortably covers any realistic working set of
/// distinct instructions (an entry is a few hundred accounted bytes).
const DEFAULT_CAPACITY: usize = 64 << 20;

/// The microarchitecture-independent half of an interned instruction:
/// computed once per distinct byte encoding, shared across every
/// microarchitecture's [`InternedInst`].
#[derive(Debug, Clone, PartialEq)]
pub struct InternedCore {
    /// The decoded instruction (pair head for fused pairs).
    pub inst: Inst,
    /// Architectural reads/writes of `inst` (computed once; reading them
    /// per prediction used to be a dominant allocation source).
    pub effects: Effects,
}

/// Everything the annotation of one instruction occurrence needs, shared
/// via `Arc`: the per-bytes [`InternedCore`] and the per-uarch
/// performance descriptor. For a macro-fused pair the core describes the
/// *first* (producing) instruction and `desc` describes the whole pair,
/// mirroring how [`crate::AnnotatedBlock`] attributes fused pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct InternedInst {
    core: Arc<InternedCore>,
    /// The performance descriptor on the keyed microarchitecture.
    pub desc: InstrDesc,
}

impl InternedInst {
    /// The decoded instruction (pair head for fused pairs).
    #[must_use]
    pub fn inst(&self) -> &Inst {
        &self.core.inst
    }

    /// Architectural reads/writes of [`InternedInst::inst`].
    #[must_use]
    pub fn effects(&self) -> &Effects {
        &self.core.effects
    }

    /// Build an entry without a table (the uninterned reference path).
    #[must_use]
    pub fn uninterned(inst: Inst, desc: InstrDesc) -> InternedInst {
        let effects = inst.effects();
        InternedInst {
            core: Arc::new(InternedCore { inst, effects }),
            desc,
        }
    }
}

/// Hit/miss/entry counters of the two-level intern table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InternStats {
    /// Descriptor lookups served fully from the table (core + desc).
    pub hits: u64,
    /// Lookups that had to classify a descriptor.
    pub misses: u64,
    /// Level-1 hits: the bytes were known (decode + effects reused),
    /// even when the requested uarch's descriptor still had to be
    /// classified. Always ≥ `hits`.
    pub core_hits: u64,
    /// Level-1 misses: bytes never seen, decode + effects computed.
    pub core_misses: u64,
    /// Distinct byte encodings resident (level-1 entries).
    pub byte_entries: usize,
    /// Distinct `(bytes, uarch)` descriptors resident (level-2 entries).
    pub entries: usize,
    /// Accounted bytes currently resident.
    pub bytes: usize,
    /// Entries evicted by the byte bound since the last clear.
    pub evictions: u64,
}

/// One level-1 entry: the shared core plus the per-uarch descriptor
/// slots (an array index per [`Uarch`], not a second map).
#[derive(Debug)]
struct ByteEntry {
    core: Arc<InternedCore>,
    per_uarch: [Option<Arc<InternedInst>>; Uarch::ALL.len()],
}

/// Accounting: the entry owns its core (decoded instruction + effects,
/// deep — level-2 entries share it by pointer) and one `InternedInst`
/// per resident uarch slot (whose `core` field is a pointer back).
impl HeapSize for ByteEntry {
    fn heap_bytes(&self) -> usize {
        let core = std::mem::size_of::<InternedCore>()
            + self.core.inst.heap_bytes()
            + self.core.effects.heap_bytes();
        let descs = self
            .per_uarch
            .iter()
            .flatten()
            .map(|e| std::mem::size_of::<InternedInst>() + e.desc.heap_bytes())
            .sum::<usize>();
        core + descs
    }
}

/// The process-wide two-level descriptor intern table, byte-bounded by
/// a segmented LRU (see [`facile_util::SlruCache`]): interning is a
/// pure memoization, so an evicted encoding simply re-interns on its
/// next occurrence with an identical result.
#[derive(Debug)]
pub struct DescInterner {
    table: SlruCache<Box<[u8]>, ByteEntry>,
    hits: AtomicU64,
    misses: AtomicU64,
    core_hits: AtomicU64,
    core_misses: AtomicU64,
}

impl Default for DescInterner {
    fn default() -> Self {
        DescInterner::new()
    }
}

impl DescInterner {
    /// An empty interner (the global one is reached via [`interner`])
    /// with the default byte capacity.
    #[must_use]
    pub fn new() -> DescInterner {
        DescInterner {
            table: SlruCache::new(DEFAULT_CAPACITY),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            core_hits: AtomicU64::new(0),
            core_misses: AtomicU64::new(0),
        }
    }

    /// Change the table's byte capacity, evicting down if needed.
    pub fn set_capacity(&self, bytes: usize) {
        self.table.set_capacity(bytes);
    }

    /// The configured byte capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.table.capacity()
    }

    fn lookup(
        &self,
        bytes: &[u8],
        cfg: &UarchConfig,
        build_core: impl FnOnce() -> InternedCore,
        classify: impl FnOnce(&InternedCore) -> InstrDesc,
    ) -> Arc<InternedInst> {
        let uarch = cfg.arch as usize;
        // Fast path: both levels hit under one lock, one hash probe.
        let probe = self.table.read(bytes, |e| match &e.per_uarch[uarch] {
            Some(hit) => Ok(Arc::clone(hit)),
            None => Err(Arc::clone(&e.core)),
        });
        let core = match probe {
            Some(Ok(hit)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.core_hits.fetch_add(1, Ordering::Relaxed);
                return hit;
            }
            Some(Err(core)) => Some(core),
            None => None,
        };
        // Classify outside the lock so concurrent misses on the same shard
        // don't serialize on the heavy work; a racing duplicate is
        // deterministic (same inputs, same descriptor) and harmless.
        let (core, core_hit) = match core {
            Some(core) => (core, true),
            None => (Arc::new(build_core()), false),
        };
        self.core_hits
            .fetch_add(u64::from(core_hit), Ordering::Relaxed);
        self.core_misses
            .fetch_add(u64::from(!core_hit), Ordering::Relaxed);
        let entry = Arc::new(InternedInst {
            desc: classify(&core),
            core: Arc::clone(&core),
        });
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Publish under the shard lock: the entry may have been evicted
        // (re-insert it) or raced (first writer wins on the uarch slot).
        self.table.get_or_insert_with(
            bytes,
            || bytes.into(),
            move || ByteEntry {
                core,
                per_uarch: Default::default(),
            },
            move |e| Arc::clone(e.per_uarch[uarch].get_or_insert(entry)),
        )
    }

    /// The interned entry for a single (unfused) instruction whose
    /// encoding is `bytes`.
    pub fn single(&self, bytes: &[u8], inst: &Inst, cfg: &UarchConfig) -> Arc<InternedInst> {
        self.lookup(
            bytes,
            cfg,
            || InternedCore {
                inst: inst.clone(),
                effects: inst.effects(),
            },
            |core| describe_with_effects(&core.inst, &core.effects, cfg),
        )
    }

    /// The interned entry for a macro-fused pair, keyed by the
    /// concatenated bytes of both instructions.
    pub fn pair(
        &self,
        bytes: &[u8],
        first: &Inst,
        second: &Inst,
        cfg: &UarchConfig,
    ) -> Arc<InternedInst> {
        let _ = second; // the pair descriptor only depends on the producer
        self.lookup(
            bytes,
            cfg,
            || InternedCore {
                inst: first.clone(),
                effects: first.effects(),
            },
            |core| describe_fused_pair_loading(core.effects.loads, cfg),
        )
    }

    /// Current counters.
    pub fn stats(&self) -> InternStats {
        let (mut byte_entries, mut entries) = (0, 0);
        self.table.for_each(|_, e| {
            byte_entries += 1;
            entries += e.per_uarch.iter().flatten().count();
        });
        InternStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            core_hits: self.core_hits.load(Ordering::Relaxed),
            core_misses: self.core_misses.load(Ordering::Relaxed),
            byte_entries,
            entries,
            bytes: self.table.bytes(),
            evictions: self.table.evictions(),
        }
    }

    /// Drop all entries and reset the counters. Outstanding `Arc`s keep
    /// their entries alive; only the table's references are released.
    pub fn clear(&self) {
        self.table.clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.core_hits.store(0, Ordering::Relaxed);
        self.core_misses.store(0, Ordering::Relaxed);
    }
}

/// The process-wide interner used by [`crate::AnnotatedBlock::new`].
pub fn interner() -> &'static DescInterner {
    static GLOBAL: OnceLock<DescInterner> = OnceLock::new();
    GLOBAL.get_or_init(DescInterner::new)
}

/// Bound the process-wide interner at `bytes` accounted bytes.
pub fn set_intern_capacity(bytes: usize) {
    interner().set_capacity(bytes);
}

/// Counters of the process-wide interner (plumbed into
/// `facile_engine::Engine::snapshot` and the CLI's `--stats` output).
#[must_use]
pub fn intern_stats() -> InternStats {
    interner().stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{describe, describe_fused_pair};
    use facile_x86::reg::names::*;
    use facile_x86::{Block, Mnemonic};

    #[test]
    fn single_entries_are_shared_per_bytes_and_uarch() {
        let t = DescInterner::new();
        let b = Block::assemble(&[(Mnemonic::Add, vec![RAX.into(), RCX.into()])]).unwrap();
        let cfg_skl = Uarch::Skl.config();
        let cfg_hsw = Uarch::Hsw.config();
        let a1 = t.single(b.bytes(), &b.insts()[0], cfg_skl);
        let a2 = t.single(b.bytes(), &b.insts()[0], cfg_skl);
        assert!(Arc::ptr_eq(&a1, &a2));
        let a3 = t.single(b.bytes(), &b.insts()[0], cfg_hsw);
        assert!(!Arc::ptr_eq(&a1, &a3));
        // The uarch-independent core is shared across uarch entries.
        assert!(Arc::ptr_eq(&a1.core, &a3.core));
        let s = t.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 2, 2));
        assert_eq!((s.core_hits, s.core_misses, s.byte_entries), (2, 1, 1));
        t.clear();
        assert_eq!(t.stats(), InternStats::default());
        // The cleared table re-interns; the old Arc is still valid.
        let a4 = t.single(b.bytes(), &b.insts()[0], cfg_skl);
        assert!(!Arc::ptr_eq(&a1, &a4));
        assert_eq!(a1.desc, a4.desc);
    }

    #[test]
    fn interned_matches_direct_classification() {
        let t = DescInterner::new();
        let b = Block::assemble(&[
            (Mnemonic::Imul, vec![RAX.into(), RCX.into()]),
            (Mnemonic::Add, vec![RDX.into(), RBX.into()]),
        ])
        .unwrap();
        for u in Uarch::ALL {
            let cfg = u.config();
            for (i, inst) in b.insts().iter().enumerate() {
                let start = b.offset(i);
                let end = start + inst.len as usize;
                let e = t.single(&b.bytes()[start..end], inst, cfg);
                assert_eq!(e.desc, describe(inst, cfg), "{u}");
                assert_eq!(e.effects(), &inst.effects());
                assert_eq!(e.inst(), inst);
            }
        }
        // One core per distinct encoding, one descriptor per (bytes, uarch).
        let s = t.stats();
        assert_eq!(s.byte_entries, 2);
        assert_eq!(s.entries, 2 * Uarch::ALL.len());
        assert_eq!(s.core_misses, 2);
    }

    #[test]
    fn pair_entries_do_not_collide_with_singles() {
        // dec rdx; jne -7 macro-fuses on SKL: the pair key spans both
        // instructions and must be distinct from dec's own entry.
        let b = Block::assemble(&[
            (Mnemonic::Dec, vec![RDX.into()]),
            (
                Mnemonic::Jcc(facile_x86::Cond::Ne),
                vec![facile_x86::Operand::Rel(-7)],
            ),
        ])
        .unwrap();
        let t = DescInterner::new();
        let cfg = Uarch::Skl.config();
        let insts = b.insts();
        let single = t.single(&b.bytes()[..insts[0].len as usize], &insts[0], cfg);
        let pair = t.pair(b.bytes(), &insts[0], &insts[1], cfg);
        assert!(!Arc::ptr_eq(&single, &pair));
        assert_eq!(pair.desc, describe_fused_pair(&insts[0], &insts[1], cfg));
        assert_eq!(t.stats().entries, 2);
        assert_eq!(t.stats().byte_entries, 2);
    }
}
