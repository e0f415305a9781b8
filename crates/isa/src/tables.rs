//! Static descriptor tables generated at build time.
//!
//! `build.rs` enumerates every decoder-reachable instruction form,
//! classifies a representative of each `(mnemonic, shape key)` on all
//! nine microarchitectures with the runtime classifier, and emits the
//! result as `static` data. [`lookup_uncounted`] turns annotation's cold path
//! from "run the classifier, box a descriptor" into "index a table": a
//! binary search over a handful of shape keys, returning a
//! `&'static InstrDesc` that needs no allocation.
//!
//! Forms outside the tables (or outside the keyable space entirely) run
//! the runtime classifier where they are annotated, once per
//! annotation; [`static_table_stats`] counts both outcomes so benchmarks
//! can report table coverage.

use crate::desc::InstrDesc;
use facile_uarch::Uarch;
use facile_util::Counters;
use facile_x86::Mnemonic;

#[allow(clippy::all)]
mod generated {
    use crate::desc::{InstrDesc, Uop, UopKind, MAX_UOPS};
    use facile_uarch::PortMask;
    use facile_util::SmallVec;
    use facile_x86::Mnemonic;
    use UopKind as K;

    /// A µop literal (generated-code shorthand).
    const fn u(ports: u16, kind: UopKind, occupancy: u8) -> Uop {
        Uop {
            ports: PortMask(ports),
            kind,
            occupancy,
        }
    }

    /// Padding for the unused tail of inline µop buffers.
    const Z: Uop = u(0, K::Compute, 0);

    /// A descriptor literal: `n` live µops out of the padded array.
    const fn d(
        fused_uops: u8,
        issue_uops: u8,
        uops: [Uop; MAX_UOPS],
        n: usize,
        complex_decoder: bool,
        simple_decoders_after: u8,
        eliminated: bool,
        latency: u8,
        load_latency_extra: u8,
    ) -> InstrDesc {
        InstrDesc {
            fused_uops,
            issue_uops,
            uops: SmallVec::Inline(uops, n),
            complex_decoder,
            simple_decoders_after,
            eliminated,
            latency,
            load_latency_extra,
        }
    }

    include!(concat!(env!("OUT_DIR"), "/facile_tables.rs"));
}

/// Content hash of the generated tables (FNV-1a over the generated
/// source). Changes whenever the classifier, the form enumeration, or
/// the key packing changes; `crates/isa/tables.lock` pins it so such a
/// change is a deliberate update.
pub const TABLE_HASH: u64 = generated::TABLE_HASH;

/// Total number of `(mnemonic group, shape key)` rows in the tables.
pub const N_FORM_KEYS: usize = generated::N_FORM_KEYS;

/// Table hits and classifier fallbacks, in per-thread cells.
static LOOKUPS: Counters<2> = Counters::new();
const HITS: usize = 0;
const FALLBACKS: usize = 1;

/// Add one annotation's table lookups to the coverage counters: the
/// annotator counts them locally and reports once per block into its
/// thread's cells, so no counter is written once per instruction or
/// shared between workers.
pub fn record_lookups(hits: u64, fallbacks: u64) {
    if hits > 0 {
        LOOKUPS.add(HITS, hits);
    }
    if fallbacks > 0 {
        LOOKUPS.add(FALLBACKS, fallbacks);
    }
}

/// Descriptor of `(mnemonic, shape key)` on `uarch`, if the generated
/// tables cover it. Leaves the coverage counters alone (see
/// [`record_lookups`]).
#[must_use]
pub fn lookup_uncounted(
    mnemonic: Mnemonic,
    shape: u32,
    uarch: Uarch,
) -> Option<&'static InstrDesc> {
    let forms = generated::forms_of(mnemonic)?;
    let i = forms.binary_search_by_key(&shape, |e| e.0).ok()?;
    Some(&generated::DESCS[usize::from(forms[i].1[uarch.index()])])
}

/// Fast-path coverage counters of the static descriptor tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StaticTableStats {
    /// Annotations served directly from the static tables.
    pub hits: u64,
    /// Annotations that fell back to the runtime classifier.
    pub fallbacks: u64,
}

impl StaticTableStats {
    /// Fraction of annotations served from the tables (0 when idle).
    #[must_use]
    pub fn coverage(&self) -> f64 {
        let total = self.hits + self.fallbacks;
        if total == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.hits as f64 / total as f64
            }
        }
    }
}

/// Current process-wide table coverage counters.
#[must_use]
pub fn static_table_stats() -> StaticTableStats {
    StaticTableStats {
        hits: LOOKUPS.get(HITS),
        fallbacks: LOOKUPS.get(FALLBACKS),
    }
}

/// Reset the coverage counters (benchmark harnesses).
pub fn reset_static_table_stats() {
    LOOKUPS.reset();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::describe;
    use crate::form::shape_key;
    use facile_x86::reg::names::*;
    use facile_x86::Inst;

    fn inst(mnemonic: Mnemonic, operands: Vec<facile_x86::Operand>) -> Inst {
        Inst {
            mnemonic,
            operands,
            len: 3,
            opcode_offset: 0,
            has_lcp: false,
        }
    }

    #[test]
    fn tables_nonempty_and_hash_stable() {
        let n = N_FORM_KEYS;
        assert!(n > 500, "suspiciously small table: {n}");
        assert_ne!(TABLE_HASH, 0);
    }

    #[test]
    fn common_form_hits_and_matches_classifier() {
        let i = inst(Mnemonic::Add, vec![RAX.into(), RCX.into()]);
        let e = i.effects();
        for u in Uarch::ALL {
            let hit = lookup_uncounted(i.mnemonic, shape_key(&i, &e), u)
                .expect("add r64, r64 must be covered");
            assert_eq!(*hit, describe(&i, u.config()));
        }
    }

    #[test]
    fn counters_track_hits_and_fallbacks() {
        // An annotation reports its block's lookups: `add rax, rcx` is
        // served by the tables; an absolute-displacement load is not and
        // falls back to the classifier. Other tests annotate concurrently,
        // so only growth is asserted.
        let absolute = facile_x86::Mem {
            base: None,
            index: None,
            scale: 1,
            disp: 64,
            width: facile_x86::Width::W64,
        };
        let b = facile_x86::Block::assemble(&[
            (Mnemonic::Add, vec![RAX.into(), RCX.into()]),
            (Mnemonic::Mov, vec![RAX.into(), absolute.into()]),
        ])
        .expect("block assembles");
        let before = static_table_stats();
        let _ = crate::AnnotatedBlock::new(b, Uarch::Skl);
        let s = static_table_stats();
        assert!(s.hits > before.hits);
        assert!(s.fallbacks > before.fallbacks);
        assert!(s.coverage() > 0.0 && s.coverage() < 1.0);
    }
}
