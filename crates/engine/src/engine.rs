//! The batch prediction engine.

use crate::cache::{AnnotationCache, CacheStats};
use crate::error::PredictError;
use crate::predictor::{PredictRequest, Prediction, Predictor};
use crate::registry::PredictorRegistry;
use facile_core::Mode;
use facile_explain::Detail;
use facile_isa::{AnnotatedBlock, InternStats};
use facile_uarch::Uarch;
use facile_util::timing::Timing;
use facile_util::PoisonlessMutex;
use facile_x86::{hex, Block};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// A block to predict, in whatever form the caller has it.
#[derive(Debug, Clone)]
pub enum BlockInput {
    /// Hex machine code (BHive format). Decoded by the engine; decode
    /// failures become per-item errors, not panics.
    Hex(String),
    /// Raw machine code bytes.
    Bytes(Vec<u8>),
    /// An already-decoded block.
    Block(Block),
    /// An already-decoded block behind a shared handle. The engine
    /// registers the `Arc` in its level-1 cache instead of cloning the
    /// block's bytes, so one decoded block fanned out over many items
    /// (the multi-uarch matrix, the server's cross-connection batches)
    /// costs one allocation total, not one per item.
    Shared(Arc<Block>),
}

/// [`BlockInput::key`]: a block as its input spells it.
#[derive(PartialEq, Eq, Hash)]
enum InputKey<'a> {
    Bytes(&'a [u8]),
    Hex(&'a str),
}

impl BlockInput {
    /// Decode to a shared block through the engine's two-level cache
    /// (identical bytes decode at most once per engine); an
    /// already-decoded [`BlockInput::Block`] is registered, not cloned,
    /// unless its bytes were never seen.
    fn decode_cached(&self, cache: &AnnotationCache) -> Result<Arc<Block>, PredictError> {
        match self {
            BlockInput::Hex(h) => {
                let h = h.trim();
                let Some(bytes) = hex::decode(h).filter(|b| !b.is_empty()) else {
                    return Err(PredictError::BadHex {
                        input: h.to_string(),
                    });
                };
                cache.decode(&bytes).map_err(|source| PredictError::Decode {
                    input: h.to_string(),
                    source,
                })
            }
            BlockInput::Bytes(b) => cache.decode(b).map_err(|source| PredictError::Decode {
                input: hex::encode(b),
                source,
            }),
            BlockInput::Block(_) | BlockInput::Shared(_) => {
                unreachable!("pre-decoded inputs skip decode_cached")
            }
        }
    }

    /// The input's own spelling of its block: bytes for decoded and byte
    /// inputs, the trimmed string for hex. Equal keys are the same block;
    /// unequal spellings of one block merely compare unequal.
    fn key(&self) -> InputKey<'_> {
        match self {
            BlockInput::Block(b) => InputKey::Bytes(b.bytes()),
            BlockInput::Shared(b) => InputKey::Bytes(b.bytes()),
            BlockInput::Bytes(b) => InputKey::Bytes(b),
            BlockInput::Hex(h) => InputKey::Hex(h.trim()),
        }
    }

    /// The input rendered as hex (as supplied, without decoding).
    #[must_use]
    pub fn hex(&self) -> String {
        match self {
            BlockInput::Hex(h) => h.trim().to_lowercase(),
            BlockInput::Bytes(b) => hex::encode(b),
            BlockInput::Block(b) => b.to_hex(),
            BlockInput::Shared(b) => b.to_hex(),
        }
    }
}

/// One unit of batch work: a block on a microarchitecture, with an
/// optional fixed throughput notion (`None` = auto: loop iff the block
/// ends in a branch).
#[derive(Debug, Clone)]
pub struct BatchItem {
    /// The block.
    pub input: BlockInput,
    /// The microarchitecture to predict on.
    pub uarch: Uarch,
    /// Fixed notion, or `None` for auto-detection.
    pub mode: Option<Mode>,
    /// Explanation detail to request (default [`Detail::Brief`], which
    /// keeps the warm batch path allocation-free).
    pub detail: Detail,
}

impl BatchItem {
    /// An item from hex machine code with auto notion.
    #[must_use]
    pub fn hex(hex: impl Into<String>, uarch: Uarch) -> BatchItem {
        BatchItem {
            input: BlockInput::Hex(hex.into()),
            uarch,
            mode: None,
            detail: Detail::Brief,
        }
    }

    /// An item from a decoded block with auto notion.
    #[must_use]
    pub fn block(block: Block, uarch: Uarch) -> BatchItem {
        BatchItem {
            input: BlockInput::Block(block),
            uarch,
            mode: None,
            detail: Detail::Brief,
        }
    }

    /// An item from a shared decoded block with auto notion. Prefer this
    /// over [`BatchItem::block`] when the same block appears in many
    /// items: the engine shares the `Arc` instead of cloning the bytes.
    #[must_use]
    pub fn shared(block: Arc<Block>, uarch: Uarch) -> BatchItem {
        BatchItem {
            input: BlockInput::Shared(block),
            uarch,
            mode: None,
            detail: Detail::Brief,
        }
    }

    /// Fix the throughput notion.
    #[must_use]
    pub fn with_mode(mut self, mode: Mode) -> BatchItem {
        self.mode = Some(mode);
        self
    }

    /// Request an explanation detail level for this item's rows.
    #[must_use]
    pub fn with_detail(mut self, detail: Detail) -> BatchItem {
        self.detail = detail;
        self
    }
}

/// One row of batch output: the outcome of one `(item, predictor)` pair.
///
/// The string fields are `Arc<str>` so that fanning one item out over
/// many predictors (and one predictor over many rows) shares the
/// underlying allocations instead of cloning them per row.
#[derive(Debug, Clone)]
pub struct ItemResult {
    /// Index of the originating [`BatchItem`].
    pub item: usize,
    /// The block as hex (canonical if it decoded, as-supplied otherwise).
    pub block_hex: Arc<str>,
    /// The microarchitecture.
    pub uarch: Uarch,
    /// The resolved notion (`None` only when decoding failed before the
    /// notion could be determined).
    pub mode: Option<Mode>,
    /// Registry key of the predictor that produced this row.
    pub predictor: Arc<str>,
    /// The prediction, or the structured reason there is none.
    pub prediction: Result<Prediction, PredictError>,
}

/// Batch-planner counters: how much duplicate work the dedup stage
/// removed before it reached the predictors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlannerStats {
    /// Batch items planned (every item of every `run_batch` call).
    pub items: u64,
    /// Items that were duplicates of another item in the same batch
    /// (same bytes, uarch, notion, and detail) and were served by
    /// fanning out an already-computed prediction.
    pub deduped: u64,
}

/// Aggregate counters of the engine's memoization layers: the batch
/// planner's dedup stage, the per-engine two-level block cache (decoded
/// blocks + per-uarch annotations), the process-wide
/// `(instruction bytes, uarch)` descriptor intern table, and — when
/// [`Engine::set_kernel_timing`] is on — per-kernel wall-clock timing.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EngineStats {
    /// Batch-planner dedup counters.
    pub planner: PlannerStats,
    /// Block-level two-level cache counters (decode + annotate levels).
    pub annotation: CacheStats,
    /// Instruction-level descriptor intern table counters.
    pub intern: InternStats,
    /// Generated-table coverage: annotations served from the compile-time
    /// static descriptor tables vs. the runtime-classifier fallback.
    pub static_tables: facile_isa::StaticTableStats,
    /// Per-kernel timing (all zero unless kernel timing is enabled),
    /// indexed by `Component as usize`.
    pub kernels: [Timing; facile_core::Component::ALL.len()],
}

impl EngineStats {
    /// Per-kernel timings paired with their components, skipping kernels
    /// that never ran (all of them, unless kernel timing is enabled).
    pub fn kernel_rows(&self) -> impl Iterator<Item = (facile_core::Component, Timing)> + '_ {
        facile_core::Component::ALL
            .into_iter()
            .map(|c| (c, self.kernels[c as usize]))
            .filter(|(_, t)| t.count > 0)
    }

    /// Fold a later snapshot into an accumulator that survives cache
    /// clears (the CLI's chunked batch mode and the server's bounded
    /// cache both drop annotations periodically; hit/miss counters must
    /// keep accumulating across those drops).
    ///
    /// Lifetime counters (planner, intern table, kernel timing) are
    /// engine- or process-lifetime totals and are *replaced* by the
    /// later snapshot; per-cache-generation counters (annotation
    /// hits/misses) are *summed*; resident-entry counts become
    /// high-water marks.
    pub fn absorb(&mut self, later: &EngineStats) {
        self.planner = later.planner;
        self.annotation.hits += later.annotation.hits;
        self.annotation.misses += later.annotation.misses;
        self.annotation.decode_hits += later.annotation.decode_hits;
        self.annotation.decode_misses += later.annotation.decode_misses;
        self.annotation.entries = self.annotation.entries.max(later.annotation.entries);
        self.annotation.blocks = self.annotation.blocks.max(later.annotation.blocks);
        self.annotation.bytes = self.annotation.bytes.max(later.annotation.bytes);
        self.annotation.evictions += later.annotation.evictions;
        self.intern = later.intern;
        self.static_tables = later.static_tables;
        self.kernels = later.kernels;
    }

    /// The canonical JSON object for these counters. The CLI's `--stats`
    /// trailer and the server's `stats` reply both print exactly this
    /// object, so the two spellings cannot drift.
    #[must_use]
    pub fn to_json(&self) -> String {
        let kernels: Vec<String> = self
            .kernel_rows()
            .map(|(c, k)| k.json_row("kernel", c.name()))
            .collect();
        let kernels = kernels.join(",");
        format!(
            "{{\"planner\":{{\"items\":{},\"deduped\":{}}},\
             \"block_cache\":{{\"decode_hits\":{},\"decode_misses\":{},\"annotate_hits\":{},\
             \"annotate_misses\":{},\"blocks\":{},\"annotations\":{},\"bytes\":{},\
             \"evictions\":{}}},\
             \"intern_table\":{{\"hits\":{},\"misses\":{},\"core_hits\":{},\"core_misses\":{},\
             \"byte_entries\":{},\"entries\":{},\"bytes\":{},\"evictions\":{}}},\
             \"static_tables\":{{\"hits\":{},\"fallbacks\":{},\"coverage\":{:.4}}},\
             \"kernels\":[{kernels}]}}",
            self.planner.items,
            self.planner.deduped,
            self.annotation.decode_hits,
            self.annotation.decode_misses,
            self.annotation.hits,
            self.annotation.misses,
            self.annotation.blocks,
            self.annotation.entries,
            self.annotation.bytes,
            self.annotation.evictions,
            self.intern.hits,
            self.intern.misses,
            self.intern.core_hits,
            self.intern.core_misses,
            self.intern.byte_entries,
            self.intern.entries,
            self.intern.bytes,
            self.intern.evictions,
            self.static_tables.hits,
            self.static_tables.fallbacks,
            self.static_tables.coverage(),
        )
    }
}

/// How a process-wide cache byte budget is split among the memoization
/// layers.
///
/// The split reflects per-entry weight: the annotation cache dominates
/// (whole decoded blocks plus per-uarch annotations, 55%), the intern
/// table is bounded by distinct instruction encodings (30%), and the
/// remaining 15% is reserved for auxiliary caches (the external-predictor
/// result cache, when one is configured). The three shares sum to the
/// total, and each cache enforces its own share at every insert, so the
/// shares alone bound the accounted bytes: nothing re-checks their sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheBudget {
    /// Total budget across all member caches, in bytes.
    pub total: usize,
}

impl CacheBudget {
    /// A budget of `total` bytes.
    #[must_use]
    pub fn from_total_bytes(total: usize) -> CacheBudget {
        CacheBudget { total }
    }

    /// A budget of `mb` mebibytes.
    #[must_use]
    pub fn from_total_mb(mb: usize) -> CacheBudget {
        CacheBudget { total: mb << 20 }
    }

    /// Byte cap for the engine's two-level annotation cache.
    #[must_use]
    pub fn annotation_capacity(&self) -> usize {
        self.total / 100 * 55 + self.total % 100
    }

    /// Byte cap for the process-wide descriptor intern table.
    #[must_use]
    pub fn intern_capacity(&self) -> usize {
        self.total / 100 * 30
    }

    /// Byte cap reserved for auxiliary caches (external result cache).
    #[must_use]
    pub fn external_capacity(&self) -> usize {
        self.total / 100 * 15
    }
}

/// One prepared work unit: canonical hex, resolved notion, and the
/// shared annotation (or the structured reason there is none).
struct Prepared {
    hex: Arc<str>,
    mode: Option<Mode>,
    annotated: Result<Arc<AnnotatedBlock>, PredictError>,
}

/// The prediction engine: a predictor registry, a worker pool, and a
/// shared annotation cache.
///
/// `predict_batch` fans a batch out over `items × predictors` on `threads`
/// worker threads. Output is deterministic and ordered — row `k` is item
/// `k / P`, predictor `k % P` (registration order) — regardless of the
/// number of threads.
pub struct Engine {
    registry: PredictorRegistry,
    threads: usize,
    cache: AnnotationCache,
    dedup: bool,
    planned_items: AtomicU64,
    deduped_items: AtomicU64,
}

impl Engine {
    /// An engine over the given registry, with one worker per available
    /// CPU (`std::thread::available_parallelism`).
    #[must_use]
    pub fn new(registry: PredictorRegistry) -> Engine {
        Engine {
            registry,
            threads: host_threads(),
            cache: AnnotationCache::new(),
            dedup: true,
            planned_items: AtomicU64::new(0),
            deduped_items: AtomicU64::new(0),
        }
    }

    /// An engine with every built-in predictor registered.
    #[must_use]
    pub fn with_builtins() -> Engine {
        Engine::new(PredictorRegistry::with_builtins())
    }

    /// Set the worker count (`0` or `1` = run on the calling thread).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Engine {
        self.threads = threads.max(1);
        self
    }

    /// Enable or disable the batch planner's dedup stage (on by
    /// default). Rows are bit-identical either way — duplicate items are
    /// served by fanning one computed prediction out — so this switch
    /// exists for the equivalence tests and for perf comparisons.
    #[must_use]
    pub fn with_dedup(mut self, dedup: bool) -> Engine {
        self.dedup = dedup;
        self
    }

    /// The registry.
    #[must_use]
    pub fn registry(&self) -> &PredictorRegistry {
        &self.registry
    }

    /// Mutable access to the registry (to register custom predictors).
    pub fn registry_mut(&mut self) -> &mut PredictorRegistry {
        &mut self.registry
    }

    /// One consistent snapshot of every engine counter: batch-planner
    /// dedup, the two-level annotation cache, the process-wide
    /// descriptor intern table, and (when enabled) per-kernel timing.
    ///
    /// This is the *only* way counters leave the engine — the CLI's
    /// `--stats` output and the server's `stats` reply both render this
    /// snapshot (via [`EngineStats::to_json`]), so the two views can
    /// never drift apart.
    pub fn snapshot(&self) -> EngineStats {
        EngineStats {
            planner: PlannerStats {
                items: self.planned_items.load(Ordering::Relaxed),
                deduped: self.deduped_items.load(Ordering::Relaxed),
            },
            annotation: self.cache.stats(),
            intern: facile_isa::intern_stats(),
            static_tables: facile_isa::static_table_stats(),
            kernels: facile_core::timing::snapshot(),
        }
    }

    /// Turn per-kernel and annotation-pass wall-clock accounting on or
    /// off (process-wide; see `facile_util::timing`). Off by default:
    /// timing adds two clock reads per kernel invocation, which the
    /// batch hot path doesn't pay unless asked to.
    pub fn set_kernel_timing(enabled: bool) {
        facile_util::timing::set_enabled(enabled);
    }

    /// Drop all cached annotations. (The process-wide intern table is
    /// left untouched: it is shared with other engines and is bounded by
    /// the number of distinct instruction encodings, not blocks.)
    pub fn clear_cache(&self) {
        self.cache.clear();
    }

    /// The engine's two-level annotation cache (for inspecting its
    /// counters or resizing it).
    #[must_use]
    pub fn cache(&self) -> &AnnotationCache {
        &self.cache
    }

    /// Bound the engine's caches by `budget`: caps the annotation cache
    /// and the process-wide intern table at their shares. (An external
    /// predictor's result cache takes the external share; its owner caps
    /// it with [`crate::ExternalPredictor::set_cache_capacity`].)
    pub fn apply_cache_budget(&self, budget: &CacheBudget) {
        self.cache.set_capacity(budget.annotation_capacity());
        facile_isa::set_intern_capacity(budget.intern_capacity());
    }

    /// The worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Annotate through the engine's cache.
    pub fn annotate(&self, block: &Block, uarch: Uarch) -> Arc<AnnotatedBlock> {
        self.cache.annotate(block, uarch)
    }

    /// Predict one block with one predictor (by key), at
    /// [`Detail::Brief`]: the returned prediction carries the throughput
    /// and bottleneck but no `explanation` payload. To get a typed
    /// explanation, build a [`BatchItem`] with
    /// [`BatchItem::with_detail`] and run it through
    /// [`Engine::predict_batch`] (or call `facile_core::Facile::explain`
    /// directly on [`Engine::annotate`]'s output).
    ///
    /// This routes through the same prepare/dispatch pipeline as
    /// [`Engine::predict_batch`], so single-block calls hit (and warm)
    /// the same annotation cache and intern table as batch runs.
    ///
    /// # Errors
    /// Unknown key, undecodable/empty block, or a predictor failure.
    pub fn predict_one(
        &self,
        block: &Block,
        uarch: Uarch,
        mode: Mode,
        key: &str,
    ) -> Result<Prediction, PredictError> {
        let p = self
            .registry
            .get(key)
            .ok_or_else(|| PredictError::UnknownPredictor {
                pattern: key.to_string(),
                available: self.registry.keys().map(str::to_string).collect(),
            })?;
        let item = BatchItem::block(block.clone(), uarch).with_mode(mode);
        let mut rows = self.run_batch(std::slice::from_ref(&item), std::slice::from_ref(&p));
        rows.pop()
            .expect("one item × one predictor = one row")
            .prediction
    }

    /// Run a batch: every item against every predictor the `selector`
    /// resolves to (comma-separated keys / glob patterns).
    ///
    /// Per-item failures (bad hex, unsupported opcodes, untrained models)
    /// are reported in the corresponding rows; only an unresolvable
    /// selector fails the whole call.
    ///
    /// # Errors
    /// [`PredictError::UnknownPredictor`] if the selector matches nothing.
    pub fn predict_batch(
        &self,
        items: &[BatchItem],
        selector: &str,
    ) -> Result<Vec<ItemResult>, PredictError> {
        let predictors = self.registry.resolve(selector)?;
        Ok(self.run_batch(items, &predictors))
    }

    /// Run a batch against explicitly resolved predictors.
    ///
    /// The batch is *planned* first: items that are exact duplicates —
    /// same block bytes (or raw input string), microarchitecture, notion,
    /// and detail — collapse to one unit of work, predicted once and
    /// fanned back out to every requesting row. Rows keep their exact
    /// positions and are bit-identical with the dedup stage on or off
    /// (predictions are pure functions of the unit).
    pub fn run_batch(
        &self,
        items: &[BatchItem],
        predictors: &[Arc<dyn Predictor>],
    ) -> Vec<ItemResult> {
        // Stage 0: plan. `item_unit[i]` is the work unit of item `i`;
        // `units[u]` is the representative item index.
        let (units, item_unit, unit_refs) = self.plan(items);

        // Stage 1: decode + annotate each unit once (parallel over
        // units). Already-decoded inputs are borrowed straight from the
        // batch; hex/byte inputs decode through the level-1 cache.
        // On large jobs a block's units (its uarchs, in plan order) are
        // dealt to one worker in a row, in both stages: stage 1 then
        // builds the block's dataflow once, and stage 2 reuses its
        // memoized bounds.
        let same_block = |u: usize| items[units[u]].input.key() == items[units[u - 1]].input.key();
        let prepared = parallel_map_grouped(units.len(), self.threads, same_block, |u| {
            let item = &items[units[u]];
            // Contain panics per item: a kernel or decoder blowing up on
            // one weird block must cost exactly one error row, never the
            // batch (or, in the server, the process).
            catch_unwind(AssertUnwindSafe(|| match &item.input {
                BlockInput::Block(b) => self.prepare(b, item),
                BlockInput::Shared(b) => self.prepare_shared(b, item),
                other => match other.decode_cached(&self.cache) {
                    Ok(block) => self.prepare_shared(&block, item),
                    Err(e) => Prepared {
                        hex: item.input.hex().into(),
                        mode: item.mode,
                        annotated: Err(e),
                    },
                },
            }))
            .unwrap_or_else(|payload| Prepared {
                hex: item.input.hex().into(),
                mode: item.mode,
                annotated: Err(PredictError::Panicked {
                    payload: panic_payload(&*payload),
                }),
            })
        });

        // Stage 2: fan out over units × predictors.
        let keys: Vec<Arc<str>> = predictors.iter().map(|p| Arc::from(p.key())).collect();
        let np = predictors.len();
        let joins = |k: usize| !k.is_multiple_of(np) || same_block(k / np);
        let unit_predictions = parallel_map_grouped(units.len() * np, self.threads, joins, |k| {
            let (u, j) = (k / np, k % np);
            let prep = &prepared[u];
            match &prep.annotated {
                Ok(ab) => {
                    let mode = prep.mode.expect("annotated items have a resolved mode");
                    let detail = items[units[u]].detail;
                    // Same per-item containment as stage 1: a panicking
                    // predictor yields one `internal-panic` row.
                    catch_unwind(AssertUnwindSafe(|| {
                        let bytes = ab.block().bytes();
                        if let Some(delay) = facile_faults::slow_predict_delay(bytes) {
                            std::thread::sleep(delay);
                        }
                        if facile_faults::decide(facile_faults::Point::PredictError, bytes) {
                            return Err(PredictError::Injected {
                                point: facile_faults::Point::PredictError.name().to_string(),
                            });
                        }
                        facile_faults::maybe_panic(facile_faults::Point::PredictPanic, bytes);
                        predictors[j].predict(&PredictRequest::new(ab, mode).with_detail(detail))
                    }))
                    .unwrap_or_else(|payload| {
                        Err(PredictError::Panicked {
                            payload: panic_payload(&*payload),
                        })
                    })
                }
                Err(e) => Err(e.clone()),
            }
        });

        // Stage 3: fan the unit results back out to the requesting rows,
        // in exact (item, predictor) order. A unit referenced once (the
        // overwhelmingly common case) moves its prediction into the row;
        // shared units clone.
        let mut unit_predictions: Vec<Option<Result<Prediction, PredictError>>> =
            unit_predictions.into_iter().map(Some).collect();
        (0..items.len() * np)
            .map(|k| {
                let (i, j) = (k / np, k % np);
                let u = item_unit[i] as usize;
                let slot = &mut unit_predictions[u * np + j];
                let prediction = if unit_refs[u] == 1 {
                    slot.take().expect("sole consumer of this unit row")
                } else {
                    slot.as_ref().expect("kept for shared consumers").clone()
                };
                let prep = &prepared[u];
                ItemResult {
                    item: i,
                    block_hex: Arc::clone(&prep.hex),
                    uarch: items[i].uarch,
                    mode: prep.mode,
                    predictor: Arc::clone(&keys[j]),
                    prediction,
                }
            })
            .collect()
    }

    /// The planner: collapse duplicate items to work units. Returns
    /// `(units, item_unit, unit_refs)` — representative item index per
    /// unit, unit index per item, and per-unit reference counts.
    fn plan(&self, items: &[BatchItem]) -> (Vec<usize>, Vec<u32>, Vec<u32>) {
        self.planned_items
            .fetch_add(items.len() as u64, Ordering::Relaxed);
        let mut units: Vec<usize> = Vec::with_capacity(items.len());
        let mut item_unit: Vec<u32> = Vec::with_capacity(items.len());
        let mut unit_refs: Vec<u32> = Vec::with_capacity(items.len());
        if !self.dedup {
            units.extend(0..items.len());
            item_unit.extend(0..items.len() as u32);
            unit_refs.extend(std::iter::repeat_n(1, items.len()));
            return (units, item_unit, unit_refs);
        }
        // Key on the *input* representation (bytes for decoded/byte
        // inputs, the trimmed string for hex): equal inputs are equal
        // work by construction, and unequal spellings of the same block
        // merely miss a dedup opportunity (the block cache still shares
        // the decode). The keys are the caller's bytes, so the map keeps
        // the standard, randomly keyed hasher: FxHash collisions can be
        // solved for, and 32,768 colliding items would plan in quadratic
        // time (`tests/planner_linear_time.rs`).
        let mut seen: HashMap<(InputKey<'_>, Uarch, i8, u8), u32> =
            HashMap::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            let mode_tag = item.mode.map_or(-1i8, |m| m as i8);
            let key = (item.input.key(), item.uarch, mode_tag, item.detail as u8);
            let u = *seen.entry(key).or_insert_with(|| {
                units.push(i);
                unit_refs.push(0);
                (units.len() - 1) as u32
            });
            unit_refs[u as usize] += 1;
            item_unit.push(u);
        }
        self.deduped_items
            .fetch_add((items.len() - units.len()) as u64, Ordering::Relaxed);
        (units, item_unit, unit_refs)
    }

    /// Resolve one prepared unit: empty-block check, notion resolution,
    /// canonical hex, annotation through the two-level cache.
    fn prepare(&self, block: &Block, item: &BatchItem) -> Prepared {
        match self.resolve(block, item) {
            Err(empty) => empty,
            Ok(mode) => {
                let (annotated, hex) = self.cache.annotate_with_hex(block, item.uarch);
                Prepared {
                    hex,
                    mode: Some(mode),
                    annotated: Ok(annotated),
                }
            }
        }
    }

    /// [`Engine::prepare`] for a block already shared through the
    /// level-1 cache: annotation registers the `Arc` instead of cloning.
    fn prepare_shared(&self, block: &Arc<Block>, item: &BatchItem) -> Prepared {
        match self.resolve(block, item) {
            Err(empty) => empty,
            Ok(mode) => {
                let (annotated, hex) = self.cache.annotate_shared(block, item.uarch);
                Prepared {
                    hex,
                    mode: Some(mode),
                    annotated: Ok(annotated),
                }
            }
        }
    }

    /// Shared front half of the prepare paths: empty-block check and
    /// notion resolution (the canonical hex comes from the cache's
    /// level-1 entry, rendered once per distinct bytes).
    fn resolve(&self, block: &Block, item: &BatchItem) -> Result<Mode, Prepared> {
        if block.is_empty() {
            return Err(Prepared {
                hex: item.input.hex().into(),
                mode: item.mode,
                annotated: Err(PredictError::EmptyBlock),
            });
        }
        Ok(item.mode.unwrap_or(if block.ends_in_branch() {
            Mode::Loop
        } else {
            Mode::Unrolled
        }))
    }

    /// Cross-product convenience: `blocks × uarchs` as batch items. Each
    /// block is cloned once into a shared handle and every uarch item
    /// shares it, so an `N × U` matrix costs `N` block clones, not `N·U`.
    #[must_use]
    pub fn matrix_items(blocks: &[Block], uarchs: &[Uarch]) -> Vec<BatchItem> {
        blocks
            .iter()
            .flat_map(|b| {
                let shared = Arc::new(b.clone());
                uarchs
                    .iter()
                    .map(move |&u| BatchItem::shared(Arc::clone(&shared), u))
            })
            .collect()
    }
}

/// Render a caught panic payload for [`PredictError::Panicked`] (also
/// used by the server's batch-level containment). `panic!` with a
/// literal carries `&str`, with a format string carries `String`;
/// anything else is opaque.
pub fn panic_payload(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(ToString::to_string))
        .unwrap_or_else(|| "opaque panic payload".to_string())
}

/// The host's available parallelism (used to size worker pools).
#[must_use]
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Upper bound on the contiguous chunk of indices handed to a worker at
/// once: big enough to amortize the per-chunk bookkeeping on large
/// batches, while small jobs shrink the chunk (down to one index) so a
/// handful of expensive items still spreads across the pool.
const PAR_CHUNK: usize = 32;

/// Jobs smaller than this run inline: thread spawning costs more than
/// the work distribution can win back.
const PAR_MIN: usize = 8;

/// Order-preserving parallel map over `0..n` with a bounded pool of
/// scoped worker threads. This is the engine's worker pool; it is
/// exported so harness code can share the implementation instead of
/// duplicating it.
///
/// Work is dealt as contiguous chunks claimed off an atomic counter, and
/// each worker writes its chunk through a disjoint `&mut` slice of the
/// output — one lock acquisition per chunk instead of the former
/// per-element `Vec<Mutex<Option<U>>>` slots. Batches that are too small
/// to amortize thread spawning (or `threads <= 1`) run inline on the
/// calling thread; either way the output is identical, element `i` being
/// exactly `f(i)`.
pub fn parallel_map_indexed<U: Send>(
    n: usize,
    threads: usize,
    f: impl Fn(usize) -> U + Sync,
) -> Vec<U> {
    parallel_map_grouped(n, threads, |_| false, f)
}

/// [`parallel_map_indexed`] that, on jobs large enough to fill every
/// worker's chunks at full size, never deals index `k` (`k >= 1`) to a
/// different chunk than `k - 1` where `joins(k)` holds, so a run of
/// joined indices is mapped by one worker, in order. Chunks grow past
/// their target size to the end of such a run. Smaller jobs ignore
/// `joins`: their chunks shrink to spread few items over the pool, and
/// a grown chunk would leave workers idle.
fn parallel_map_grouped<U: Send>(
    n: usize,
    threads: usize,
    joins: impl Fn(usize) -> bool,
    f: impl Fn(usize) -> U + Sync,
) -> Vec<U> {
    // Chunk size adapts to the job: aim for ~4 chunks per worker (for
    // load balancing on uneven items) but never exceed PAR_CHUNK.
    let target = n.div_ceil(threads.max(1) * 4);
    let (chunk, group) = (target.clamp(1, PAR_CHUNK), target >= PAR_CHUNK);
    let threads = threads.min(n.div_ceil(chunk));
    if threads <= 1 || n < PAR_MIN {
        return (0..n).map(f).collect();
    }
    // A chunk of the output: the base index plus the disjoint window of
    // slots the owning worker fills.
    type Chunk<'a, U> = PoisonlessMutex<(usize, &'a mut [Option<U>])>;
    let mut out: Vec<Option<U>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    {
        // Disjoint output windows, one per chunk. The Mutex is claimed
        // exactly once, by the worker that pops the chunk's index.
        let mut chunks: Vec<Chunk<'_, U>> = Vec::with_capacity(n.div_ceil(chunk));
        let (mut base, mut rest) = (0, out.as_mut_slice());
        while !rest.is_empty() {
            let mut len = chunk.min(rest.len());
            while group && len < rest.len() && joins(base + len) {
                len += 1;
            }
            let (window, tail) = rest.split_at_mut(len);
            chunks.push(PoisonlessMutex::new((base, window)));
            (base, rest) = (base + len, tail);
        }
        let next = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| loop {
                    let ci = next.fetch_add(1, Ordering::Relaxed);
                    let Some(chunk) = chunks.get(ci) else { break };
                    let mut guard = chunk.lock();
                    let (base, slice) = &mut *guard;
                    for (off, slot) in slice.iter_mut().enumerate() {
                        *slot = Some(f(*base + off));
                    }
                });
            }
        });
    }
    out.into_iter().map(|s| s.expect("chunk filled")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn joined_runs_stay_on_one_worker_in_order() {
        // Runs of nine, like a nine-uarch sweep: the default chunk (32) is
        // not a multiple of the run length.
        let out =
            parallel_map_grouped(900, 4, |k| k % 9 != 0, |k| (k, std::thread::current().id()));
        assert!(out.iter().enumerate().all(|(i, &(k, _))| i == k));
        for k in (1..900).filter(|k| k % 9 != 0) {
            assert_eq!(out[k].1, out[k - 1].1, "index {k} left its run's worker");
        }
    }

    #[test]
    fn small_jobs_ignore_joins_and_use_the_pool() {
        // A one-block sweep: nine joined items on eight threads. Items 0
        // and 1 each wait for the other to start, which only two workers
        // can do; one grown chunk would time them out.
        let started = AtomicUsize::new(0);
        let out = parallel_map_grouped(
            9,
            8,
            |_| true,
            |k| {
                if k < 2 {
                    started.fetch_add(1, Ordering::SeqCst);
                    let t0 = std::time::Instant::now();
                    while started.load(Ordering::SeqCst) < 2 && t0.elapsed().as_secs() < 10 {
                        std::thread::yield_now();
                    }
                }
                started.load(Ordering::SeqCst) >= 2
            },
        );
        assert!(out[0] && out[1], "items 0 and 1 ran on one worker");
    }
}
