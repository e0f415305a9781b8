//! The typed explanation payload: per-component evidence, typed critical
//! chains, and the composed [`Explanation`].

use crate::model::{Component, FrontEndPath, Mode};
use facile_uarch::PortMask;
use facile_x86::{flags, Reg};
use std::fmt;

/// A renamed value carried along a dependence chain — the typed
/// replacement for the stringly `ChainLink::value` of earlier revisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueRef {
    /// A full architectural register.
    Reg(Reg),
    /// One EFLAGS group (see [`facile_x86::flags`]).
    Flag(u8),
    /// A memory location, identified syntactically by its address
    /// expression (full registers) and access-independent displacement.
    Mem {
        /// Base register of the address expression.
        base: Option<Reg>,
        /// Index register of the address expression.
        index: Option<Reg>,
        /// Index scale factor.
        scale: u8,
        /// Constant displacement.
        disp: i32,
    },
}

impl ValueRef {
    /// Write the value's spelling (`rdx`, `CF`, `[r13+rbx*8+0x18]`) to any
    /// text sink. [`Display`] and the JSON writer both go through this.
    /// A displacement is printed as `+0x` and its 32-bit two's-complement
    /// hex digits, so `-8` reads `+0xfffffff8`.
    ///
    /// [`Display`]: fmt::Display
    ///
    /// # Errors
    /// Only those of the sink (a `String` never fails).
    pub fn write_to<W: fmt::Write>(&self, w: &mut W) -> fmt::Result {
        match *self {
            ValueRef::Reg(r) => w.write_str(r.name()),
            ValueRef::Flag(g) => w.write_str(flags::group_name(g)),
            ValueRef::Mem {
                base,
                index,
                scale,
                disp,
            } => {
                w.write_char('[')?;
                if let Some(b) = base {
                    w.write_str(b.name())?;
                }
                if let Some(i) = index {
                    w.write_char('+')?;
                    w.write_str(i.name())?;
                    w.write_char('*')?;
                    crate::render::write_uint(w, u64::from(scale))?;
                }
                if disp != 0 {
                    w.write_str("+0x")?;
                    #[allow(clippy::cast_sign_loss)] // two's complement, as `{:x}` prints it
                    let bits = disp as u32;
                    let digits = 8 - bits.leading_zeros() as usize / 4;
                    for k in (0..digits).rev() {
                        let nib = (bits >> (4 * k)) & 0xf;
                        w.write_char(char::from(b"0123456789abcdef"[nib as usize]))?;
                    }
                }
                w.write_char(']')
            }
        }
    }
}

impl fmt::Display for ValueRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

/// One hop of the critical dependence chain: instruction `inst` produces
/// `value` after `latency` cycles, and the next hop consumes it —
/// in the next iteration when `loop_carried` is set.
///
/// Over a whole chain, `Σ latency / #loop_carried` equals the precedence
/// bound (the maximum cycle ratio of the dependence graph).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChainStep {
    /// Index of the producing instruction in the block.
    pub inst: u32,
    /// The value carried to the next hop.
    pub value: ValueRef,
    /// Latency contribution of this hop in cycles (instruction latency
    /// plus load/store-forwarding extras where the value flows through
    /// memory).
    pub latency: f64,
    /// Whether the consumption of `value` happens in the next iteration
    /// (the chain edge wraps around the loop).
    pub loop_carried: bool,
}

/// Occupancy-weighted µop load bound to one port combination.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PortLoad {
    /// The port combination the µops are restricted to.
    pub ports: PortMask,
    /// Occupancy-weighted µop count per iteration.
    pub uops: f64,
}

/// Evidence for the predecoder bound (§4.3): the frontend path breakdown
/// over the repeating 16-byte-chunk window.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PredecEvidence {
    /// Unrolled copies of the block until the byte layout repeats (1 for
    /// loops).
    pub unroll_copies: u32,
    /// Aligned 16-byte chunks in the repeating window.
    pub chunks: u32,
    /// Instructions with a length-changing prefix per iteration.
    pub lcp_insts: u32,
    /// Instructions whose opcode starts in an earlier chunk than they end
    /// (boundary crossings), summed over the window.
    pub boundary_crossings: u32,
    /// Baseline predecode cycles per iteration (without LCP penalties).
    pub base_cycles: f64,
    /// Un-hidden LCP penalty cycles per iteration.
    pub lcp_penalty_cycles: f64,
}

/// Evidence for the decoder bound (§4.4, Algorithm 1).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DecEvidence {
    /// Decoders on this microarchitecture.
    pub decoders: u8,
    /// Decode groups (cycles) in the steady-state window.
    pub steady_cycles: u32,
    /// Iterations the steady-state window spans.
    pub steady_iterations: u32,
    /// Instructions requiring the complex decoder per iteration.
    pub complex_insts: u32,
}

/// Evidence for the DSB (µop cache) bound (§4.5).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DsbEvidence {
    /// Fused-domain µops delivered per iteration.
    pub fused_uops: u32,
    /// DSB delivery width in µops per cycle.
    pub dsb_width: u8,
    /// Whether the bound was rounded up to whole cycles (blocks shorter
    /// than 32 bytes).
    pub rounded_up: bool,
}

/// Evidence for the LSD bound (§4.6).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LsdEvidence {
    /// Fused-domain µops per iteration.
    pub fused_uops: u32,
    /// The LSD's in-IDQ unroll factor for this loop.
    pub unroll: u32,
    /// Issue width the LSD streams against.
    pub issue_width: u8,
}

/// Evidence for the rename/issue bound (§4.7).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct IssueEvidence {
    /// µops issued per iteration after unlamination.
    pub issue_uops: u32,
    /// Rename/issue width.
    pub issue_width: u8,
}

/// Evidence for the port-contention bound (§4.8): the contended-port load
/// map.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PortsEvidence {
    /// The port set achieving the bound.
    pub critical_ports: PortMask,
    /// Occupancy-weighted µops bound to the critical port set.
    pub load_on_critical: f64,
    /// Full load map: occupancy-weighted µops per distinct port
    /// combination appearing in the block (empty below [`Detail::Full`]).
    ///
    /// [`Detail::Full`]: crate::Detail::Full
    pub port_loads: Vec<PortLoad>,
}

/// Evidence for the precedence bound (§4.9): the critical dependence
/// chain as typed edges.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PrecedenceEvidence {
    /// One representative critical cycle, as typed hops.
    pub critical_chain: Vec<ChainStep>,
}

/// Typed evidence attached to a component bound.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Evidence {
    /// No evidence collected (brief detail, or a component without any).
    #[default]
    None,
    /// Predecoder breakdown.
    Predec(PredecEvidence),
    /// Decoder steady-state breakdown.
    Dec(DecEvidence),
    /// µop-cache delivery breakdown.
    Dsb(DsbEvidence),
    /// Loop-stream-detector breakdown.
    Lsd(LsdEvidence),
    /// Rename/issue breakdown.
    Issue(IssueEvidence),
    /// Contended-port load map.
    Ports(PortsEvidence),
    /// Critical dependence chain.
    Precedence(PrecedenceEvidence),
}

/// One pipeline component's analysis: its throughput bound plus the typed
/// evidence behind it. This is what each core kernel returns.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentAnalysis {
    /// The analyzed component.
    pub component: Component,
    /// Throughput bound in cycles per iteration.
    pub bound: f64,
    /// Why: the typed evidence for the bound.
    pub evidence: Evidence,
}

impl ComponentAnalysis {
    /// A bound with no evidence (brief detail).
    #[must_use]
    pub fn bare(component: Component, bound: f64) -> ComponentAnalysis {
        ComponentAnalysis {
            component,
            bound,
            evidence: Evidence::None,
        }
    }
}

/// Per-instruction attribution with respect to the explanation's
/// bottleneck evidence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstAttribution {
    /// Index of the instruction in the block.
    pub inst: u32,
    /// Occupancy-weighted µops this instruction places on the critical
    /// port set.
    pub critical_port_uops: f64,
    /// Latency this instruction contributes along the critical dependence
    /// chain.
    pub chain_latency: f64,
}

impl InstAttribution {
    /// Whether the instruction contributes to any bottleneck evidence.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.critical_port_uops == 0.0 && self.chain_latency == 0.0
    }
}

/// Tolerance under which a component bound counts as equal to the
/// predicted throughput (and therefore as a bottleneck).
pub const BOTTLENECK_EPS: f64 = 1e-9;

/// A complete, typed explanation of one prediction: the composition of
/// the per-component analyses under the paper's `max` rule, with the
/// bottleneck set resolved under the front-end-first tie break.
#[derive(Debug, Clone, PartialEq)]
pub struct Explanation {
    /// The throughput notion that was predicted.
    pub mode: Mode,
    /// Predicted throughput in cycles per iteration: the maximum of the
    /// component bounds.
    pub throughput: f64,
    /// Which front-end path the prediction assumed.
    pub front_end: FrontEndPath,
    /// The participating component analyses, in [`Component::ALL`]
    /// (tie-break) order.
    pub components: Vec<ComponentAnalysis>,
    /// Components whose bound equals the throughput, in tie-break order
    /// (the first is the dominant bottleneck).
    pub bottlenecks: Vec<Component>,
    /// Per-instruction attributions (empty below full detail).
    pub attributions: Vec<InstAttribution>,
}

impl Explanation {
    /// Compose component analyses into an explanation: sort into
    /// tie-break order, take the max as the throughput, and resolve the
    /// bottleneck (argmax) set.
    #[must_use]
    pub fn compose(
        mode: Mode,
        front_end: FrontEndPath,
        mut components: Vec<ComponentAnalysis>,
        attributions: Vec<InstAttribution>,
    ) -> Explanation {
        components.sort_by_key(|a| a.component.rank());
        let throughput = components.iter().map(|a| a.bound).fold(0.0, f64::max);
        let bottlenecks = components
            .iter()
            .filter(|a| throughput > 0.0 && (a.bound - throughput).abs() < BOTTLENECK_EPS)
            .map(|a| a.component)
            .collect();
        Explanation {
            mode,
            throughput,
            front_end,
            components,
            bottlenecks,
            attributions,
        }
    }

    /// The bound of a specific component, if it participated.
    #[must_use]
    pub fn bound(&self, c: Component) -> Option<f64> {
        self.components
            .iter()
            .find(|a| a.component == c)
            .map(|a| a.bound)
    }

    /// The evidence of a specific component, if it participated.
    #[must_use]
    pub fn evidence(&self, c: Component) -> Option<&Evidence> {
        self.components
            .iter()
            .find(|a| a.component == c)
            .map(|a| &a.evidence)
    }

    /// The dominant bottleneck under the front-end-first tie break.
    #[must_use]
    pub fn primary_bottleneck(&self) -> Option<Component> {
        self.bottlenecks.first().copied()
    }

    /// The port-contention evidence, if collected.
    #[must_use]
    pub fn ports(&self) -> Option<&PortsEvidence> {
        match self.evidence(Component::Ports) {
            Some(Evidence::Ports(p)) => Some(p),
            _ => None,
        }
    }

    /// The critical dependence chain, if collected (empty slice when the
    /// block has no loop-carried dependence).
    #[must_use]
    pub fn critical_chain(&self) -> &[ChainStep] {
        match self.evidence(Component::Precedence) {
            Some(Evidence::Precedence(p)) => &p.critical_chain,
            _ => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use facile_x86::reg::names::*;

    #[test]
    fn compose_orders_and_resolves_bottlenecks() {
        let e = Explanation::compose(
            Mode::Unrolled,
            FrontEndPath::Mite,
            vec![
                ComponentAnalysis::bare(Component::Ports, 2.0),
                ComponentAnalysis::bare(Component::Predec, 2.0),
                ComponentAnalysis::bare(Component::Precedence, 1.0),
            ],
            Vec::new(),
        );
        assert_eq!(e.throughput, 2.0);
        // Sorted into tie-break order; both maxima are bottlenecks with
        // the front end winning the tie.
        assert_eq!(
            e.components.iter().map(|a| a.component).collect::<Vec<_>>(),
            vec![Component::Predec, Component::Ports, Component::Precedence]
        );
        assert_eq!(e.bottlenecks, vec![Component::Predec, Component::Ports]);
        assert_eq!(e.primary_bottleneck(), Some(Component::Predec));
        assert_eq!(e.bound(Component::Precedence), Some(1.0));
        assert_eq!(e.bound(Component::Dsb), None);
    }

    #[test]
    fn zero_bounds_have_no_bottleneck() {
        let e = Explanation::compose(
            Mode::Unrolled,
            FrontEndPath::Mite,
            vec![ComponentAnalysis::bare(Component::Precedence, 0.0)],
            Vec::new(),
        );
        assert_eq!(e.throughput, 0.0);
        assert!(e.bottlenecks.is_empty());
        assert_eq!(e.primary_bottleneck(), None);
    }

    #[test]
    fn value_ref_display() {
        assert_eq!(ValueRef::Reg(RAX).to_string(), "rax");
        assert_eq!(ValueRef::Flag(facile_x86::flags::C).to_string(), "CF");
        let m = ValueRef::Mem {
            base: Some(RSI),
            index: Some(RDI),
            scale: 8,
            disp: -16,
        };
        // `{:+#x}` on i32 renders the two's complement bits — kept for
        // byte-identity with the legacy report renderer.
        assert_eq!(m.to_string(), "[rsi+rdi*8+0xfffffff0]");
    }
}
