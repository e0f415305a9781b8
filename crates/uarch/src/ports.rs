//! Execution-port sets represented as bit masks.

use std::fmt;

/// A set of execution ports, as a bit mask (bit *i* = port *i*).
///
/// Port masks are the currency of the back-end models: every µop carries the
/// mask of ports it may be dispatched to, and the port-contention predictor
/// reasons about unions and subsets of these masks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PortMask(pub u16);

impl PortMask {
    /// The empty port set.
    pub const EMPTY: PortMask = PortMask(0);

    /// Build a mask from a list of port numbers.
    ///
    /// # Panics
    /// Panics if a port number is 16 or larger.
    #[must_use]
    pub fn of(ports: &[u8]) -> PortMask {
        let mut m = 0u16;
        for &p in ports {
            assert!(p < 16, "port number out of range: {p}");
            m |= 1 << p;
        }
        PortMask(m)
    }

    /// Number of ports in the set.
    #[must_use]
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Whether `self` is a subset of `other`.
    #[must_use]
    pub fn is_subset_of(self, other: PortMask) -> bool {
        self.0 & !other.0 == 0
    }

    /// Whether port `p` is in the set.
    #[must_use]
    pub fn contains(self, p: u8) -> bool {
        p < 16 && self.0 & (1 << p) != 0
    }

    /// Union of two port sets.
    #[must_use]
    pub fn union(self, other: PortMask) -> PortMask {
        PortMask(self.0 | other.0)
    }

    /// Intersection of two port sets.
    #[must_use]
    pub fn intersect(self, other: PortMask) -> PortMask {
        PortMask(self.0 & other.0)
    }

    /// Iterate over the port numbers in the set, ascending.
    pub fn iter(self) -> impl Iterator<Item = u8> {
        (0u8..16).filter(move |p| self.contains(*p))
    }
}

impl std::ops::BitOr for PortMask {
    type Output = PortMask;

    fn bitor(self, rhs: PortMask) -> PortMask {
        self.union(rhs)
    }
}

impl PortMask {
    /// Write the mask's spelling — `p` and the port numbers ascending
    /// (`p0156`), or `p-` when empty — to any text sink. [`Display`]
    /// and the JSON row writers both go through this.
    ///
    /// [`Display`]: fmt::Display
    ///
    /// # Errors
    /// Only those of the sink (a `String` never fails).
    pub fn write_to<W: fmt::Write>(self, w: &mut W) -> fmt::Result {
        if self.is_empty() {
            return w.write_str("p-");
        }
        w.write_char('p')?;
        let mut bits = self.0;
        while bits != 0 {
            #[allow(clippy::cast_possible_truncation)] // < 16
            let p = bits.trailing_zeros() as u8;
            if p >= 10 {
                w.write_char('1')?;
            }
            w.write_char(char::from(b'0' + p % 10))?;
            bits &= bits - 1;
        }
        Ok(())
    }
}

impl fmt::Display for PortMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

impl fmt::Binary for PortMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

/// The port sets used by each µop class on a given microarchitecture.
///
/// This is the structural summary of the uops.info port-mapping data: the
/// instruction database maps each µop of each instruction to one of these
/// classes, and the class resolves to a concrete port set per µarch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortClasses {
    /// Simple integer ALU operations (add, mov, logic, flags).
    pub alu: PortMask,
    /// Integer shifts and rotates.
    pub shift: PortMask,
    /// Branch/jump µops.
    pub branch: PortMask,
    /// Integer multiply.
    pub mul: PortMask,
    /// Integer divide (port binding; the divider is also serialized).
    pub div: PortMask,
    /// Simple `lea` (base + disp or base + index, no scale*8/3-component).
    pub lea_simple: PortMask,
    /// Complex `lea` (three components or RIP-relative).
    pub lea_complex: PortMask,
    /// Load µops (load data + AGU).
    pub load: PortMask,
    /// Store-address µops.
    pub store_addr: PortMask,
    /// Store-data µops.
    pub store_data: PortMask,
    /// Floating-point add.
    pub fp_add: PortMask,
    /// Floating-point multiply.
    pub fp_mul: PortMask,
    /// Fused multiply-add.
    pub fp_fma: PortMask,
    /// Floating-point divide / square root.
    pub fp_div: PortMask,
    /// Vector integer ALU.
    pub vec_ialu: PortMask,
    /// Vector integer multiply.
    pub vec_imul: PortMask,
    /// Vector logic (bitwise).
    pub vec_logic: PortMask,
    /// Vector shuffles / permutes / packs.
    pub vec_shuffle: PortMask,
    /// Slow scalar integer ops (popcnt, bit scans, cmov on some µarchs).
    pub slow_int: PortMask,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_queries() {
        let m = PortMask::of(&[0, 1, 5]);
        assert_eq!(m.count(), 3);
        assert!(m.contains(0) && m.contains(5) && !m.contains(2));
        assert_eq!(m.to_string(), "p015");
    }

    #[test]
    fn subset_and_union() {
        let a = PortMask::of(&[0, 1]);
        let b = PortMask::of(&[0, 1, 5]);
        assert!(a.is_subset_of(b));
        assert!(!b.is_subset_of(a));
        assert_eq!(a | PortMask::of(&[5]), b);
        assert_eq!(a.intersect(b), a);
    }

    #[test]
    fn iteration_order() {
        let m = PortMask::of(&[7, 2, 3]);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![2, 3, 7]);
    }

    #[test]
    fn empty_display() {
        assert_eq!(PortMask::EMPTY.to_string(), "p-");
        assert_eq!(PortMask::of(&[0, 9, 10, 15]).to_string(), "p091015");
        assert!(PortMask::EMPTY.is_subset_of(PortMask::of(&[1])));
    }

    #[test]
    #[should_panic(expected = "port number out of range")]
    fn out_of_range_port() {
        let _ = PortMask::of(&[16]);
    }
}
