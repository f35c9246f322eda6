//! Cache geometry: the line / set / way organisation.

use serde::{Deserialize, Serialize};

use compmem_trace::{LineAddr, LINE_SIZE_BYTES};

use crate::error::CacheError;

/// The organisation of a set-associative cache.
///
/// The line size is fixed crate-wide at [`LINE_SIZE_BYTES`]; sets and ways
/// must be non-zero powers of two so that the index can be extracted with a
/// mask, exactly like the hardware the paper models.
///
/// ```
/// use compmem_cache::CacheGeometry;
/// # fn main() -> Result<(), compmem_cache::CacheError> {
/// // The paper's L2: 512 KB, 4-way, 64-byte lines => 2048 sets.
/// let l2 = CacheGeometry::new(2048, 4)?;
/// assert_eq!(l2.size_bytes(), 512 * 1024);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CacheGeometry {
    sets: u32,
    ways: u32,
}

impl CacheGeometry {
    /// Creates a geometry with the given number of sets and ways.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::InvalidGeometry`] if either parameter is zero or
    /// not a power of two.
    pub fn new(sets: u32, ways: u32) -> Result<Self, CacheError> {
        if sets == 0 || !sets.is_power_of_two() {
            return Err(CacheError::InvalidGeometry {
                parameter: "sets",
                value: u64::from(sets),
            });
        }
        if ways == 0 || !ways.is_power_of_two() {
            return Err(CacheError::InvalidGeometry {
                parameter: "ways",
                value: u64::from(ways),
            });
        }
        Ok(CacheGeometry { sets, ways })
    }

    /// Creates the geometry of a cache of `size_bytes` with the given
    /// associativity.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::InvalidGeometry`] if the implied set count is
    /// zero or not a power of two.
    pub fn with_size(size_bytes: u64, ways: u32) -> Result<Self, CacheError> {
        let way_bytes = u64::from(ways) * LINE_SIZE_BYTES;
        if way_bytes == 0 || !size_bytes.is_multiple_of(way_bytes) {
            return Err(CacheError::InvalidGeometry {
                parameter: "size_bytes",
                value: size_bytes,
            });
        }
        let sets = size_bytes / way_bytes;
        Self::new(sets as u32, ways)
    }

    /// Number of sets.
    pub const fn sets(&self) -> u32 {
        self.sets
    }

    /// Associativity (ways per set).
    pub const fn ways(&self) -> u32 {
        self.ways
    }

    /// Line size in bytes.
    pub const fn line_size(&self) -> u64 {
        LINE_SIZE_BYTES
    }

    /// Total capacity in bytes.
    pub const fn size_bytes(&self) -> u64 {
        self.sets as u64 * self.ways as u64 * LINE_SIZE_BYTES
    }

    /// Total capacity in cache lines.
    pub const fn lines(&self) -> u64 {
        self.sets as u64 * self.ways as u64
    }

    /// The set a line maps to under conventional (modulo) indexing. The
    /// set count is a power of two, so the modulo is a mask.
    #[inline]
    pub const fn index_of(&self, line: LineAddr) -> u32 {
        (line.value() & (self.sets as u64 - 1)) as u32
    }

    /// The tag of a line: the full line address is used as tag so that any
    /// index remapping (set partitioning) remains unambiguous.
    pub const fn tag_of(&self, line: LineAddr) -> u64 {
        line.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_l2_geometry() {
        let g = CacheGeometry::with_size(512 * 1024, 4).unwrap();
        assert_eq!(g.sets(), 2048);
        assert_eq!(g.ways(), 4);
        assert_eq!(g.size_bytes(), 524_288);
        assert_eq!(g.lines(), 8192);
    }

    #[test]
    fn l1_geometry() {
        let g = CacheGeometry::with_size(16 * 1024, 4).unwrap();
        assert_eq!(g.sets(), 64);
    }

    #[test]
    fn rejects_non_power_of_two() {
        assert!(CacheGeometry::new(3, 4).is_err());
        assert!(CacheGeometry::new(64, 3).is_err());
        assert!(CacheGeometry::new(0, 4).is_err());
        assert!(CacheGeometry::new(64, 0).is_err());
        assert!(CacheGeometry::with_size(100, 4).is_err());
    }

    #[test]
    fn index_wraps_modulo_sets() {
        let g = CacheGeometry::new(64, 4).unwrap();
        assert_eq!(g.index_of(LineAddr::new(0)), 0);
        assert_eq!(g.index_of(LineAddr::new(63)), 63);
        assert_eq!(g.index_of(LineAddr::new(64)), 0);
        assert_eq!(g.index_of(LineAddr::new(130)), 2);
    }

    #[test]
    fn tag_is_full_line_address() {
        let g = CacheGeometry::new(64, 4).unwrap();
        assert_eq!(g.tag_of(LineAddr::new(12345)), 12345);
    }
}
