//! Per-request virtual-to-physical chunk translation (paper §VI-C).
//!
//! The on-module dispatcher keeps one VA2PA table per active request. DPA
//! instructions address the KV cache with *virtual* chunk-granular
//! addresses; the decode unit resolves them through this table, allowing
//! non-contiguous, dynamically allocated physical placement.

use crate::chunk::ChunkId;

/// A single request's virtual→physical chunk map.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Va2PaTable {
    /// `map[vc]` is the physical chunk backing virtual chunk `vc`.
    map: Vec<Option<ChunkId>>,
}

impl Va2PaTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a mapping for virtual chunk `vc`.
    pub fn insert(&mut self, vc: u64, pc: ChunkId) {
        let idx = vc as usize;
        if idx >= self.map.len() {
            self.map.resize(idx + 1, None);
        }
        self.map[idx] = Some(pc);
    }

    /// Resolves a virtual chunk, if mapped.
    pub fn translate(&self, vc: u64) -> Option<ChunkId> {
        self.map.get(vc as usize).copied().flatten()
    }

    /// Translates a virtual *row* address given `rows_per_chunk`, returning
    /// the physical row (`pc * rows_per_chunk + offset`).
    ///
    /// # Panics
    /// Panics if `rows_per_chunk` is zero.
    pub fn translate_row(&self, virtual_row: u64, rows_per_chunk: u64) -> Option<u64> {
        assert!(rows_per_chunk > 0);
        let vc = virtual_row / rows_per_chunk;
        let off = virtual_row % rows_per_chunk;
        self.translate(vc).map(|pc| pc.0 * rows_per_chunk + off)
    }

    /// Number of mapped chunks.
    pub fn mapped(&self) -> usize {
        self.map.iter().filter(|m| m.is_some()).count()
    }

    /// Iterates over `(virtual_chunk, physical_chunk)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, ChunkId)> + '_ {
        self.map
            .iter()
            .enumerate()
            .filter_map(|(vc, pc)| pc.map(|p| (vc as u64, p)))
    }
}

impl FromIterator<(u64, ChunkId)> for Va2PaTable {
    fn from_iter<I: IntoIterator<Item = (u64, ChunkId)>>(iter: I) -> Self {
        let mut t = Va2PaTable::new();
        for (vc, pc) in iter {
            t.insert(vc, pc);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_translate() {
        let mut t = Va2PaTable::new();
        t.insert(0, ChunkId(22));
        t.insert(1, ChunkId(33));
        assert_eq!(t.translate(0), Some(ChunkId(22)));
        assert_eq!(t.translate(1), Some(ChunkId(33)));
        assert_eq!(t.translate(2), None);
    }

    #[test]
    fn sparse_holes_are_unmapped() {
        let mut t = Va2PaTable::new();
        t.insert(4, ChunkId(9));
        assert_eq!(t.translate(2), None);
        assert_eq!(t.translate(4), Some(ChunkId(9)));
        assert_eq!(t.mapped(), 1);
    }

    #[test]
    fn row_translation_is_chunk_relative() {
        let mut t = Va2PaTable::new();
        t.insert(0, ChunkId(7));
        t.insert(1, ChunkId(2));
        // 16 rows per chunk: virtual row 20 = chunk 1, offset 4 -> 2*16+4.
        assert_eq!(t.translate_row(20, 16), Some(36));
        assert_eq!(t.translate_row(3, 16), Some(7 * 16 + 3));
        assert_eq!(t.translate_row(40, 16), None);
    }

    #[test]
    fn iter_yields_mappings_in_order() {
        let t: Va2PaTable = vec![(0, ChunkId(5)), (2, ChunkId(8))].into_iter().collect();
        let pairs: Vec<_> = t.iter().collect();
        assert_eq!(pairs, vec![(0, ChunkId(5)), (2, ChunkId(8))]);
    }

    #[test]
    fn remap_overwrites() {
        let mut t = Va2PaTable::new();
        t.insert(0, ChunkId(1));
        t.insert(0, ChunkId(2));
        assert_eq!(t.translate(0), Some(ChunkId(2)));
        assert_eq!(t.mapped(), 1);
    }
}
