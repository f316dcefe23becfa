//! Physical geometry of one PIM channel.

/// Static shape parameters of a PIM channel (paper §II-B, §V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Banks per channel, each with a 16-lane MAC unit.
    pub banks: u32,
    /// Global Buffer capacity in 32 B tile entries (2 KB => 64).
    pub gbuf_entries: u32,
    /// Output register/buffer entries. The conventional AiM design exposes
    /// 4 B per bank (= 2 fp16 accumulator entries); PIMphony's I/O-aware
    /// buffering expands this into a multi-entry Output Buffer.
    pub out_entries: u32,
    /// Tiles per DRAM row per bank (1 KB row / 32 B tile => 32).
    pub row_tiles: u32,
    /// fp16 elements per 32 B tile.
    pub elems_per_tile: u32,
}

impl Geometry {
    /// Conventional AiM channel: 16 banks, 64-entry GBuf, 2-entry OutRegs.
    pub fn baseline() -> Self {
        Geometry {
            banks: 16,
            gbuf_entries: 64,
            out_entries: 2,
            row_tiles: 32,
            elems_per_tile: 16,
        }
    }

    /// PIMphony channel with expanded Output Buffers (16 entries).
    pub fn pimphony() -> Self {
        Geometry {
            out_entries: 16,
            ..Self::baseline()
        }
    }

    /// Bytes per tile (32 B for 16 fp16 lanes).
    pub fn tile_bytes(&self) -> u32 {
        self.elems_per_tile * 2
    }

    /// Peak MAC lanes in the channel (`banks * elems_per_tile`).
    pub fn mac_lanes(&self) -> u32 {
        self.banks * self.elems_per_tile
    }

    /// Maps a linear per-bank tile index to `(row, col)`.
    pub fn tile_to_row_col(&self, tile_index: u64) -> (u32, u16) {
        let row = (tile_index / u64::from(self.row_tiles)) as u32;
        let col = (tile_index % u64::from(self.row_tiles)) as u16;
        (row, col)
    }
}

impl Default for Geometry {
    fn default() -> Self {
        Self::baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_aim_spec() {
        let g = Geometry::baseline();
        assert_eq!(g.banks, 16);
        // 2 KB GBuf of 32 B tiles.
        assert_eq!(g.gbuf_entries * g.tile_bytes(), 2048);
        assert_eq!(g.out_entries, 2);
    }

    #[test]
    fn pimphony_expands_out_buffers_only() {
        let b = Geometry::baseline();
        let p = Geometry::pimphony();
        assert!(p.out_entries > b.out_entries);
        assert_eq!(p.gbuf_entries, b.gbuf_entries);
        assert_eq!(p.banks, b.banks);
    }

    #[test]
    fn tile_row_col_round_trip() {
        let g = Geometry::baseline();
        assert_eq!(g.tile_to_row_col(0), (0, 0));
        assert_eq!(g.tile_to_row_col(31), (0, 31));
        assert_eq!(g.tile_to_row_col(32), (1, 0));
        assert_eq!(g.tile_to_row_col(100), (3, 4));
    }

    #[test]
    fn mac_lanes_product() {
        assert_eq!(Geometry::baseline().mac_lanes(), 256);
    }
}
