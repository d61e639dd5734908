//! Tiling of weight streams into buffer-sized chunks.
//!
//! The Screener and Executor each have two 256-byte input buffers
//! (Table 3). A screening *tile* is one weight-buffer fill: at INT4 that is
//! 512 W̃ elements, i.e. four 64-byte bursts. The MAC array consumes a tile
//! while the DRAM controller prefetches the next one (double buffering),
//! which is what lets the Screener "process the data in a streaming
//! manner" (§5.1).

use crate::{CompileError, TaskDescriptor};

/// Tiling parameters derived from the hardware configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tiling {
    /// Weight-buffer capacity in bytes (256 in Table 3).
    pub buffer_bytes: usize,
    /// Screening-weight elements per tile.
    pub screen_elems_per_tile: usize,
    /// Number of screening tiles to cover `l × k` (per batch item).
    pub screen_tiles: usize,
    /// 64-byte bursts per tile.
    pub bursts_per_tile: usize,
    /// Tiles needed per FP32 classifier row (candidate gather).
    pub tiles_per_row: usize,
}

impl Tiling {
    /// Computes the tiling for `task` with `buffer_bytes` input buffers.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] for zero-sized tasks or a buffer smaller
    /// than one burst.
    pub fn new(task: &TaskDescriptor, buffer_bytes: usize) -> Result<Self, CompileError> {
        if task.categories == 0 {
            return Err(CompileError::EmptyTask("categories"));
        }
        if task.hidden == 0 || task.reduced == 0 {
            return Err(CompileError::EmptyTask("hidden/reduced dimension"));
        }
        if buffer_bytes < 64 {
            return Err(CompileError::BufferTooSmall { needed: 64, available: buffer_bytes });
        }
        let bits = task.screen_precision.bits() as usize;
        let screen_elems_per_tile = buffer_bytes * 8 / bits;
        let total_elems = task.categories * task.reduced;
        let screen_tiles = total_elems.div_ceil(screen_elems_per_tile);
        let bursts_per_tile = buffer_bytes / 64;
        let row_bytes = task.hidden * 4;
        let tiles_per_row = row_bytes.div_ceil(buffer_bytes);
        Ok(Tiling {
            buffer_bytes,
            screen_elems_per_tile,
            screen_tiles,
            bursts_per_tile,
            tiles_per_row,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enmc_tensor::quant::Precision;

    #[test]
    fn paper_config_tile_shapes() {
        // Transformer-W268K: l=267744, d=512, k=128, INT4, 256 B buffers.
        let task = TaskDescriptor::paper_default(267_744, 512, 1);
        let t = Tiling::new(&task, 256).unwrap();
        assert_eq!(t.screen_elems_per_tile, 512); // 256 B × 2 elems/B
        assert_eq!(t.bursts_per_tile, 4);
        assert_eq!(t.screen_tiles, (267_744 * 128usize).div_ceil(512));
        assert_eq!(t.tiles_per_row, 8); // 2 KiB row / 256 B
    }

    #[test]
    fn tiles_cover_all_elements() {
        let task = TaskDescriptor::paper_default(1000, 64, 1);
        let t = Tiling::new(&task, 256).unwrap();
        assert!(t.screen_tiles * t.screen_elems_per_tile >= 1000 * 16);
        assert!((t.screen_tiles - 1) * t.screen_elems_per_tile < 1000 * 16);
    }

    #[test]
    fn int8_halves_elems_per_tile() {
        let mut task = TaskDescriptor::paper_default(1000, 64, 1);
        task.screen_precision = Precision::Int8;
        let t = Tiling::new(&task, 256).unwrap();
        assert_eq!(t.screen_elems_per_tile, 256);
    }

    #[test]
    fn rejects_degenerate_inputs() {
        let mut task = TaskDescriptor::paper_default(0, 64, 1);
        assert!(Tiling::new(&task, 256).is_err());
        task = TaskDescriptor::paper_default(10, 64, 1);
        assert!(Tiling::new(&task, 32).is_err());
    }
}
