//! Physical-address ↔ (channel, rank, bank, row, column) mapping.
//!
//! The multi-bank scheduler steers each record's row index to a DIMM
//! location through this map's field widths. The mapping here is the
//! common row-interleaved layout generalized to a full DIMM:
//! `| row | rank | bank | channel | column | offset |`.
//!
//! Channel bits sit just above the column bits so consecutive cache
//! lines stripe across channels first (maximizing channel-level
//! parallelism), then banks, then ranks — the layout DDR4 controllers
//! default to. The single-channel single-rank special case
//! (`channel_bits == rank_bits == 0`) reproduces the historical
//! `| row | bank | column | offset |` layout bit-for-bit.

use serde::{Deserialize, Serialize};

/// DRAM address-mapping parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AddressMap {
    /// log2 of the cache-line/burst size in bytes (offset bits).
    pub offset_bits: u32,
    /// log2 of the number of columns per row.
    pub column_bits: u32,
    /// log2 of the number of channels.
    pub channel_bits: u32,
    /// log2 of the number of banks per rank.
    pub bank_bits: u32,
    /// log2 of the number of ranks per channel.
    pub rank_bits: u32,
    /// log2 of the number of rows per bank.
    pub row_bits: u32,
}

/// A decoded DRAM location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Location {
    /// Channel index.
    pub channel: u32,
    /// Rank index within the channel.
    pub rank: u32,
    /// Bank index within the rank.
    pub bank: u32,
    /// Row index within the bank.
    pub row: u32,
    /// Column index within the row.
    pub column: u32,
}

impl AddressMap {
    /// The evaluation configuration: 64 B lines, 32 columns, 1 channel,
    /// 1 rank, 8 banks, 8192 rows.
    pub fn paper_default() -> Self {
        AddressMap {
            offset_bits: 6,
            column_bits: 5,
            channel_bits: 0,
            bank_bits: 3,
            rank_bits: 0,
            row_bits: 13,
        }
    }

    /// Total addressable bytes.
    pub fn capacity_bytes(&self) -> u64 {
        1u64 << (self.offset_bits
            + self.column_bits
            + self.channel_bits
            + self.bank_bits
            + self.rank_bits
            + self.row_bits)
    }

    /// Decodes a physical byte address.
    ///
    /// Addresses at or beyond [`AddressMap::capacity_bytes`] **wrap
    /// modulo the capacity**: the row field simply masks away the high
    /// bits, so `decode(addr) == decode(addr % capacity_bytes())`. This
    /// mirrors how a real controller ignores address bits above its
    /// decode width.
    pub fn decode(&self, addr: u64) -> Location {
        let a = addr >> self.offset_bits;
        let column = (a & ((1 << self.column_bits) - 1)) as u32;
        let a = a >> self.column_bits;
        let channel = (a & ((1 << self.channel_bits) - 1)) as u32;
        let a = a >> self.channel_bits;
        let bank = (a & ((1 << self.bank_bits) - 1)) as u32;
        let a = a >> self.bank_bits;
        let rank = (a & ((1 << self.rank_bits) - 1)) as u32;
        let a = a >> self.rank_bits;
        let row = (a & ((1 << self.row_bits) - 1)) as u32;
        Location {
            channel,
            rank,
            bank,
            row,
            column,
        }
    }
}

impl Default for AddressMap {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_matches_bits() {
        let m = AddressMap::paper_default();
        assert_eq!(m.capacity_bytes(), 1u64 << 27); // 128 MiB
        let dimm = AddressMap {
            channel_bits: 1,
            rank_bits: 1,
            ..m
        };
        assert_eq!(dimm.capacity_bytes(), 1u64 << 29);
    }

    #[test]
    fn adjacent_lines_differ_in_column_first() {
        let m = AddressMap::paper_default();
        let a = m.decode(0);
        let b = m.decode(64);
        assert_eq!(a.row, b.row);
        assert_eq!(a.bank, b.bank);
        assert_eq!(b.column, a.column + 1);
    }

    #[test]
    fn channels_stripe_above_columns_then_banks_then_ranks() {
        let m = AddressMap {
            channel_bits: 1,
            rank_bits: 1,
            ..AddressMap::paper_default()
        };
        let lines_per_row = 1u64 << m.column_bits;
        let line = 1u64 << m.offset_bits;
        // Crossing the column field flips the channel first...
        let a = m.decode(0);
        let b = m.decode(lines_per_row * line);
        assert_eq!((a.channel, a.bank, a.rank), (0, 0, 0));
        assert_eq!((b.channel, b.bank, b.rank), (1, 0, 0));
        // ...then the bank field...
        let c = m.decode(2 * lines_per_row * line);
        assert_eq!((c.channel, c.bank, c.rank), (0, 1, 0));
        // ...then, above all banks, the rank field.
        let banks = 1u64 << m.bank_bits;
        let d = m.decode(2 * banks * lines_per_row * line);
        assert_eq!((d.channel, d.bank, d.rank), (0, 0, 1));
        assert_eq!(d.row, 0);
    }

    #[test]
    fn zero_extra_bits_matches_the_historical_layout() {
        // With channel_bits == rank_bits == 0 the map must decode
        // exactly as the old `| row | bank | column | offset |` layout.
        let m = AddressMap::paper_default();
        for addr in [0u64, 64, 4096, 123_456, (1 << 27) - 64] {
            let loc = m.decode(addr);
            let a = addr >> m.offset_bits;
            let column = (a & ((1 << m.column_bits) - 1)) as u32;
            let a = a >> m.column_bits;
            let bank = (a & ((1 << m.bank_bits) - 1)) as u32;
            let row = ((a >> m.bank_bits) & ((1 << m.row_bits) - 1)) as u32;
            assert_eq!(
                loc,
                Location {
                    channel: 0,
                    rank: 0,
                    bank,
                    row,
                    column
                }
            );
        }
    }

    #[test]
    fn decode_wraps_above_capacity() {
        let m = AddressMap::paper_default();
        let a = m.decode(10 * 64);
        let b = m.decode(10 * 64 + m.capacity_bytes());
        assert_eq!(a, b);
    }
}
