//! Scheduler configuration: DIMM geometry, timing, and the refresh
//! scheduling knobs.

use serde::{Deserialize, Serialize};

use vrl_dram_sim::error::Error;
use vrl_dram_sim::timing::TimingParams;
use vrl_trace::addr::AddressMap;

/// Configuration of the multi-bank command scheduler.
///
/// The DIMM geometry comes from the [`AddressMap`]: `2^channel_bits`
/// channels of `2^rank_bits` ranks of `2^bank_bits` banks of
/// `2^row_bits` rows each. Trace records carry a flat row index; the
/// scheduler steers each request through the map's interleaved layout,
/// so consecutive indices stripe across channels, then banks, then
/// ranks, before rows (see [`SchedConfig::steer`]).
///
/// Constraint scoping follows the hardware: `tRRD`/`tFAW` bind
/// activates within one **rank** (the shared charge-pump/power network),
/// `tRFC` spaces refresh starts within one rank, while `tCCD`, bus
/// turnaround, and the one-command-per-cycle command bus bind within
/// one **channel** (the shared address/data buses). Channels share
/// nothing, which is what makes channel-sharded execution exact.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SchedConfig {
    /// Timing parameters (per-bank core timings plus the rank-scoped
    /// `tRRD`, `tFAW`, `tRFC` and channel-scoped `tCCD`/turnaround).
    pub timing: TimingParams,
    /// Address mapping defining the DIMM geometry and request steering.
    pub map: AddressMap,
    /// Request-queue depth, per channel.
    pub queue_depth: usize,
    /// JEDEC-style refresh elasticity window in cycles: how far past its
    /// deadline a refresh may be postponed in favor of queued demand,
    /// and how far before its deadline an idle bank may pull it in.
    /// Only consulted when [`SchedConfig::parallel_refresh`] is on.
    pub slack: u64,
    /// DSARP-style refresh-access parallelization: steer refreshes to
    /// banks with no queued demand, postponing (within [`Self::slack`])
    /// on contended banks and pulling refreshes in on idle ones. When
    /// off, the scheduler is strictly refresh-first per bank, like
    /// [`vrl_dram_sim::controller::FrFcfsController`].
    pub parallel_refresh: bool,
    /// Whether initial refresh deadlines are staggered across each
    /// row's period (distributed refresh) or aligned (burst refresh).
    pub staggered: bool,
}

impl SchedConfig {
    /// The paper's evaluation rank: 1 channel × 1 rank × 8 banks × 8192
    /// rows, DDR3-like timings, a 32-deep queue, parallelized refresh
    /// with a 64 µs elasticity window.
    pub fn paper_default() -> Self {
        SchedConfig {
            timing: TimingParams::paper_default(),
            map: AddressMap::paper_default(),
            queue_depth: 32,
            slack: 64_000,
            parallel_refresh: true,
            staggered: true,
        }
    }

    /// A single-channel single-rank system of `banks` × `rows_per_bank`
    /// (both powers of two) at the paper's timings.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if either count is zero or not a
    /// power of two (the address map needs whole bit fields).
    pub fn with_geometry(banks: u32, rows_per_bank: u32) -> Result<Self, Error> {
        Self::with_dimm_geometry(1, 1, banks, rows_per_bank)
    }

    /// A full DIMM of `channels` × `ranks` × `banks_per_rank` ×
    /// `rows_per_bank` (all powers of two) at the paper's timings.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if any count is zero or not a
    /// power of two (the address map needs whole bit fields).
    pub fn with_dimm_geometry(
        channels: u32,
        ranks: u32,
        banks_per_rank: u32,
        rows_per_bank: u32,
    ) -> Result<Self, Error> {
        let field = |what: &str, n: u32| -> Result<u32, Error> {
            if n == 0 || !n.is_power_of_two() {
                return Err(Error::InvalidConfig {
                    reason: format!("{what} must be a power of two, got {n}"),
                });
            }
            Ok(n.trailing_zeros())
        };
        let channel_bits = field("channel count", channels)?;
        let rank_bits = field("rank count", ranks)?;
        let bank_bits = field("bank count", banks_per_rank)?;
        let row_bits = field("rows per bank", rows_per_bank)?;
        Ok(SchedConfig {
            map: AddressMap {
                channel_bits,
                rank_bits,
                bank_bits,
                row_bits,
                ..AddressMap::paper_default()
            },
            ..Self::paper_default()
        })
    }

    /// Sets the request-queue depth (per channel).
    #[must_use]
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Sets the refresh elasticity window.
    #[must_use]
    pub fn with_slack(mut self, slack_cycles: u64) -> Self {
        self.slack = slack_cycles;
        self
    }

    /// Enables or disables refresh-access parallelization.
    #[must_use]
    pub fn with_parallelism(mut self, on: bool) -> Self {
        self.parallel_refresh = on;
        self
    }

    /// Switches to burst refresh (all rows initially due together).
    #[must_use]
    pub fn with_burst_refresh(mut self) -> Self {
        self.staggered = false;
        self
    }

    /// Sets the per-rank refresh-to-refresh start spacing `tRFC`.
    #[must_use]
    pub fn with_trfc(mut self, trfc: u64) -> Self {
        self.timing.trfc = trfc;
        self
    }

    /// Channels in the system.
    pub fn channels(&self) -> u32 {
        1 << self.map.channel_bits
    }

    /// Ranks per channel.
    pub fn ranks(&self) -> u32 {
        1 << self.map.rank_bits
    }

    /// Banks per rank.
    pub fn banks_per_rank(&self) -> u32 {
        1 << self.map.bank_bits
    }

    /// Total banks across the DIMM (channels × ranks × banks per rank) —
    /// the range of global bank indices the stats and observers see.
    pub fn banks(&self) -> u32 {
        self.channels() * self.ranks() * self.banks_per_rank()
    }

    /// Banks owned by one channel (ranks × banks per rank).
    pub fn banks_per_channel(&self) -> u32 {
        self.ranks() * self.banks_per_rank()
    }

    /// Rows per bank.
    pub fn rows_per_bank(&self) -> u32 {
        1 << self.map.row_bits
    }

    /// Total rows across the DIMM — the range of global row indices the
    /// refresh policy and observers see.
    pub fn total_rows(&self) -> u32 {
        self.banks() * self.rows_per_bank()
    }

    /// The channel that owns global bank `bank`. Global bank indices
    /// are channel-major (`channel`, then `rank`, then bank-in-rank),
    /// so each channel owns one contiguous range: the bits above the
    /// rank and bank fields.
    #[inline]
    pub fn channel_of_bank(&self, bank: u32) -> u32 {
        bank >> (self.map.rank_bits + self.map.bank_bits)
    }

    /// The rank (within its channel) that owns global bank `bank`: the
    /// field just above the bank-in-rank bits.
    #[inline]
    pub fn rank_of_bank(&self, bank: u32) -> u32 {
        field(bank, self.map.bank_bits, self.map.rank_bits)
    }

    /// Steers a trace record's flat row index to a `(global bank, row)`
    /// pair through the address map: the index is treated as a line
    /// number, so its low bits select the channel, then the bank, then
    /// the rank, and the remaining bits the row — the map's interleaved
    /// layout with the column field zero, which is
    /// [`AddressMap::decode`] of the index shifted up past the offset
    /// and column bits, read here straight from the index's bit fields.
    /// The global bank index is channel-major: `(channel × ranks +
    /// rank) × banks_per_rank + bank`. With one channel and one rank
    /// this reduces to the historical bank-striped layout, and with a
    /// single bank to `index % rows_per_bank` — exactly how the
    /// single-bank engines fold row indices.
    #[inline]
    pub fn steer(&self, row_index: u32) -> (u32, u32) {
        let m = &self.map;
        let rank_low = m.channel_bits + m.bank_bits;
        let row_low = rank_low + m.rank_bits;
        let channel = field(row_index, 0, m.channel_bits);
        let bank = field(row_index, m.channel_bits, m.bank_bits);
        let rank = field(row_index, rank_low, m.rank_bits);
        let row = field(row_index, row_low, m.row_bits);
        let global_bank = (((channel << m.rank_bits) | rank) << m.bank_bits) | bank;
        (global_bank, row)
    }

    /// The channel that owns flat row index `row_index`: the channel
    /// field of [`SchedConfig::steer`]'s decode (its lowest bits),
    /// without decoding the rest — what a channel shard needs to drop
    /// foreign records.
    pub fn channel_of_index(&self, row_index: u32) -> u32 {
        row_index & (self.channels() - 1)
    }

    /// The global row index of `(global bank, row)` — the identifier
    /// reported to the refresh policy and observers.
    pub fn global_row(&self, bank: u32, row: u32) -> u32 {
        bank * self.rows_per_bank() + row
    }
}

/// The `width`-bit field of `value` starting at bit `low`, computed in
/// 64 bits like [`AddressMap::decode`], so a field ending at bit 32
/// needs no special case.
#[inline(always)]
fn field(value: u32, low: u32, width: u32) -> u32 {
    ((value as u64 >> low) & ((1 << width) - 1)) as u32
}

impl Default for SchedConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_accessors_match_the_map() {
        let c = SchedConfig::with_geometry(8, 1024).expect("powers of two");
        assert_eq!(c.banks(), 8);
        assert_eq!(c.rows_per_bank(), 1024);
        assert_eq!(c.total_rows(), 8192);
        assert_eq!(c.channels(), 1);
        assert_eq!(c.ranks(), 1);
        assert_eq!(c.banks_per_rank(), 8);
    }

    #[test]
    fn dimm_geometry_accessors_multiply_out() {
        let c = SchedConfig::with_dimm_geometry(2, 2, 16, 128).expect("powers of two");
        assert_eq!(c.channels(), 2);
        assert_eq!(c.ranks(), 2);
        assert_eq!(c.banks_per_rank(), 16);
        assert_eq!(c.banks_per_channel(), 32);
        assert_eq!(c.banks(), 64);
        assert_eq!(c.total_rows(), 64 * 128);
    }

    #[test]
    fn non_power_of_two_geometry_is_rejected() {
        for (banks, rows) in [(0, 64), (3, 64), (4, 0), (4, 100)] {
            let err = SchedConfig::with_geometry(banks, rows).expect_err("invalid");
            assert!(matches!(err, Error::InvalidConfig { .. }), "{err:?}");
        }
        for (ch, rk) in [(0, 1), (3, 1), (1, 0), (1, 5)] {
            let err = SchedConfig::with_dimm_geometry(ch, rk, 4, 64).expect_err("invalid");
            assert!(matches!(err, Error::InvalidConfig { .. }), "{err:?}");
        }
    }

    #[test]
    fn steering_stripes_banks_before_rows() {
        let c = SchedConfig::with_geometry(4, 16).expect("geometry");
        assert_eq!(c.steer(0), (0, 0));
        assert_eq!(c.steer(1), (1, 0));
        assert_eq!(c.steer(3), (3, 0));
        assert_eq!(c.steer(4), (0, 1));
        assert_eq!(c.steer(4 * 16), (0, 0), "wraps past the rank");
    }

    #[test]
    fn steering_stripes_channels_then_banks_then_ranks() {
        let c = SchedConfig::with_dimm_geometry(2, 2, 4, 16).expect("geometry");
        // Index bit layout (low to high): channel, bank, rank, row.
        assert_eq!(c.steer(0), (0, 0), "channel 0, rank 0, bank 0");
        assert_eq!(c.steer(1), (8, 0), "channel 1 owns banks 8..16");
        assert_eq!(c.steer(2), (1, 0), "next bank in channel 0");
        assert_eq!(c.steer(8), (4, 0), "rank 1 of channel 0 starts at 4");
        assert_eq!(c.steer(9), (12, 0), "rank 1 of channel 1 starts at 12");
        assert_eq!(c.steer(16), (0, 1), "past all banks: next row");
        // Every global bank is hit exactly once per 16 consecutive lines.
        let mut seen = vec![false; c.banks() as usize];
        for idx in 0..16 {
            let (bank, row) = c.steer(idx);
            assert_eq!(row, 0);
            assert!(!seen[bank as usize]);
            seen[bank as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn single_bank_steering_is_a_modulo() {
        let c = SchedConfig::with_geometry(1, 64).expect("geometry");
        for idx in [0u32, 1, 63, 64, 130] {
            assert_eq!(c.steer(idx), (0, idx % 64));
        }
    }

    #[test]
    fn global_rows_are_dense_and_unique() {
        let c = SchedConfig::with_dimm_geometry(2, 1, 2, 8).expect("geometry");
        let mut seen = vec![false; c.total_rows() as usize];
        for bank in 0..c.banks() {
            for row in 0..c.rows_per_bank() {
                let g = c.global_row(bank, row) as usize;
                assert!(!seen[g]);
                seen[g] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
