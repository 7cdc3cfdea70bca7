//! Pins the scheduler's request steering to the address map's decode.
//!
//! `SchedConfig::steer` treats a trace record's flat row index as a line
//! number and decodes it through `AddressMap`'s interleaved layout
//! (channel, then bank, then rank, then row, from the low bits up).
//! `rank_of_bank`, `channel_of_bank` and `channel_of_index` answer the
//! same question for a global bank or a raw index. This suite diffs all
//! four against that decode, written out here as the formula the
//! scheduler steered through before it took the fields straight from the
//! index: the index shifted up into a byte address, `AddressMap::decode`,
//! and the channel-major global bank
//! `(channel × ranks + rank) × banks_per_rank + bank`.

use vrl_sched::SchedConfig;

/// `(global bank, row, channel, rank)` of `index` by the decode formula.
fn decoded(config: &SchedConfig, index: u32) -> (u32, u32, u32, u32) {
    let map = config.map;
    let addr = (index as u64) << (map.offset_bits + map.column_bits);
    let loc = map.decode(addr);
    let global_bank =
        (loc.channel * config.ranks() + loc.rank) * config.banks_per_rank() + loc.bank;
    (global_bank, loc.row, loc.channel, loc.rank)
}

fn check_index(config: &SchedConfig, index: u32) {
    let (bank, row, channel, rank) = decoded(config, index);
    assert_eq!(config.steer(index), (bank, row), "steer({index})");
    assert_eq!(
        config.channel_of_index(index),
        channel,
        "channel_of_index({index})"
    );
    assert_eq!(
        config.channel_of_bank(bank),
        channel,
        "channel_of_bank({bank})"
    );
    assert_eq!(config.rank_of_bank(bank), rank, "rank_of_bank({bank})");
}

/// Every global bank against the division formulas the bank helpers
/// used: `bank / banks_per_channel` and `(bank / banks_per_rank) % ranks`.
fn check_banks(config: &SchedConfig) {
    for bank in 0..config.banks() {
        assert_eq!(
            config.channel_of_bank(bank),
            bank / config.banks_per_channel(),
            "channel_of_bank({bank})"
        );
        assert_eq!(
            config.rank_of_bank(bank),
            (bank / config.banks_per_rank()) % config.ranks(),
            "rank_of_bank({bank})"
        );
    }
}

#[test]
fn steering_matches_the_decode_on_small_geometries() {
    for (channels, ranks, banks, rows) in [
        (1, 1, 1, 64),
        (1, 1, 8, 512),
        (2, 2, 4, 512),
        (4, 1, 2, 128),
        (1, 1, 16, 1),
        (8, 2, 2, 4),
    ] {
        let config =
            SchedConfig::with_dimm_geometry(channels, ranks, banks, rows).expect("geometry");
        check_banks(&config);
        for index in (0..4 * config.total_rows()).chain([u32::MAX - 1, u32::MAX]) {
            check_index(&config, index);
        }
    }
}

#[test]
fn steering_matches_the_decode_when_the_fields_fill_the_index() {
    // Channel, rank, bank and row fields summing to 31 and 32 bits: the
    // top field ends at or next to the index's top bit, where a shift
    // computed one bit too wide would overflow.
    for (channels, ranks, banks, rows) in [(2, 2, 8, 1 << 26), (4, 4, 16, 1 << 24)] {
        let config =
            SchedConfig::with_dimm_geometry(channels, ranks, banks, rows).expect("geometry");
        check_banks(&config);
        let low = 0..1 << 16;
        let high = (u32::MAX - (1 << 16))..=u32::MAX;
        // A multiplicative stride visits every field value many times.
        let strided = (0..1u64 << 16).map(|i| (i.wrapping_mul(0x9E37_79B9) >> 3) as u32);
        for index in low.chain(high).chain(strided) {
            check_index(&config, index);
        }
    }
}
