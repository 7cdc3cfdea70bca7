//! Exact table-driven samplers for the trace generator.
//!
//! The generator turns uniform draws into integers through two closed
//! forms: the Poisson inter-arrival gap `ceil(-ln(u)·m).max(1)` and the
//! Zipf rank `floor(x(u)).clamp(1, n)`. Each is monotone in `u`, so the
//! integer it returns is fixed by which precomputed thresholds the draw
//! has passed. A sampler keeps the closed form verbatim as `exact` and
//! answers `sample` from a sorted table of those thresholds: the draw's
//! bucket gives the count up to the bucket's start, and at most two
//! comparisons finish it.
//!
//! The table only decides a draw when the draw is clear of every
//! threshold by a relative guard band ([`GUARD`]). Floating-point error
//! in `exact` (one `ln`/`powf`, a product, a rounding of the threshold
//! itself) is a few units in the last place, about 1e-15 relative; the
//! band is three orders of magnitude wider, so outside it `exact` must
//! land on the same side of each threshold as the table does. Inside the
//! band, in a bucket straddling more than two thresholds, past the end of
//! a table, or for parameters where the band cannot be argued (exponents
//! within 0.05 of 1, tables too large), `sample` calls `exact`.
//! `sample(u) == exact(u)` for every `u`; the table only skips the
//! transcendental call.

/// Relative half-width of the guard band around each threshold.
const GUARD: f64 = 1e-12;

/// Largest threshold count a sampler tables. Larger parameter sets
/// sample through `exact`.
const MAX_THRESHOLDS: usize = 8192;

/// Most buckets a table splits `[0, 1)` into (2-byte entries).
const MAX_BUCKETS: usize = 1 << 14;

/// Most thresholds one bucket may straddle; draws in denser buckets fall
/// back to `exact`.
const STEPS: usize = 2;

/// Bucket entry of a bucket straddling more than [`STEPS`] thresholds.
const DENSE: u16 = u16::MAX;

/// Gap thresholds cover `u ≥ exp(-GAP_TAIL)`, all but 1.8 % of draws;
/// below that most buckets are dense anyway.
const GAP_TAIL: f64 = 4.0;

/// Zipf exponents closer than this to 1 sample through `exact`: the band,
/// scaled by `1/|1-s|`, would swallow the table.
const MIN_EXPONENT_GAP: f64 = 0.05;

/// Thresholds sorted in increasing order of a key that rises with `u`,
/// and, per equal-width bucket of `u`, where the bucket's keys start in
/// that order.
///
/// The bucket count is a power of two, so `u · buckets` is exact and a
/// bucket is exactly `[b/B, (b+1)/B)`. Within one bucket the key can pass
/// at most [`STEPS`] thresholds, so a lookup is one bucket read, `STEPS`
/// independent comparisons and the guard test, with no data-dependent
/// branch on the common path.
#[derive(Clone)]
struct Table {
    /// `-f64::MAX`, the thresholds, then `STEPS` copies of `f64::MAX`.
    at: Vec<f64>,
    /// Index in `at` of the first entry above the bucket's lowest key,
    /// or [`DENSE`].
    start: Vec<u16>,
    buckets: f64,
    band: f64,
}

impl Table {
    /// Builds the table over `buckets` (a power of two) buckets; `key(u)`
    /// must be non-decreasing in `u`.
    fn new(
        thresholds: impl IntoIterator<Item = f64>,
        buckets: usize,
        band: f64,
        key: impl Fn(f64) -> f64,
    ) -> Table {
        debug_assert!(buckets.is_power_of_two() && buckets <= MAX_BUCKETS);
        let thresholds = thresholds.into_iter();
        let mut at = Vec::with_capacity(1 + thresholds.size_hint().0 + STEPS);
        at.push(-f64::MAX);
        at.extend(thresholds);
        debug_assert!(at.len() <= MAX_THRESHOLDS + 1);
        debug_assert!(at.windows(2).all(|w| w[0] <= w[1]));
        let above = |i: &mut usize, k: f64| {
            while *i < at.len() && at[*i] <= k {
                *i += 1;
            }
            *i
        };
        let (mut lo, mut hi) = (0, 0);
        let start = (0..buckets)
            .map(|b| {
                let first = above(&mut lo, key(b as f64 / buckets as f64));
                let last = above(&mut hi, key((b + 1) as f64 / buckets as f64));
                if last - first > STEPS {
                    DENSE
                } else {
                    first as u16
                }
            })
            .collect();
        at.extend([f64::MAX; STEPS]);
        Table {
            at,
            start,
            buckets: buckets as f64,
            band,
        }
    }

    /// Number of thresholds `≤ key`, where `key` was computed from
    /// `u ∈ [0, 1]`; `None` in a dense bucket or when `key` lies within
    /// the guard band of a neighbouring threshold.
    #[inline]
    fn count(&self, key: f64, u: f64) -> Option<usize> {
        let b = ((u * self.buckets) as usize).min(self.start.len() - 1);
        let first = self.start[b];
        if first == DENSE {
            return None;
        }
        let first = first as usize;
        let i = first + (self.at[first] <= key) as usize + (self.at[first + 1] <= key) as usize;
        let near = |t: f64| (key - t).abs() <= self.band * t.abs();
        if near(self.at[i - 1]) | near(self.at[i]) {
            return None;
        }
        Some(i - 1)
    }

    /// Number of thresholds (sentinels excluded).
    fn len(&self) -> usize {
        self.at.len() - 1 - STEPS
    }
}

/// Sizes instead of thousands of thresholds.
impl std::fmt::Debug for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Table")
            .field("thresholds", &self.len())
            .field("buckets", &self.start.len())
            .field("band", &self.band)
            .finish()
    }
}

/// The power-of-two bucket count for about `per_unit` buckets over `[0, 1)`.
fn bucket_count(per_unit: f64) -> usize {
    (per_unit.ceil().max(1.0) as usize)
        .min(MAX_BUCKETS)
        .next_power_of_two()
}

/// Poisson inter-arrival gap in cycles: `ceil(-ln(u)·mean_gap).max(1)`.
#[derive(Debug, Clone)]
pub(crate) struct GapSampler {
    mean_gap: f64,
    /// `exp(-g/mean_gap)` for `g = G, …, 1` (increasing).
    table: Table,
}

impl GapSampler {
    /// A sampler for a positive, finite mean gap.
    pub(crate) fn new(mean_gap: f64) -> GapSampler {
        let len = ((GAP_TAIL * mean_gap).ceil() as usize).clamp(1, MAX_THRESHOLDS);
        let at = (1..=len).rev().map(|g| (-(g as f64) / mean_gap).exp());
        // Near u = 1 the thresholds are 1/m apart: 16 buckets per gap.
        let buckets = bucket_count(16.0 * mean_gap);
        GapSampler {
            mean_gap,
            table: Table::new(at, buckets, GUARD, |u| u),
        }
    }

    /// The closed form.
    pub(crate) fn exact(&self, u: f64) -> u64 {
        (-u.ln() * self.mean_gap).ceil().max(1.0) as u64
    }

    /// Same value as [`GapSampler::exact`]. The gap is 1 plus the number
    /// of thresholds `exp(-g/m)` above `u`; a draw below the table's
    /// smallest threshold falls back.
    #[inline]
    pub(crate) fn sample(&self, u: f64) -> u64 {
        match self.table.count(u, u) {
            Some(below) if below > 0 => (self.table.len() - below) as u64 + 1,
            _ => self.exact(u),
        }
    }
}

/// Zipf rank over `{1, …, n}` with exponent `s > 0`, by the continuous
/// inverse CDF of `x^-s` on `[1, n+1)`.
#[derive(Debug, Clone)]
pub(crate) struct ZipfSampler {
    n: f64,
    shape: Shape,
    table: Option<Table>,
}

#[derive(Debug, Clone, Copy)]
enum Shape {
    /// `|s - 1| < 1e-9`: `x = (n+1)^u`.
    Log { hi: f64 },
    /// `x = (1 + u·c)^(1/e)` with `e = 1 - s`, `c = (n+1)^e - 1`.
    Power { c: f64, inv_e: f64, sign: f64 },
}

impl Shape {
    /// The table key of draw `u`: `u` itself (log shape) or
    /// `sign·(1 + u·c)` with `sign = ±1` the sign of `e`, so that the key
    /// rises with `u` for either sign of `e`.
    #[inline]
    fn key(self, u: f64) -> f64 {
        match self {
            Shape::Log { .. } => u,
            Shape::Power { c, sign, .. } => sign * (1.0 + u * c),
        }
    }
}

impl ZipfSampler {
    /// A sampler over `n ≥ 1` ranks with finite exponent `s > 0`.
    pub(crate) fn new(n: u32, s: f64) -> ZipfSampler {
        let hi = n as f64 + 1.0;
        let ranks = 2..=n;
        let fits = (n as usize) <= MAX_THRESHOLDS;
        let buckets = bucket_count(4.0 * n as f64);
        let (shape, table) = if (s - 1.0).abs() < 1e-9 {
            let shape = Shape::Log { hi };
            let ln_hi = hi.ln();
            let table = fits.then(|| {
                let at = ranks.map(|j| (j as f64).ln() / ln_hi);
                Table::new(at, buckets, GUARD, |u| shape.key(u))
            });
            (shape, table)
        } else {
            let e = 1.0 - s;
            let sign = e.signum();
            let shape = Shape::Power {
                c: hi.powf(e) - 1.0,
                inv_e: 1.0 / e,
                sign,
            };
            let table = (fits && e.abs() >= MIN_EXPONENT_GAP).then(|| {
                let band = GUARD * e.abs().max(1.0 / e.abs());
                let at = ranks.map(|j| sign * (j as f64).powf(e));
                Table::new(at, buckets, band, |u| shape.key(u))
            });
            (shape, table)
        };
        ZipfSampler {
            n: n as f64,
            shape,
            table,
        }
    }

    /// The closed form.
    pub(crate) fn exact(&self, u: f64) -> u32 {
        let x = match self.shape {
            Shape::Log { hi } => hi.powf(u),
            Shape::Power { c, inv_e, .. } => (1.0 + u * c).powf(inv_e),
        };
        x.floor().clamp(1.0, self.n) as u32
    }

    /// Same value as [`ZipfSampler::exact`]. Rank `j ≥ 2` is passed when
    /// `x ≥ j`, i.e. `u ≥ ln j / ln(n+1)` (log shape) or
    /// `sign·y ≥ sign·j^e` with `y = 1 + u·c` (power shape); the rank is
    /// 1 plus the number of passed thresholds.
    #[inline]
    pub(crate) fn sample(&self, u: f64) -> u32 {
        let Some(table) = &self.table else {
            return self.exact(u);
        };
        match table.count(self.shape.key(u), u) {
            Some(passed) => passed as u32 + 1,
            None => self.exact(u),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{AccessPattern, Workload, WorkloadSpec, CYCLES_PER_US};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `x` moved by `k` units in the last place (`k < 0` moves down).
    fn ulps(x: f64, k: i64) -> f64 {
        f64::from_bits((x.to_bits() as i64 + k) as u64)
    }

    /// Draws at, and 1–4 ULPs either side of, each point.
    fn around(points: impl IntoIterator<Item = f64>) -> Vec<f64> {
        points
            .into_iter()
            .filter(|p| *p > 0.0 && *p < 1.0)
            .flat_map(|p| (-4..=4).map(move |k| ulps(p, k)))
            .collect()
    }

    /// Random draws plus the extremes.
    fn draws(seed: u64, count: usize) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut v: Vec<f64> = (0..count).map(|_| rng.gen()).collect();
        v.extend([0.0, 1e-300, 1e-12, 0.5, ulps(1.0, -1), ulps(1.0, -2)]);
        v
    }

    fn assert_gap_exact(g: &GapSampler, us: &[f64]) {
        for &u in us {
            assert_eq!(g.sample(u), g.exact(u), "gap m={} u={u:e}", g.mean_gap);
        }
    }

    fn assert_zipf_exact(z: &ZipfSampler, us: &[f64]) {
        for &u in us {
            assert_eq!(z.sample(u), z.exact(u), "zipf {:?} u={u:e}", z.shape);
        }
    }

    /// The draws that land on the Zipf thresholds: `x(u) = j`.
    fn zipf_threshold_draws(n: u32, s: f64) -> Vec<f64> {
        let hi = n as f64 + 1.0;
        around((2..=n + 1).map(|j| {
            let j = j as f64;
            if (s - 1.0).abs() < 1e-9 {
                j.ln() / hi.ln()
            } else {
                let e = 1.0 - s;
                (j.powf(e) - 1.0) / (hi.powf(e) - 1.0)
            }
        }))
    }

    const MEAN_GAPS: [f64; 6] = [0.1, 1.0, 125.0, 1000.0 / 3.0, 1250.0, 1e6];

    #[test]
    fn gap_matches_exact_at_thresholds() {
        for m in MEAN_GAPS {
            let g = GapSampler::new(m);
            let points = (1..=g.table.len() + 2).map(|k| (-(k as f64) / m).exp());
            assert_gap_exact(&g, &around(points));
        }
    }

    #[test]
    fn gap_matches_exact_on_random_and_extreme_draws() {
        for (seed, m) in MEAN_GAPS.into_iter().enumerate() {
            let g = GapSampler::new(m);
            assert_gap_exact(&g, &draws(seed as u64, 100_000));
            // The extremes of the generator's `gen_range(1e-12..1.0)`.
            assert_gap_exact(&g, &[1e-12, 1.0, 1e-12 + ulps(1.0, -1) * (1.0 - 1e-12)]);
        }
    }

    #[test]
    fn gap_table_stays_small() {
        for m in [1e9, 1e300] {
            let g = GapSampler::new(m);
            assert_eq!(g.table.len(), MAX_THRESHOLDS);
            assert_eq!(g.table.start.len(), MAX_BUCKETS);
            assert_gap_exact(&g, &draws(6, 1_000));
        }
    }

    #[test]
    fn zipf_matches_exact_at_thresholds_for_every_shape() {
        // Log branch, both signs of e, small and large footprints.
        for s in [0.3, 0.5, 0.8, 0.9, 1.0, 1.1, 1.2, 2.0, 3.5] {
            for n in [2, 3, 17, 256, 1000, 7782] {
                let z = ZipfSampler::new(n, s);
                assert!(z.table.is_some(), "s={s} n={n} should be tabled");
                if s > 1.0 {
                    assert!(matches!(z.shape, Shape::Power { sign, .. } if sign < 0.0));
                }
                assert_zipf_exact(&z, &zipf_threshold_draws(n, s));
            }
        }
    }

    #[test]
    fn zipf_matches_exact_on_random_and_extreme_draws() {
        for (seed, s) in [0.3, 0.6, 0.9, 1.0, 1.1, 1.2, 2.5].into_iter().enumerate() {
            for n in [1, 2, 819, 8192] {
                assert_zipf_exact(&ZipfSampler::new(n, s), &draws(seed as u64, 50_000));
            }
        }
    }

    #[test]
    fn zipf_near_one_exponents_fall_back_or_take_the_log_branch() {
        let eps = 1e-12;
        let cases = [
            (1.0 + 1e-9 - eps, true),  // |s-1| < 1e-9: log branch, tabled
            (1.0 - 1e-9 + eps, true),  // log branch, tabled
            (1.0 + 1e-9 + eps, false), // power branch, e ≈ -1e-9: exact
            (1.0 - 1e-9 - eps, false), // power branch, e ≈ 1e-9: exact
            (1.0 + 1e-6, false),
            (1.0 - 1e-6, false),
            (1.0 + 0.049, false),
            (1.0 - 0.049, false),
        ];
        for (s, tabled) in cases {
            for n in [2, 512, 8192] {
                let z = ZipfSampler::new(n, s);
                assert_eq!(z.table.is_some(), tabled, "s={s}");
                assert_eq!(matches!(z.shape, Shape::Log { .. }), (s - 1.0).abs() < 1e-9);
                assert_zipf_exact(&z, &draws(n as u64, 20_000));
                assert_zipf_exact(&z, &zipf_threshold_draws(n.min(512), s));
            }
        }
    }

    #[test]
    fn footprint_of_one_row_is_always_rank_one() {
        for s in [0.3, 1.0, 1.2] {
            let z = ZipfSampler::new(1, s);
            for u in draws(3, 1_000) {
                assert_eq!(z.sample(u), 1);
                assert_eq!(z.exact(u), 1);
            }
        }
    }

    /// Share of `draws` for which `decides` holds.
    fn share(draws: &[f64], decides: impl Fn(f64) -> bool) -> f64 {
        draws.iter().filter(|&&u| decides(u)).count() as f64 / draws.len() as f64
    }

    /// The tables must pay for themselves on the presets at the paper's
    /// 8192-row bank: a table that mostly falls back to `exact` is a
    /// silent slowdown.
    #[test]
    fn tables_decide_almost_every_preset_draw() {
        let us = draws(5, 200_000);
        for spec in WorkloadSpec::all_parsec() {
            let g = GapSampler::new(CYCLES_PER_US / spec.accesses_per_us);
            let gap = share(
                &us,
                |u| matches!(g.table.count(u, u), Some(below) if below > 0),
            );
            assert!(gap > 0.95, "{} gap: {gap}", spec.name);
            if let AccessPattern::Zipf(s) = spec.pattern {
                let n = Workload::new(spec.clone(), 8192, 0).footprint_rows();
                let z = ZipfSampler::new(n, s);
                let table = z.table.as_ref().expect("tabled");
                let zipf = share(&us, |u| table.count(z.shape.key(u), u).is_some());
                assert!(zipf > 0.95, "{} rank: {zipf}", spec.name);
            }
        }
    }

    #[test]
    fn oversized_footprints_sample_exactly() {
        let z = ZipfSampler::new(MAX_THRESHOLDS as u32 + 1, 0.8);
        assert!(z.table.is_none());
        assert_zipf_exact(&z, &draws(4, 1_000));
    }
}
