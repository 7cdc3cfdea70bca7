//! Exact sparse LU for the MNA system.
//!
//! [`SparseSystem`] holds one Newton iteration's linear system `A x = z`
//! in dense-addressed storage (`a[row * n + col]`, which is cheap at
//! these sizes) together with its structural pattern: every slot ever
//! stamped. Assembly stamps into it and [`SparseSystem::solve`] factors
//! and solves it. The allocation is reused across iterations.
//!
//! # Bit-identical to the dense routine
//!
//! The factorization makes exactly the pivot choices and floating-point
//! operations of [`lu_factorize`](crate::linalg::lu_factorize), minus the
//! operations that involve a structural zero:
//!
//! * every entry receives the same updates, in the same ascending-step
//!   order, and substitution sums each row over ascending columns;
//! * a skipped update subtracts `±0` from a value that is nonzero or
//!   `+0`, which leaves its bits unchanged. No `-0` arises: entries start
//!   at `+0`, stamps only add, and `x − y` is `-0` only when `x` is;
//! * a structural zero never wins a pivot search, which is the dense
//!   rule: the row at position `k`, then strict `>` in ascending position,
//!   then the `1e-300` singular test.
//!
//! The argument needs finite values: `0 · ∞` is not zero. A factorization
//! that meets a singular pivot or a non-finite pivot or solution is redone
//! with every slot structural, which is the dense routine step for step.
//!
//! # Plan and replay
//!
//! The first factorization is a planning pass: it eliminates dynamically
//! and records, for each step `k`, the candidate rows below `k` that hold
//! a structural entry in column `k`, the chosen pivot row, the rows it
//! eliminates (L) and the pivot row's columns (U). Rows are permuted
//! logically, never moved. Fill is structural: each step adds every
//! (L row × U column) slot whatever its multiplier's value, so a plan
//! recorded in one Newton iteration covers the later ones. Later
//! factorizations replay the plan, recomputing each pivot with the dense
//! rule; if a pivot differs from the recorded one, or assembly stamped a
//! slot outside the pattern, a fresh planning pass starts from the saved
//! assembled values.

use crate::linalg::{Singular, MIN_PIVOT};

/// A reusable square system `A x = z` with an exact sparse LU.
#[derive(Debug, Clone)]
pub struct SparseSystem {
    n: usize,
    /// Assembled matrix, row-major; `+0` outside `stamped`.
    a: Vec<f64>,
    /// Assembled right-hand side.
    z: Vec<f64>,
    /// Slots ever stamped, as flags and as a list.
    stamped: Vec<bool>,
    stamped_slots: Vec<usize>,
    /// A stamp landed outside the plan's pattern since it was recorded.
    stale: bool,
    /// Factorization workspace, addressed like `a`.
    lu: Vec<f64>,
    /// Solution of the last solve.
    x: Vec<f64>,
    plan: Option<Plan>,
}

/// A recorded elimination: the pivot sequence and the pattern it implies.
#[derive(Debug, Clone)]
struct Plan {
    steps: Vec<Step>,
    /// Every step's candidate rows, L rows and U columns, concatenated.
    idx: Vec<usize>,
    /// Physical row at each final position.
    perm: Vec<usize>,
    /// Structural slots (stamped and fill), reloaded before a replay.
    slots: Vec<usize>,
    /// L columns of each final position, ascending: `l_cols[l_ptr[i]..l_ptr[i + 1]]`.
    l_ptr: Vec<usize>,
    l_cols: Vec<usize>,
}

/// One elimination step. `idx[cand..l]` are the candidate rows (ascending
/// position, before the swap), `idx[l..u]` the L rows and `idx[u..end]`
/// the pivot row's U columns (ascending).
#[derive(Debug, Clone, Copy)]
struct Step {
    /// Physical row at position `k` before the swap.
    diag: usize,
    /// Physical pivot row.
    pivot: usize,
    cand: usize,
    l: usize,
    u: usize,
    end: usize,
}

/// Why a replay stopped.
enum ReplayFailure {
    /// No plan, a stale one, or a pivot other than the recorded one.
    Diverged,
    /// A pivot below `1e-300`.
    Singular,
}

impl SparseSystem {
    /// Creates an `n × n` all-zero system.
    pub fn new(n: usize) -> Self {
        SparseSystem {
            n,
            a: vec![0.0; n * n],
            z: vec![0.0; n],
            stamped: vec![false; n * n],
            stamped_slots: Vec::new(),
            stale: false,
            lu: vec![0.0; n * n],
            x: vec![0.0; n],
            plan: None,
        }
    }

    /// Dimension of the system.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Resets `A` and `z` to zero, keeping the pattern and the plan.
    pub fn clear(&mut self) {
        for &s in &self.stamped_slots {
            self.a[s] = 0.0;
        }
        self.z.fill(0.0);
    }

    /// Adds `value` to `A[row][col]` (the MNA "stamp" primitive).
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    #[inline]
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        assert!(col < self.n, "column out of bounds");
        let s = row * self.n + col;
        self.a[s] += value;
        if !self.stamped[s] {
            self.stamped[s] = true;
            self.stamped_slots.push(s);
            self.stale = true;
        }
    }

    /// The right-hand side `z`, for stamping.
    #[inline]
    pub fn rhs_mut(&mut self) -> &mut [f64] {
        &mut self.z
    }

    /// Factors `A` and solves `A x = z`, bit-identical to
    /// [`lu_factorize`](crate::linalg::lu_factorize) followed by
    /// [`LuFactors::solve_in_place`](crate::linalg::LuFactors::solve_in_place).
    ///
    /// # Errors
    ///
    /// [`Singular`] at the step where the dense routine fails.
    pub fn solve(&mut self) -> Result<&[f64], Singular> {
        let factored = match self.replay() {
            Ok(()) => true,
            Err(ReplayFailure::Diverged) => self.plan(false).is_ok(),
            Err(ReplayFailure::Singular) => false,
        };
        if factored {
            self.substitute();
            if self.is_finite() {
                return Ok(&self.x);
            }
        }
        // Singular or non-finite: every slot structural is the dense
        // routine itself. Drop that plan so the next solve plans sparsely.
        let dense = self.plan(true);
        if dense.is_ok() {
            self.substitute();
        }
        self.plan = None;
        dense.map(|()| self.x.as_slice())
    }

    /// Replays the recorded plan on freshly assembled values.
    fn replay(&mut self) -> Result<(), ReplayFailure> {
        let n = self.n;
        let plan = match &self.plan {
            Some(plan) if !self.stale => plan,
            _ => return Err(ReplayFailure::Diverged),
        };
        for &s in &plan.slots {
            self.lu[s] = self.a[s];
        }
        for (k, step) in plan.steps.iter().enumerate() {
            let cands = &plan.idx[step.cand..step.l];
            match pick_pivot(&self.lu, n, k, step.diag, cands) {
                None => return Err(ReplayFailure::Singular),
                Some(p) if p != step.pivot => return Err(ReplayFailure::Diverged),
                Some(_) => eliminate(&mut self.lu, n, k, step, &plan.idx),
            }
        }
        Ok(())
    }

    /// The planning pass: factors dynamically and records the plan. With
    /// `all`, every slot is structural from the start.
    fn plan(&mut self, all: bool) -> Result<(), Singular> {
        let n = self.n;
        self.plan = None;
        self.stale = false;
        self.lu.copy_from_slice(&self.a);
        let mut structural = if all {
            vec![true; n * n]
        } else {
            self.stamped.clone()
        };
        let mut perm: Vec<usize> = (0..n).collect();
        let mut pos: Vec<usize> = (0..n).collect();
        let mut steps = Vec::with_capacity(n);
        let mut idx = Vec::new();
        for k in 0..n {
            // Rows below position k with a structural entry in column k,
            // in ascending position.
            let below = |perm: &[usize], structural: &[bool]| {
                perm[k + 1..]
                    .iter()
                    .copied()
                    .filter(|&r| structural[r * n + k])
                    .collect::<Vec<_>>()
            };
            let diag = perm[k];
            let cand = idx.len();
            idx.extend(below(&perm, &structural));
            let pivot =
                pick_pivot(&self.lu, n, k, diag, &idx[cand..]).ok_or(Singular { step: k })?;
            let p = pos[pivot];
            perm.swap(k, p);
            pos[perm[k]] = k;
            pos[perm[p]] = p;
            let l = idx.len();
            idx.extend(below(&perm, &structural));
            let u = idx.len();
            idx.extend((k + 1..n).filter(|&j| structural[pivot * n + j]));
            let step = Step {
                diag,
                pivot,
                cand,
                l,
                u,
                end: idx.len(),
            };
            for &r in &idx[l..u] {
                for &j in &idx[u..] {
                    structural[r * n + j] = true;
                }
            }
            eliminate(&mut self.lu, n, k, &step, &idx);
            steps.push(step);
        }
        let mut l_ptr = Vec::with_capacity(n + 1);
        let mut l_cols = Vec::new();
        l_ptr.push(0);
        for (i, &r) in perm.iter().enumerate() {
            l_cols.extend((0..i).filter(|&j| structural[r * n + j]));
            l_ptr.push(l_cols.len());
        }
        let slots = (0..n * n).filter(|&s| structural[s]).collect();
        self.plan = Some(Plan {
            steps,
            idx,
            perm,
            slots,
            l_ptr,
            l_cols,
        });
        Ok(())
    }

    /// Forward and back substitution into `x`, each row summed over its
    /// structural columns in ascending order.
    fn substitute(&mut self) {
        let n = self.n;
        let plan = self
            .plan
            .as_ref()
            .expect("substitution follows a factorization");
        let (lu, x) = (&self.lu, &mut self.x);
        for (xi, &r) in x.iter_mut().zip(&plan.perm) {
            *xi = self.z[r];
        }
        for (i, &r) in plan.perm.iter().enumerate() {
            let row = &lu[r * n..(r + 1) * n];
            let mut s = x[i];
            for &j in &plan.l_cols[plan.l_ptr[i]..plan.l_ptr[i + 1]] {
                s -= row[j] * x[j];
            }
            x[i] = s;
        }
        for (i, step) in plan.steps.iter().enumerate().rev() {
            let row = &lu[step.pivot * n..(step.pivot + 1) * n];
            let mut s = x[i];
            for &j in &plan.idx[step.u..step.end] {
                s -= row[j] * x[j];
            }
            x[i] = s / row[i];
        }
    }

    /// Every pivot and every solution component is finite.
    fn is_finite(&self) -> bool {
        let plan = self.plan.as_ref().expect("checked after a factorization");
        let pivot = |(k, step): (usize, &Step)| self.lu[step.pivot * self.n + k];
        plan.steps.iter().enumerate().map(pivot).all(f64::is_finite)
            && self.x.iter().all(|v| v.is_finite())
    }
}

/// The dense pivot rule over the structural candidates of column `k`:
/// start from `diag` (the row at position `k`), take a candidate only if
/// strictly larger in magnitude, and fail below `1e-300`. Returns the
/// physical pivot row.
#[inline]
fn pick_pivot(lu: &[f64], n: usize, k: usize, diag: usize, cands: &[usize]) -> Option<usize> {
    let mut pivot = diag;
    let mut max = lu[diag * n + k].abs();
    for &r in cands {
        let v = lu[r * n + k].abs();
        if v > max {
            max = v;
            pivot = r;
        }
    }
    // Written as the dense routine writes it, so a NaN pivot passes.
    if max < MIN_PIVOT {
        None
    } else {
        Some(pivot)
    }
}

/// Eliminates column `k` below the pivot: the dense routine's update,
/// restricted to the step's L rows and U columns.
#[inline]
fn eliminate(lu: &mut [f64], n: usize, k: usize, step: &Step, idx: &[usize]) {
    let prow = step.pivot * n;
    let pivot = lu[prow + k];
    let u_cols = &idx[step.u..step.end];
    for &r in &idx[step.l..step.u] {
        let row = r * n;
        let m = lu[row + k] / pivot;
        lu[row + k] = m;
        if m != 0.0 {
            for &j in u_cols {
                lu[row + j] -= m * lu[prow + j];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::{lu_factorize, Matrix};

    /// One assembled system: stamps `(row, col, value)` in stamping order,
    /// then the right-hand side.
    struct Case {
        n: usize,
        stamps: Vec<(usize, usize, f64)>,
        rhs: Vec<f64>,
    }

    impl Case {
        fn new(n: usize, stamps: &[(usize, usize, f64)], rhs: &[f64]) -> Self {
            Case {
                n,
                stamps: stamps.to_vec(),
                rhs: rhs.to_vec(),
            }
        }

        /// The dense oracle: stamp into a `Matrix`, `lu_factorize`, solve.
        fn dense(&self) -> Result<Vec<f64>, Singular> {
            let mut m = Matrix::zeros(self.n);
            for &(i, j, v) in &self.stamps {
                m.add(i, j, v);
            }
            let f = lu_factorize(m)?;
            let mut b = vec![0.0; self.n];
            for (bi, &v) in b.iter_mut().zip(&self.rhs) {
                *bi += v;
            }
            f.solve_in_place(&mut b);
            Ok(b)
        }

        /// Clears `sys`, stamps this case into it and solves.
        fn sparse(&self, sys: &mut SparseSystem) -> Result<Vec<f64>, Singular> {
            sys.clear();
            for &(i, j, v) in &self.stamps {
                sys.add(i, j, v);
            }
            for (zi, &v) in sys.rhs_mut().iter_mut().zip(&self.rhs) {
                *zi += v;
            }
            sys.solve().map(<[f64]>::to_vec)
        }

        /// Solves with `sys` and asserts the dense oracle's result, bit
        /// for bit (or the same singular step).
        fn check(&self, sys: &mut SparseSystem) {
            let bits = |r: Result<Vec<f64>, Singular>| {
                r.map(|x| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>())
            };
            assert_eq!(bits(self.sparse(sys)), bits(self.dense()));
        }
    }

    /// xorshift64*: a small deterministic generator for the random cases.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// A magnitude over twelve decades with a non-representable
        /// mantissa, so the pivot order shows in the rounding.
        fn magnitude(&mut self) -> f64 {
            let decade = 10f64.powi(self.below(13) as i32 - 9);
            decade * (0.5 + (self.next() >> 11) as f64 / (1u64 << 53) as f64)
        }

        fn signed(&mut self) -> f64 {
            let m = self.magnitude();
            if self.below(2) == 0 {
                m
            } else {
                -m
            }
        }
    }

    /// An MNA-shaped system: GMIN on the node diagonal, two-terminal
    /// conductances, transconductances and voltage-source branch rows.
    /// `structure` fixes which slots are stamped and in what order;
    /// `values` draws the stamped values, so two cases with the same
    /// structure seed are successive Newton iterations of one circuit.
    fn mna_case(structure: u64, values: u64) -> Case {
        let mut s = Rng(structure | 1);
        let mut v = Rng(values | 1);
        let nodes = 1 + s.below(24);
        let sources = s.below(4);
        let n = nodes + sources;
        // Terminal 0 is ground, which has no unknown.
        let unk = |t: usize| t.checked_sub(1);
        let mut stamps: Vec<(usize, usize, f64)> = (0..nodes).map(|i| (i, i, 1e-12)).collect();
        let conductance = |stamps: &mut Vec<_>, a: usize, b: usize, g: f64| {
            for (p, q) in [(a, b), (b, a)] {
                if let Some(i) = unk(p) {
                    stamps.push((i, i, g));
                    if let Some(j) = unk(q) {
                        stamps.push((i, j, -g));
                    }
                }
            }
        };
        for _ in 0..2 * nodes {
            let (a, b) = (s.below(nodes + 1), s.below(nodes + 1));
            conductance(&mut stamps, a, b, v.magnitude());
        }
        for _ in 0..nodes / 2 {
            let (d, g, src) = (s.below(nodes + 1), s.below(nodes + 1), s.below(nodes + 1));
            let gm = v.magnitude();
            conductance(&mut stamps, d, src, v.magnitude());
            for (row, col, value) in [(d, g, gm), (d, src, -gm), (src, g, -gm), (src, src, gm)] {
                if let (Some(i), Some(j)) = (unk(row), unk(col)) {
                    stamps.push((i, j, value));
                }
            }
        }
        for k in 0..sources {
            let row = nodes + k;
            for (t, sign) in [(s.below(nodes + 1), 1.0), (s.below(nodes + 1), -1.0)] {
                if let Some(i) = unk(t) {
                    stamps.push((i, row, sign));
                    stamps.push((row, i, sign));
                }
            }
        }
        let rhs = (0..n).map(|_| v.signed()).collect();
        Case { n, stamps, rhs }
    }

    #[test]
    fn random_mna_systems_match_the_dense_oracle() {
        for structure in 0..300 {
            let mut sys = SparseSystem::new(mna_case(structure, 0).n);
            // Successive Newton iterations: one pattern, fresh values.
            for values in 0..8 {
                mna_case(structure, values).check(&mut sys);
            }
        }
    }

    #[test]
    fn zero_diagonals_force_swaps() {
        // A voltage source between node 0 and ground: the branch row has
        // no diagonal, and neither does a node fed only by the source.
        let case = Case::new(
            3,
            &[
                (1, 1, 0.1),
                (1, 0, -0.1),
                (0, 1, -0.1),
                (0, 2, 1.0),
                (2, 0, 1.0),
            ],
            &[0.0, 0.3, 1.7],
        );
        let mut sys = SparseSystem::new(3);
        case.check(&mut sys);
        let perm = &sys.plan.as_ref().expect("planned").perm;
        assert_ne!(perm, &[0, 1, 2], "a swap was needed");

        // Anti-diagonal: every step swaps.
        let case = Case::new(
            4,
            &[(0, 3, 0.3), (1, 2, -0.7), (2, 1, 1.1), (3, 0, 1.3)],
            &[1.0, 2.0, 3.0, 4.0],
        );
        case.check(&mut SparseSystem::new(4));
    }

    #[test]
    fn tied_pivots_keep_the_dense_choice() {
        // Column 0 ties in magnitude three ways: the row in place wins.
        let in_place = Case::new(
            3,
            &[
                (0, 0, 0.3),
                (0, 1, 0.7),
                (1, 0, -0.3),
                (1, 1, 0.1),
                (1, 2, 0.9),
                (2, 0, 0.3),
                (2, 2, 0.11),
            ],
            &[0.1, 0.2, 0.3],
        );
        in_place.check(&mut SparseSystem::new(3));
        // A smaller diagonal and two tied rows below: the first wins.
        let first_below = Case::new(
            3,
            &[
                (0, 0, 0.1),
                (0, 2, 0.7),
                (1, 0, -0.3),
                (1, 1, 0.13),
                (2, 0, 0.3),
                (2, 1, 0.9),
                (2, 2, 0.17),
            ],
            &[0.1, 0.2, 0.3],
        );
        let mut sys = SparseSystem::new(3);
        first_below.check(&mut sys);
        assert_eq!(sys.plan.as_ref().expect("planned").perm[0], 1);
    }

    #[test]
    fn singular_systems_fail_at_the_dense_step() {
        let cases = [
            // Dependent rows: step 1 finds nothing.
            Case::new(
                2,
                &[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 2.0), (1, 1, 4.0)],
                &[1.0, 1.0],
            ),
            // An empty column in the middle.
            Case::new(3, &[(0, 0, 1.0), (1, 2, 1.0), (2, 2, 1.0)], &[1.0; 3]),
            // A floating node: its row and column are never stamped.
            Case::new(3, &[(0, 0, 1.0), (2, 2, 1.0), (0, 2, 0.5)], &[1.0; 3]),
            // Tiny but nonzero pivots count as singular too.
            Case::new(2, &[(0, 0, 1e-301), (1, 1, 1.0)], &[1.0; 2]),
        ];
        for case in &cases {
            assert!(case.dense().is_err());
            case.check(&mut SparseSystem::new(case.n));
        }
        // A system that is singular once stays solvable with new values.
        let mut sys = SparseSystem::new(2);
        cases[0].check(&mut sys);
        Case::new(
            2,
            &[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 2.0), (1, 1, 4.5)],
            &[1.0, 1.0],
        )
        .check(&mut sys);
    }

    #[test]
    fn empty_and_scalar_systems() {
        Case::new(0, &[], &[]).check(&mut SparseSystem::new(0));
        assert_eq!(SparseSystem::new(0).solve(), Ok(&[][..]));
        Case::new(1, &[(0, 0, 2.0)], &[6.0]).check(&mut SparseSystem::new(1));
        Case::new(1, &[(0, 0, 0.0)], &[6.0]).check(&mut SparseSystem::new(1));
        Case::new(1, &[], &[6.0]).check(&mut SparseSystem::new(1));
    }

    #[test]
    fn a_changed_pivot_order_replans() {
        let pattern = |a: f64, b: f64| {
            Case::new(
                3,
                &[
                    (0, 0, a),
                    (0, 1, 0.3),
                    (1, 0, b),
                    (1, 1, 0.7),
                    (1, 2, 0.2),
                    (2, 1, 0.1),
                    (2, 2, 1.3),
                ],
                &[0.5, 0.25, 0.125],
            )
        };
        let mut sys = SparseSystem::new(3);
        pattern(2.0, 0.1).check(&mut sys);
        let before = sys.plan.as_ref().expect("planned").perm.clone();
        // Same pattern, but row 1 now wins column 0.
        pattern(0.1, 2.0).check(&mut sys);
        let after = sys.plan.as_ref().expect("replanned").perm.clone();
        assert_ne!(before, after);
        // And back again.
        pattern(2.0, 0.1).check(&mut sys);
        assert_eq!(sys.plan.as_ref().expect("replanned").perm, before);
    }

    #[test]
    fn stamping_a_new_slot_replans() {
        let base = [(0, 0, 2.0), (1, 1, 3.0), (2, 2, 5.0), (2, 0, 0.7)];
        let mut sys = SparseSystem::new(3);
        Case::new(3, &base, &[1.0, 2.0, 3.0]).check(&mut sys);
        let slots = sys.plan.as_ref().expect("planned").slots.len();
        let mut grown = base.to_vec();
        grown.push((0, 1, 0.9));
        Case::new(3, &grown, &[1.0, 2.0, 3.0]).check(&mut sys);
        assert!(sys.plan.as_ref().expect("replanned").slots.len() > slots);
        // The grown pattern still covers the original stamps.
        Case::new(3, &base, &[1.0, 2.0, 3.0]).check(&mut sys);
    }

    #[test]
    fn fill_recorded_under_a_zero_multiplier_covers_later_values() {
        // (1, 0) is stamped with +0 in the first iteration, so its
        // multiplier is zero and no update happens; the fill at (1, 2)
        // must still be in the plan for the second iteration.
        let case = |l: f64| {
            Case::new(
                3,
                &[
                    (0, 0, 4.0),
                    (0, 2, 0.3),
                    (1, 0, l),
                    (1, 1, 2.0),
                    (2, 1, 0.7),
                    (2, 2, 3.0),
                ],
                &[0.1, 0.7, 0.3],
            )
        };
        let mut sys = SparseSystem::new(3);
        case(0.0).check(&mut sys);
        case(0.9).check(&mut sys);
    }

    #[test]
    fn non_finite_values_follow_the_dense_routine() {
        let mut sys = SparseSystem::new(3);
        let stamps = |x: f64| [(0, 0, 1.0), (1, 1, x), (2, 2, 3.0), (2, 0, 0.5)];
        for x in [f64::INFINITY, f64::NAN, f64::MAX] {
            Case::new(3, &stamps(x), &[1.0, 2.0, 3.0]).check(&mut sys);
            Case::new(3, &stamps(2.0), &[1.0, x, 3.0]).check(&mut sys);
        }
        // Back to finite values after a dense fallback.
        Case::new(3, &stamps(2.0), &[1.0, 2.0, 3.0]).check(&mut sys);
    }
}
