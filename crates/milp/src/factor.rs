//! Pluggable basis factorizations for the revised simplex.
//!
//! The revised simplex needs four linear-algebra primitives against the
//! current basis matrix `B`: `ftran` (`B⁻¹a`), `btran` (`cᵀB⁻¹`), pivot
//! row extraction (`eᵣᵀB⁻¹`, the dual simplex's working row), and a
//! rank-1 post-pivot update. The [`Factorization`] trait abstracts them
//! so the solver can swap representations:
//!
//! * [`DenseEta`] — an explicit dense `B⁻¹` with product-form updates
//!   and periodic Gauss–Jordan refactorization. `O(m²)` memory, `O(m³)`
//!   refactorization; kept as the reference implementation.
//! * [`SparseLu`] — a left-looking sparse LU (Gilbert–Peierls shape)
//!   with partial pivoting and a **bounded eta file**: the factors stay
//!   fixed after a refresh and each pivot appends one sparse eta matrix
//!   (`B_k⁻¹ = E_k…E_1·B_0⁻¹`), so solves cost factor-plus-eta nonzeros
//!   instead of `m²` and refactorization costs `O(m·nnz)` instead of
//!   `O(m³)`. This is the default and what keeps the `N ≥ 64` ring
//!   models tractable.
//!
//! Both implementations answer the same queries to within roundoff; the
//! seeded differential suites pin dense/revised/LU agreement at `1e-6`.

use crate::simplex::EPS;
use std::fmt;
use std::str::FromStr;

/// Minimum acceptable pivot magnitude during (re)factorization.
const SINGULAR_TOL: f64 = 1e-10;

/// Which basis factorization backs the revised simplex.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FactorizationKind {
    /// Dense `B⁻¹` with product-form updates (reference).
    DenseEta,
    /// Sparse LU with a bounded eta file (default).
    #[default]
    SparseLu,
}

impl FactorizationKind {
    /// Every kind, in declaration order.
    pub const ALL: [FactorizationKind; 2] =
        [FactorizationKind::DenseEta, FactorizationKind::SparseLu];

    /// Stable lowercase name, also accepted by [`FromStr`].
    pub fn as_str(self) -> &'static str {
        match self {
            FactorizationKind::DenseEta => "dense-eta",
            FactorizationKind::SparseLu => "sparse-lu",
        }
    }

    /// Builds a fresh factorization of this kind for an `m`-row basis,
    /// initialized to the identity (the all-logical basis).
    pub fn build(self, m: usize) -> Box<dyn Factorization> {
        match self {
            FactorizationKind::DenseEta => Box::new(DenseEta::identity(m)),
            FactorizationKind::SparseLu => Box::new(SparseLu::identity(m)),
        }
    }
}

impl fmt::Display for FactorizationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for FactorizationKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "dense-eta" => Ok(FactorizationKind::DenseEta),
            "sparse-lu" => Ok(FactorizationKind::SparseLu),
            other => Err(format!(
                "unknown factorization {other:?} (expected dense-eta|sparse-lu)"
            )),
        }
    }
}

/// Read-only view of the scaled constraint columns a factorization needs
/// to (re)factorize a basis. Structural variables `j < n` use `cols[j]`;
/// logical variable `n + i` is the unit column `eᵢ`.
pub struct FactorCtx<'a> {
    /// Structural variable count.
    pub n: usize,
    /// Row (and basis) count.
    pub m: usize,
    /// Scaled sparse structural columns, `(row, coefficient)` pairs
    /// (duplicate rows allowed; they accumulate).
    pub cols: &'a [Vec<(usize, f64)>],
}

impl FactorCtx<'_> {
    /// Visits the scaled column of variable `j` (structural or logical).
    fn visit_col(&self, j: usize, f: &mut dyn FnMut(usize, f64)) {
        if j < self.n {
            for &(row, c) in &self.cols[j] {
                f(row, c);
            }
        } else {
            f(j - self.n, 1.0);
        }
    }
}

/// A basis factorization: the linear-algebra kernel behind the revised
/// simplex. All vectors are length `m`; `ftran` results are indexed by
/// basis position, `btran` results by constraint row.
///
/// The solves write their `m`-vector result into a caller-owned `out`
/// buffer (cleared first), so a simplex iteration reuses its `y`, `ρ`
/// and `α` vectors instead of allocating them; they take `&mut self`
/// for the factorization's own scratch space.
pub trait Factorization: fmt::Debug + Send {
    /// Stable lowercase name ("dense-eta", "sparse-lu").
    fn name(&self) -> &'static str;

    /// Resets to the identity basis (all logicals basic) of size `m`.
    fn reset_identity(&mut self, m: usize);

    /// Refactorizes from scratch for the basis `basic` (variable index
    /// per basis position). Returns `false` on a numerically singular
    /// basis, leaving the previous factorization intact.
    fn refresh(&mut self, ctx: &FactorCtx<'_>, basic: &[usize]) -> bool;

    /// `B⁻¹·a` for a sparse column `a` (duplicate rows accumulate).
    fn ftran_sparse(&mut self, col: &[(usize, f64)], out: &mut Vec<f64>);

    /// `B⁻¹·eᵣₒᵥᵥ` — the column of `B⁻¹` for one constraint row.
    fn ftran_unit(&mut self, row: usize, out: &mut Vec<f64>);

    /// `B⁻¹·r` for a dense right-hand side.
    fn ftran_dense(&mut self, rhs: &[f64], out: &mut Vec<f64>);

    /// `cᵀ·B⁻¹` for a dense basic-cost vector (indexed by basis
    /// position); the result is indexed by constraint row.
    fn btran(&mut self, c: &[f64], out: &mut Vec<f64>);

    /// Row `r` of `B⁻¹` (`eᵣᵀ·B⁻¹`), the dual simplex's pivot row.
    fn row(&mut self, r: usize, out: &mut Vec<f64>);

    /// Rank-1 update after `alpha = ftran(entering)` pivots at basis row
    /// `r`. Returns `false` when the update is refused on stability
    /// grounds; the caller must then [`refresh`](Self::refresh).
    fn update(&mut self, r: usize, alpha: &[f64]) -> bool;

    /// Updates absorbed since the last refresh (or identity reset).
    fn updates_since_refresh(&self) -> usize;

    /// Factor nonzeros in excess of the basis-matrix nonzeros at the
    /// last refresh (0 for the dense representation).
    fn fill_in(&self) -> usize {
        0
    }
}

/// Dense `B⁻¹` with product-form (eta) updates — the representation the
/// revised simplex originally hard-coded, now behind [`Factorization`].
#[derive(Debug)]
pub struct DenseEta {
    m: usize,
    /// Row-major dense `B⁻¹`.
    binv: Vec<f64>,
    etas: usize,
}

impl DenseEta {
    /// Identity factorization of size `m`.
    pub fn identity(m: usize) -> Self {
        DenseEta {
            m,
            binv: identity_matrix(m),
            etas: 0,
        }
    }
}

impl Factorization for DenseEta {
    fn name(&self) -> &'static str {
        "dense-eta"
    }

    fn reset_identity(&mut self, m: usize) {
        self.m = m;
        self.binv = identity_matrix(m);
        self.etas = 0;
    }

    fn refresh(&mut self, ctx: &FactorCtx<'_>, basic: &[usize]) -> bool {
        let m = ctx.m;
        let mut work = vec![0.0; m * m];
        for (i, &b) in basic.iter().enumerate() {
            ctx.visit_col(b, &mut |row, c| work[row * m + i] += c);
        }
        let mut inv = identity_matrix(m);
        for k in 0..m {
            let mut p = k;
            let mut best = work[k * m + k].abs();
            for i in k + 1..m {
                let v = work[i * m + k].abs();
                if v > best {
                    best = v;
                    p = i;
                }
            }
            if best < SINGULAR_TOL {
                return false;
            }
            if p != k {
                for t in 0..m {
                    work.swap(p * m + t, k * m + t);
                    inv.swap(p * m + t, k * m + t);
                }
            }
            let piv = 1.0 / work[k * m + k];
            for t in 0..m {
                work[k * m + t] *= piv;
                inv[k * m + t] *= piv;
            }
            for i in 0..m {
                if i == k {
                    continue;
                }
                let f = work[i * m + k];
                if f.abs() <= EPS {
                    continue;
                }
                for t in 0..m {
                    work[i * m + t] -= f * work[k * m + t];
                    inv[i * m + t] -= f * inv[k * m + t];
                }
            }
        }
        self.m = m;
        self.binv = inv;
        self.etas = 0;
        true
    }

    fn ftran_sparse(&mut self, col: &[(usize, f64)], out: &mut Vec<f64>) {
        let m = self.m;
        out.clear();
        out.resize(m, 0.0);
        for &(row, c) in col {
            for (i, a) in out.iter_mut().enumerate() {
                *a += self.binv[i * m + row] * c;
            }
        }
    }

    fn ftran_unit(&mut self, row: usize, out: &mut Vec<f64>) {
        let m = self.m;
        out.clear();
        out.extend((0..m).map(|i| self.binv[i * m + row]));
    }

    fn ftran_dense(&mut self, rhs: &[f64], out: &mut Vec<f64>) {
        let m = self.m;
        out.clear();
        out.extend((0..m).map(|i| {
            let brow = &self.binv[i * m..(i + 1) * m];
            brow.iter().zip(rhs).map(|(b, r)| b * r).sum::<f64>()
        }));
    }

    fn btran(&mut self, c: &[f64], out: &mut Vec<f64>) {
        let m = self.m;
        out.clear();
        out.resize(m, 0.0);
        for (i, &ci) in c.iter().enumerate() {
            if ci == 0.0 {
                continue;
            }
            let brow = &self.binv[i * m..(i + 1) * m];
            for (t, yv) in out.iter_mut().enumerate() {
                *yv += ci * brow[t];
            }
        }
    }

    fn row(&mut self, r: usize, out: &mut Vec<f64>) {
        out.clear();
        out.extend_from_slice(&self.binv[r * self.m..(r + 1) * self.m]);
    }

    fn update(&mut self, r: usize, alpha: &[f64]) -> bool {
        let m = self.m;
        if alpha[r].abs() < SINGULAR_TOL {
            return false;
        }
        let inv = 1.0 / alpha[r];
        for t in 0..m {
            self.binv[r * m + t] *= inv;
        }
        for (i, &f) in alpha.iter().enumerate() {
            if i == r || f.abs() <= EPS {
                continue;
            }
            for t in 0..m {
                self.binv[i * m + t] -= f * self.binv[r * m + t];
            }
        }
        self.etas += 1;
        true
    }

    fn updates_since_refresh(&self) -> usize {
        self.etas
    }
}

/// Sparse LU factorization (`P·B₀ = L·U`) with a bounded eta file.
///
/// After a refresh the factors stay immutable; each basis exchange
/// appends one sparse eta column so that `B_k⁻¹ = E_k…E_1·B₀⁻¹`. `ftran`
/// applies the LU solve then the etas in order; `btran` applies the etas
/// in reverse, then solves against `Uᵀ`/`Lᵀ`. The solver refreshes when
/// the eta file reaches its bound (or an update is refused), which also
/// restores sparsity.
#[derive(Debug)]
pub struct SparseLu {
    m: usize,
    /// CSC of strictly-lower `L` (unit diagonal implicit). Row indices
    /// are *original* constraint rows; columns are pivot positions.
    l_ptr: Vec<usize>,
    l_idx: Vec<usize>,
    l_val: Vec<f64>,
    /// CSC of strictly-upper `U` (diagonal in `u_diag`). Row indices are
    /// pivot positions `< column`; columns are basis positions.
    u_ptr: Vec<usize>,
    u_idx: Vec<usize>,
    u_val: Vec<f64>,
    u_diag: Vec<f64>,
    /// `perm[k]` = original row pivoted at position `k`.
    perm: Vec<usize>,
    /// Inverse of `perm`, indexed by original row.
    pos_of_row: Vec<usize>,
    /// Eta file: `(pivot basis row, sparse eta column incl. the pivot)`.
    etas: Vec<(usize, Vec<(usize, f64)>)>,
    /// Factor nonzeros minus basis nonzeros at the last refresh.
    fill: usize,
    /// Scratch vector (indexed by original row) reused by every solve.
    work: Vec<f64>,
}

impl SparseLu {
    /// Identity factorization of size `m`.
    pub fn identity(m: usize) -> Self {
        let mut lu = SparseLu {
            m: 0,
            l_ptr: Vec::new(),
            l_idx: Vec::new(),
            l_val: Vec::new(),
            u_ptr: Vec::new(),
            u_idx: Vec::new(),
            u_val: Vec::new(),
            u_diag: Vec::new(),
            perm: Vec::new(),
            pos_of_row: Vec::new(),
            etas: Vec::new(),
            fill: 0,
            work: Vec::new(),
        };
        lu.reset_identity(m);
        lu
    }

    /// Full ftran: the right-hand side, indexed by original row, sits
    /// in `self.work`; writes `B⁻¹·rhs` (LU solve, then the etas in
    /// order) into `x`, indexed by basis position.
    fn ftran_work(&mut self, x: &mut Vec<f64>) {
        let m = self.m;
        let work = &mut self.work;
        // Forward: L·z = P·rhs. After step k, work[perm[k]] is final.
        for k in 0..m {
            let v = work[self.perm[k]];
            if v != 0.0 {
                for t in self.l_ptr[k]..self.l_ptr[k + 1] {
                    work[self.l_idx[t]] -= self.l_val[t] * v;
                }
            }
        }
        x.clear();
        x.extend((0..m).map(|k| work[self.perm[k]]));
        // Backward: U·x = z, column-oriented.
        for j in (0..m).rev() {
            let xj = x[j] / self.u_diag[j];
            x[j] = xj;
            if xj != 0.0 {
                for t in self.u_ptr[j]..self.u_ptr[j + 1] {
                    x[self.u_idx[t]] -= self.u_val[t] * xj;
                }
            }
        }
        self.apply_etas(x);
    }

    /// Zeroes `self.work` to length `m` before a sparse right-hand side
    /// is scattered into it.
    fn clear_work(&mut self) {
        self.work.clear();
        self.work.resize(self.m, 0.0);
    }

    /// Full btran: the basic-cost vector, indexed by basis position,
    /// sits in `self.work`; writes `cᵀ·B⁻¹` into `y`, indexed by row.
    fn btran_work(&mut self, y: &mut Vec<f64>) {
        let m = self.m;
        let z = &mut self.work;
        // Etas in reverse: (cᵀE)ᵣ = cᵀ·eta_col, other entries unchanged.
        for (r, entries) in self.etas.iter().rev() {
            let mut v = 0.0;
            for &(i, e) in entries {
                v += z[i] * e;
            }
            z[*r] = v;
        }
        // Uᵀ·z = c (lower triangular in pivot order, column-oriented).
        for k in 0..m {
            let mut v = z[k];
            for t in self.u_ptr[k]..self.u_ptr[k + 1] {
                v -= self.u_val[t] * z[self.u_idx[t]];
            }
            z[k] = v / self.u_diag[k];
        }
        // Lᵀ·w = z (upper triangular in pivot order).
        for k in (0..m).rev() {
            let mut v = z[k];
            for t in self.l_ptr[k]..self.l_ptr[k + 1] {
                v -= self.l_val[t] * z[self.pos_of_row[self.l_idx[t]]];
            }
            z[k] = v;
        }
        // yᵀ = wᵀ·P: scatter back to original row indices.
        y.clear();
        y.resize(m, 0.0);
        for k in 0..m {
            y[self.perm[k]] = z[k];
        }
    }

    /// Applies the eta file (in order) to an ftran result in place.
    fn apply_etas(&self, x: &mut [f64]) {
        for (r, entries) in &self.etas {
            let v = x[*r];
            if v == 0.0 {
                continue;
            }
            for &(i, e) in entries {
                if i == *r {
                    x[i] = e * v;
                } else {
                    x[i] += e * v;
                }
            }
        }
    }
}

impl Factorization for SparseLu {
    fn name(&self) -> &'static str {
        "sparse-lu"
    }

    fn reset_identity(&mut self, m: usize) {
        self.m = m;
        self.l_ptr = vec![0; m + 1];
        self.l_idx.clear();
        self.l_val.clear();
        self.u_ptr = vec![0; m + 1];
        self.u_idx.clear();
        self.u_val.clear();
        self.u_diag = vec![1.0; m];
        self.perm = (0..m).collect();
        self.pos_of_row = (0..m).collect();
        self.etas.clear();
        self.fill = 0;
    }

    fn refresh(&mut self, ctx: &FactorCtx<'_>, basic: &[usize]) -> bool {
        let m = ctx.m;
        let mut l_ptr: Vec<usize> = Vec::with_capacity(m + 1);
        let mut l_idx: Vec<usize> = Vec::new();
        let mut l_val: Vec<f64> = Vec::new();
        let mut u_ptr: Vec<usize> = Vec::with_capacity(m + 1);
        let mut u_idx: Vec<usize> = Vec::new();
        let mut u_val: Vec<f64> = Vec::new();
        let mut u_diag = vec![0.0; m];
        let mut perm = vec![usize::MAX; m];
        let mut pos_of_row = vec![usize::MAX; m];
        l_ptr.push(0);
        u_ptr.push(0);

        let mut w = vec![0.0f64; m];
        let mut marked = vec![false; m];
        let mut touched: Vec<usize> = Vec::with_capacity(16);
        let mut basis_nnz = 0usize;

        for (j, &b) in basic.iter().enumerate() {
            // Scatter the basic column (duplicate rows accumulate).
            ctx.visit_col(b, &mut |row, c| {
                w[row] += c;
                if !marked[row] {
                    marked[row] = true;
                    touched.push(row);
                }
                basis_nnz += 1;
            });
            // Forward-substitute against the settled columns in pivot
            // order (left-looking: L(0..j)·y = a_j).
            for k in 0..j {
                let v = w[perm[k]];
                if v == 0.0 {
                    continue;
                }
                for t in l_ptr[k]..l_ptr[k + 1] {
                    let i = l_idx[t];
                    w[i] -= l_val[t] * v;
                    if !marked[i] {
                        marked[i] = true;
                        touched.push(i);
                    }
                }
            }
            // Partial pivoting over the not-yet-pivoted touched rows.
            let mut piv = usize::MAX;
            let mut best = SINGULAR_TOL;
            for &i in &touched {
                if pos_of_row[i] == usize::MAX && w[i].abs() > best {
                    best = w[i].abs();
                    piv = i;
                }
            }
            if piv == usize::MAX {
                return false; // singular: keep the previous factors
            }
            let diag = w[piv];
            // Emit U column j (pivoted rows) and L column j (the rest).
            for &i in &touched {
                let v = w[i];
                w[i] = 0.0;
                marked[i] = false;
                if v.abs() <= EPS || i == piv {
                    continue;
                }
                let k = pos_of_row[i];
                if k != usize::MAX {
                    u_idx.push(k);
                    u_val.push(v);
                } else {
                    l_idx.push(i);
                    l_val.push(v / diag);
                }
            }
            touched.clear();
            u_diag[j] = diag;
            perm[j] = piv;
            pos_of_row[piv] = j;
            l_ptr.push(l_idx.len());
            u_ptr.push(u_idx.len());
        }

        let factor_nnz = l_val.len() + u_val.len() + m;
        self.m = m;
        self.l_ptr = l_ptr;
        self.l_idx = l_idx;
        self.l_val = l_val;
        self.u_ptr = u_ptr;
        self.u_idx = u_idx;
        self.u_val = u_val;
        self.u_diag = u_diag;
        self.perm = perm;
        self.pos_of_row = pos_of_row;
        self.etas.clear();
        self.fill = factor_nnz.saturating_sub(basis_nnz);
        true
    }

    fn ftran_sparse(&mut self, col: &[(usize, f64)], out: &mut Vec<f64>) {
        self.clear_work();
        for &(row, c) in col {
            self.work[row] += c;
        }
        self.ftran_work(out);
    }

    fn ftran_unit(&mut self, row: usize, out: &mut Vec<f64>) {
        self.clear_work();
        self.work[row] = 1.0;
        self.ftran_work(out);
    }

    fn ftran_dense(&mut self, rhs: &[f64], out: &mut Vec<f64>) {
        self.work.clear();
        self.work.extend_from_slice(rhs);
        self.ftran_work(out);
    }

    fn btran(&mut self, c: &[f64], out: &mut Vec<f64>) {
        self.work.clear();
        self.work.extend_from_slice(c);
        self.btran_work(out);
    }

    fn row(&mut self, r: usize, out: &mut Vec<f64>) {
        self.clear_work();
        self.work[r] = 1.0;
        self.btran_work(out);
    }

    fn update(&mut self, r: usize, alpha: &[f64]) -> bool {
        let ar = alpha[r];
        if ar.abs() < SINGULAR_TOL {
            return false;
        }
        let inv = 1.0 / ar;
        let mut entries = Vec::with_capacity(8);
        for (i, &a) in alpha.iter().enumerate() {
            if i == r {
                entries.push((r, inv));
            } else if a.abs() > EPS {
                entries.push((i, -a * inv));
            }
        }
        self.etas.push((r, entries));
        true
    }

    fn updates_since_refresh(&self) -> usize {
        self.etas.len()
    }

    fn fill_in(&self) -> usize {
        self.fill
    }
}

fn identity_matrix(m: usize) -> Vec<f64> {
    let mut id = vec![0.0; m * m];
    for i in 0..m {
        id[i * m + i] = 1.0;
    }
    id
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic split-mix generator for the agreement sweeps.
    struct SplitMix64(u64);

    impl SplitMix64 {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// Random sparse columns + a basis over structurals and logicals.
    fn random_ctx(
        rng: &mut SplitMix64,
        n: usize,
        m: usize,
    ) -> (Vec<Vec<(usize, f64)>>, Vec<usize>) {
        let mut cols = Vec::with_capacity(n);
        for _ in 0..n {
            let nnz = 1 + (rng.next() as usize) % m.max(1);
            let mut col = Vec::with_capacity(nnz);
            for _ in 0..nnz.min(4) {
                col.push(((rng.next() as usize) % m, rng.unit() * 4.0 - 2.0));
            }
            cols.push(col);
        }
        // Basis: mix of structural and logical columns, one per row.
        let mut basic = Vec::with_capacity(m);
        for i in 0..m {
            if rng.unit() < 0.5 && n > 0 {
                basic.push((rng.next() as usize) % n);
            } else {
                basic.push(n + i);
            }
        }
        (cols, basic)
    }

    /// Collects one buffer-writing solve into a fresh vector.
    fn out(solve: impl FnOnce(&mut Vec<f64>)) -> Vec<f64> {
        let mut v = Vec::new();
        solve(&mut v);
        v
    }

    fn close(a: &[f64], b: &[f64], tol: f64) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() < tol)
    }

    #[test]
    fn lu_matches_dense_on_random_bases() {
        let mut rng = SplitMix64(0xFAC7_0001);
        let mut factored = 0usize;
        for _ in 0..200 {
            let n = 2 + (rng.next() as usize) % 6;
            let m = 1 + (rng.next() as usize) % 8;
            let (cols, basic) = random_ctx(&mut rng, n, m);
            let ctx = FactorCtx { n, m, cols: &cols };
            let mut dense = DenseEta::identity(m);
            let mut lu = SparseLu::identity(m);
            let d_ok = dense.refresh(&ctx, &basic);
            let l_ok = lu.refresh(&ctx, &basic);
            // Near the singularity tolerance the two pivoting orders may
            // disagree on viability; only compare when both factored.
            assert_eq!(d_ok, l_ok, "viability must agree on random bases");
            if !(d_ok && l_ok) {
                continue;
            }
            factored += 1;
            let rhs: Vec<f64> = (0..m).map(|_| rng.unit() * 2.0 - 1.0).collect();
            assert!(
                close(
                    &out(|o| dense.ftran_dense(&rhs, o)),
                    &out(|o| lu.ftran_dense(&rhs, o)),
                    1e-8
                ),
                "ftran mismatch"
            );
            assert!(close(
                &out(|o| dense.btran(&rhs, o)),
                &out(|o| lu.btran(&rhs, o)),
                1e-8
            ));
            for r in 0..m {
                assert!(
                    close(&out(|o| dense.row(r, o)), &out(|o| lu.row(r, o)), 1e-8),
                    "row {r}"
                );
                assert!(close(
                    &out(|o| dense.ftran_unit(r, o)),
                    &out(|o| lu.ftran_unit(r, o)),
                    1e-8
                ));
            }
            let col: Vec<(usize, f64)> = (0..2)
                .map(|_| ((rng.next() as usize) % m, rng.unit()))
                .collect();
            assert!(close(
                &out(|o| dense.ftran_sparse(&col, o)),
                &out(|o| lu.ftran_sparse(&col, o)),
                1e-8
            ));
        }
        assert!(factored > 50, "only {factored} bases factored");
    }

    #[test]
    fn lu_eta_updates_match_dense_eta_updates() {
        let mut rng = SplitMix64(0xFAC7_0002);
        for _ in 0..100 {
            let n = 4 + (rng.next() as usize) % 4;
            let m = 2 + (rng.next() as usize) % 6;
            let (cols, basic) = random_ctx(&mut rng, n, m);
            let ctx = FactorCtx { n, m, cols: &cols };
            let mut dense = DenseEta::identity(m);
            let mut lu = SparseLu::identity(m);
            if !dense.refresh(&ctx, &basic) || !lu.refresh(&ctx, &basic) {
                continue;
            }
            // A few pivots: enter a random structural column at a row
            // where its alpha is usable, mirroring simplex updates.
            for _ in 0..3 {
                let q = (rng.next() as usize) % n;
                let alpha = out(|o| dense.ftran_sparse(&cols[q], o));
                let Some(r) = (0..m).find(|&i| alpha[i].abs() > 0.1) else {
                    continue;
                };
                if !dense.update(r, &alpha) {
                    continue;
                }
                let alpha_lu = out(|o| lu.ftran_sparse(&cols[q], o));
                assert!(lu.update(r, &alpha_lu), "lu refused a dense-accepted pivot");
                let rhs: Vec<f64> = (0..m).map(|_| rng.unit()).collect();
                assert!(
                    close(
                        &out(|o| dense.ftran_dense(&rhs, o)),
                        &out(|o| lu.ftran_dense(&rhs, o)),
                        1e-7
                    ),
                    "post-update ftran mismatch"
                );
                assert!(close(
                    &out(|o| dense.btran(&rhs, o)),
                    &out(|o| lu.btran(&rhs, o)),
                    1e-7
                ));
            }
            assert_eq!(dense.updates_since_refresh(), lu.updates_since_refresh());
        }
    }

    #[test]
    fn singular_basis_is_rejected_and_factors_survive() {
        // Two identical structural columns cannot form a basis.
        let cols = vec![vec![(0, 1.0), (1, 1.0)], vec![(0, 1.0), (1, 1.0)]];
        let ctx = FactorCtx {
            n: 2,
            m: 2,
            cols: &cols,
        };
        for factor in [
            &mut DenseEta::identity(2) as &mut dyn Factorization,
            &mut SparseLu::identity(2),
        ] {
            assert!(!factor.refresh(&ctx, &[0, 1]), "singular must be rejected");
            // The identity factors must still answer queries.
            let x = out(|o| factor.ftran_dense(&[3.0, -2.0], o));
            assert!(close(&x, &[3.0, -2.0], 1e-12));
            assert!(factor.refresh(&ctx, &[0, 3]), "mixed basis is regular");
        }
    }

    #[test]
    fn kind_round_trips_and_builds() {
        for kind in [FactorizationKind::DenseEta, FactorizationKind::SparseLu] {
            assert_eq!(kind.as_str().parse::<FactorizationKind>().unwrap(), kind);
            assert_eq!(kind.build(3).name(), kind.as_str());
        }
        assert!("qr".parse::<FactorizationKind>().is_err());
        assert_eq!(FactorizationKind::default(), FactorizationKind::SparseLu);
    }

    #[test]
    fn zero_row_factorization_is_trivial() {
        let cols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); 2];
        let ctx = FactorCtx {
            n: 2,
            m: 0,
            cols: &cols,
        };
        let mut lu = SparseLu::identity(0);
        assert!(lu.refresh(&ctx, &[]));
        assert!(out(|o| lu.ftran_dense(&[], o)).is_empty());
        assert!(out(|o| lu.btran(&[], o)).is_empty());
    }
}
