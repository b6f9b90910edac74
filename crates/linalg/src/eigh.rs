//! Symmetric eigendecomposition.
//!
//! The classic two-stage dense path: Householder tridiagonalization
//! (`tred2`) followed by the implicit-shift QL iteration (`tql2`), with or
//! without eigenvector accumulation. This is the solver behind every
//! spectral step in the workspace — normalized spectral clustering, the
//! eigengap heuristic, and the CONN connectivity metric.
//!
//! Eigenvalues are returned in **ascending** order, which is the order
//! spectral clustering consumes them in (the `k` smallest eigenvectors of the
//! normalized Laplacian span the cluster-indicator space).

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;

/// Eigendecomposition `A = V diag(w) V^T` of a symmetric matrix.
#[derive(Debug, Clone)]
#[must_use = "dropping an eigendecomposition discards the factorization work"]
pub struct SymmetricEig {
    /// Eigenvalues in ascending order.
    pub eigenvalues: Vec<f64>,
    /// Orthonormal eigenvectors as columns, matching `eigenvalues` order.
    pub eigenvectors: Matrix,
}

/// Maximum implicit-QL iterations per eigenvalue before reporting failure.
const MAX_QL_ITERS: usize = 50;

/// Computes the full eigendecomposition of a symmetric matrix.
///
/// Only the lower triangle of `a` is read; the strict upper triangle is
/// assumed to mirror it. Returns an error for non-square input or when the
/// QL iteration fails to converge (which for symmetric input essentially
/// never happens in practice).
pub fn eigh(a: &Matrix) -> Result<SymmetricEig> {
    let (eigenvalues, eigenvectors) = tridiagonal_ql(a, true)?;
    Ok(SymmetricEig {
        eigenvalues,
        eigenvectors,
    })
}

/// Eigenvalues only, ascending — [`eigh`] with the eigenvector
/// accumulation switched off.
///
/// The QL updates of the diagonal and sub-diagonal never read the
/// accumulated transform, so the result is **bitwise** equal to
/// `eigh(a)?.eigenvalues` while skipping the `O(n^3)` rotation and
/// back-transformation work. Same input contract and errors as [`eigh`].
pub fn eigvalsh(a: &Matrix) -> Result<Vec<f64>> {
    Ok(tridiagonal_ql(a, false)?.0)
}

/// Shared body of [`eigh`] / [`eigvalsh`]. With `vectors` off the returned
/// matrix is `tred2`'s scratch, not eigenvectors.
fn tridiagonal_ql(a: &Matrix, vectors: bool) -> Result<(Vec<f64>, Matrix)> {
    let (m, n) = a.shape();
    if m != n {
        return Err(LinalgError::ShapeMismatch {
            expected: (m, m),
            got: (m, n),
        });
    }
    if n == 0 {
        return Ok((vec![], Matrix::zeros(0, 0)));
    }
    let mut v = a.clone();
    let mut d = vec![0.0; n]; // diagonal of the tridiagonal form
    let mut e = vec![0.0; n]; // sub-diagonal
    tred2(&mut v, &mut d, &mut e, vectors);
    if vectors {
        tql2(Some(&mut v), &mut d, &mut e)?;
        sort_ascending(&mut d, &mut v);
    } else {
        tql2(None, &mut d, &mut e)?;
        d.sort_by(f64::total_cmp);
    }
    Ok((d, v))
}

/// Computes only the `k` smallest eigenpairs.
///
/// Selects the backend by size: dense `tred2`/`tql2` for small matrices or
/// near-full requests, Lanczos (see [`crate::lanczos`]) when the matrix is
/// large and `k` is a small fraction of it — the spectral-clustering hot
/// path at federated scale.
pub fn k_smallest(a: &Matrix, k: usize) -> Result<SymmetricEig> {
    let n = a.rows();
    if lanczos_beats_dense(n, k) {
        return crate::lanczos::lanczos_smallest(a, k, k + 40);
    }
    let full = eigh(a)?;
    let k = k.min(full.eigenvalues.len());
    let cols: Vec<usize> = (0..k).collect();
    Ok(SymmetricEig {
        eigenvalues: full.eigenvalues[..k].to_vec(),
        eigenvectors: full.eigenvectors.select_columns(&cols),
    })
}

/// Shared dense-vs-Lanczos cutover: `true` when the thick-restart Lanczos
/// path (see [`crate::thick_restart`]) is expected to beat a full dense
/// `tred2`/`tql2` factorization for the `k` smallest eigenpairs of an
/// `n × n` symmetric operator.
///
/// The thresholds were retuned from measurement after the thick-restart
/// rewrite (see DESIGN.md §13): dense eigh is O(n³) with a small constant,
/// the iterative path is roughly O(restarts · m · nnz + m²n), so the
/// crossover depends on how small `k` is relative to `n`. On the bench
/// instances (block affinities, k = #clusters) the iterative path wins from
/// a few hundred rows whenever `k` stays under ~n/6; we keep a margin and
/// require `n > 400` and `k·6 < n`. Both `eigh::k_smallest` and the sparse
/// spectral pipeline in `fedsc-clustering` consult this single predicate so
/// the two layers can never disagree about which backend ran.
#[must_use]
pub fn lanczos_beats_dense(n: usize, k: usize) -> bool {
    n > 400 && k.saturating_mul(6) < n
}

fn sort_ascending(d: &mut [f64], v: &mut Matrix) {
    let n = d.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| d[i].total_cmp(&d[j]));
    let already_sorted = order.iter().enumerate().all(|(i, &o)| i == o);
    if already_sorted {
        return;
    }
    let sorted_d: Vec<f64> = order.iter().map(|&i| d[i]).collect();
    let sorted_v = v.select_columns(&order);
    d.copy_from_slice(&sorted_d);
    *v = sorted_v;
}

/// Householder reduction of a real symmetric matrix to tridiagonal form
/// (EISPACK/JAMA `tred2`), accumulating the orthogonal transform in `v`
/// when `vectors` is set.
///
/// Without accumulation the reduction loop is unchanged and the diagonal is
/// read straight off `v`: the accumulation pass only copies `v[(i, i)]` out
/// before overwriting it, so both branches leave bitwise-equal `d` and `e`.
fn tred2(v: &mut Matrix, d: &mut [f64], e: &mut [f64], vectors: bool) {
    let n = d.len();
    for j in 0..n {
        d[j] = v[(n - 1, j)];
    }

    // Householder reduction to tridiagonal form.
    for i in (1..n).rev() {
        // Scale to avoid under/overflow.
        let mut scale = 0.0;
        let mut h = 0.0;
        for dk in d.iter().take(i) {
            scale += dk.abs();
        }
        if scale == 0.0 {
            e[i] = d[i - 1];
            for j in 0..i {
                d[j] = v[(i - 1, j)];
                v[(i, j)] = 0.0;
                v[(j, i)] = 0.0;
            }
        } else {
            // Generate the Householder vector.
            for dk in d.iter_mut().take(i) {
                *dk /= scale;
                h += *dk * *dk;
            }
            let mut f = d[i - 1];
            let mut g = h.sqrt();
            if f > 0.0 {
                g = -g;
            }
            e[i] = scale * g;
            h -= f * g;
            d[i - 1] = f - g;
            for ej in e.iter_mut().take(i) {
                *ej = 0.0;
            }

            // Apply similarity transformation to remaining columns.
            for j in 0..i {
                f = d[j];
                v[(j, i)] = f;
                g = e[j] + v[(j, j)] * f;
                for k in j + 1..i {
                    g += v[(k, j)] * d[k];
                    e[k] += v[(k, j)] * f;
                }
                e[j] = g;
            }
            f = 0.0;
            for j in 0..i {
                e[j] /= h;
                f += e[j] * d[j];
            }
            let hh = f / (h + h);
            for j in 0..i {
                e[j] -= hh * d[j];
            }
            for j in 0..i {
                f = d[j];
                g = e[j];
                for k in j..i {
                    let upd = f * e[k] + g * d[k];
                    v[(k, j)] -= upd;
                }
                d[j] = v[(i - 1, j)];
                v[(i, j)] = 0.0;
            }
        }
        d[i] = h;
    }

    e[0] = 0.0;
    if !vectors {
        for (j, dj) in d.iter_mut().enumerate() {
            *dj = v[(j, j)];
        }
        return;
    }

    // Accumulate transformations.
    for i in 0..n.saturating_sub(1) {
        v[(n - 1, i)] = v[(i, i)];
        v[(i, i)] = 1.0;
        let h = d[i + 1];
        if h != 0.0 {
            for k in 0..=i {
                d[k] = v[(k, i + 1)] / h;
            }
            for j in 0..=i {
                let mut g = 0.0;
                for k in 0..=i {
                    g += v[(k, i + 1)] * v[(k, j)];
                }
                for k in 0..=i {
                    let dk = d[k];
                    v[(k, j)] -= g * dk;
                }
            }
        }
        for k in 0..=i {
            v[(k, i + 1)] = 0.0;
        }
    }
    for j in 0..n {
        d[j] = v[(n - 1, j)];
        v[(n - 1, j)] = 0.0;
    }
    v[(n - 1, n - 1)] = 1.0;
}

/// Implicit-shift QL iteration on the tridiagonal form (EISPACK `tql2`),
/// accumulating the rotations into `v` when one is given. The `d`/`e`
/// updates never read `v`, so eigenvalues do not depend on it.
fn tql2(mut v: Option<&mut Matrix>, d: &mut [f64], e: &mut [f64]) -> Result<()> {
    let n = d.len();
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;

    let mut f = 0.0f64;
    let mut tst1 = 0.0f64;
    let eps = f64::EPSILON;
    for l in 0..n {
        tst1 = tst1.max(d[l].abs() + e[l].abs());
        let mut m = l;
        while m < n {
            if e[m].abs() <= eps * tst1 {
                break;
            }
            m += 1;
        }
        if m == n {
            m = n - 1;
        }

        if m > l {
            let mut iter = 0;
            loop {
                iter += 1;
                if iter > MAX_QL_ITERS {
                    return Err(LinalgError::NoConvergence {
                        routine: "tql2",
                        iterations: MAX_QL_ITERS,
                    });
                }
                // Compute implicit shift.
                let mut g = d[l];
                let mut p = (d[l + 1] - g) / (2.0 * e[l]);
                let mut r = p.hypot(1.0);
                if p < 0.0 {
                    r = -r;
                }
                d[l] = e[l] / (p + r);
                d[l + 1] = e[l] * (p + r);
                let dl1 = d[l + 1];
                let mut h = g - d[l];
                for i in l + 2..n {
                    d[i] -= h;
                }
                f += h;

                // Implicit QL transformation.
                p = d[m];
                let mut c = 1.0;
                let mut c2 = c;
                let mut c3 = c;
                let el1 = e[l + 1];
                let mut s = 0.0;
                let mut s2 = 0.0;
                for i in (l..m).rev() {
                    c3 = c2;
                    c2 = c;
                    s2 = s;
                    g = c * e[i];
                    h = c * p;
                    r = p.hypot(e[i]);
                    e[i + 1] = s * r;
                    s = e[i] / r;
                    c = p / r;
                    p = c * d[i] - s * g;
                    d[i + 1] = h + s * (c * g + s * d[i]);

                    // Accumulate the rotation into the eigenvector matrix.
                    if let Some(v) = v.as_deref_mut() {
                        for k in 0..n {
                            let vk = v[(k, i + 1)];
                            v[(k, i + 1)] = s * v[(k, i)] + c * vk;
                            v[(k, i)] = c * v[(k, i)] - s * vk;
                        }
                    }
                }
                p = -s * s2 * c3 * el1 * e[l] / dl1;
                e[l] = s * p;
                d[l] = c * p;

                if e[l].abs() <= eps * tst1 {
                    break;
                }
            }
        }
        d[l] += f;
        e[l] = 0.0;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn residual(a: &Matrix, eig: &SymmetricEig) -> f64 {
        // max_i || A v_i - w_i v_i ||
        let mut worst = 0.0f64;
        for (i, &w) in eig.eigenvalues.iter().enumerate() {
            let v = eig.eigenvectors.col(i);
            let av = a.matvec(v).unwrap();
            let r: f64 = av
                .iter()
                .zip(v)
                .map(|(&avk, &vk)| (avk - w * vk).abs())
                .fold(0.0, f64::max);
            worst = worst.max(r);
        }
        worst
    }

    #[test]
    fn diagonal_matrix_eigenvalues_sorted() {
        let a = Matrix::from_rows(&[&[3.0, 0.0, 0.0], &[0.0, 1.0, 0.0], &[0.0, 0.0, 2.0]]).unwrap();
        let eig = eigh(&a).unwrap();
        assert!((eig.eigenvalues[0] - 1.0).abs() < 1e-12);
        assert!((eig.eigenvalues[1] - 2.0).abs() < 1e-12);
        assert!((eig.eigenvalues[2] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn two_by_two_hand_checked() {
        // [[2, 1], [1, 2]] has eigenvalues 1 and 3.
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).unwrap();
        let eig = eigh(&a).unwrap();
        assert!((eig.eigenvalues[0] - 1.0).abs() < 1e-12);
        assert!((eig.eigenvalues[1] - 3.0).abs() < 1e-12);
        assert!(residual(&a, &eig) < 1e-12);
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let a = Matrix::from_rows(&[
            &[4.0, 1.0, -2.0, 2.0],
            &[1.0, 2.0, 0.0, 1.0],
            &[-2.0, 0.0, 3.0, -2.0],
            &[2.0, 1.0, -2.0, -1.0],
        ])
        .unwrap();
        let eig = eigh(&a).unwrap();
        let g = eig.eigenvectors.gram();
        for i in 0..4 {
            for j in 0..4 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!(
                    (g[(i, j)] - expect).abs() < 1e-10,
                    "G[{i},{j}] = {}",
                    g[(i, j)]
                );
            }
        }
        assert!(residual(&a, &eig) < 1e-9);
    }

    #[test]
    fn trace_equals_eigenvalue_sum() {
        let a =
            Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[2.0, 5.0, -1.0], &[3.0, -1.0, 0.0]]).unwrap();
        let eig = eigh(&a).unwrap();
        let trace = 1.0 + 5.0 + 0.0;
        let sum: f64 = eig.eigenvalues.iter().sum();
        assert!((trace - sum).abs() < 1e-10);
    }

    #[test]
    fn laplacian_of_two_components_has_two_zero_eigenvalues() {
        // Path graph on {0,1} plus isolated pair {2,3}: Laplacian blocks.
        let a = Matrix::from_rows(&[
            &[1.0, -1.0, 0.0, 0.0],
            &[-1.0, 1.0, 0.0, 0.0],
            &[0.0, 0.0, 1.0, -1.0],
            &[0.0, 0.0, -1.0, 1.0],
        ])
        .unwrap();
        let eig = eigh(&a).unwrap();
        assert!(eig.eigenvalues[0].abs() < 1e-12);
        assert!(eig.eigenvalues[1].abs() < 1e-12);
        assert!((eig.eigenvalues[2] - 2.0).abs() < 1e-12);
        assert!((eig.eigenvalues[3] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn k_smallest_truncates() {
        let a = Matrix::from_rows(&[&[3.0, 0.0, 0.0], &[0.0, 1.0, 0.0], &[0.0, 0.0, 2.0]]).unwrap();
        let eig = k_smallest(&a, 2).unwrap();
        assert_eq!(eig.eigenvalues.len(), 2);
        assert_eq!(eig.eigenvectors.cols(), 2);
        assert!((eig.eigenvalues[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_matrix_is_fine() {
        let eig = eigh(&Matrix::zeros(0, 0)).unwrap();
        assert!(eig.eigenvalues.is_empty());
    }

    #[test]
    fn one_by_one() {
        let a = Matrix::from_rows(&[&[7.0]]).unwrap();
        let eig = eigh(&a).unwrap();
        assert_eq!(eig.eigenvalues, vec![7.0]);
        assert!((eig.eigenvectors[(0, 0)].abs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_non_square() {
        assert!(eigh(&Matrix::zeros(2, 3)).is_err());
        assert!(eigvalsh(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn moderately_large_random_symmetric() {
        // Deterministic pseudo-random symmetric matrix; checks residual and
        // orthogonality at n = 40.
        let n = 40;
        let mut a = Matrix::zeros(n, n);
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) - 0.5
        };
        for i in 0..n {
            for j in 0..=i {
                let v = next();
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        let eig = eigh(&a).unwrap();
        assert!(residual(&a, &eig) < 1e-9);
        for w in eig.eigenvalues.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
    }
}
