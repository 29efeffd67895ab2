#include "quamax/linalg/matrix.hpp"

#include <algorithm>
#include <cmath>

namespace quamax::linalg {

CMat CMat::identity(std::size_t n) {
  CMat eye(n, n);
  for (std::size_t i = 0; i < n; ++i) eye(i, i) = cplx{1.0, 0.0};
  return eye;
}

CVec CMat::column(std::size_t c) const {
  require(c < cols_, "CMat::column: index out of range");
  CVec out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = (*this)(r, c);
  return out;
}

CMat CMat::hermitian() const {
  CMat out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) out(c, r) = std::conj((*this)(r, c));
  return out;
}

CMat CMat::gram() const {
  CMat out(cols_, cols_);
  for (std::size_t i = 0; i < cols_; ++i) {
    for (std::size_t j = i; j < cols_; ++j) {
      cplx acc{0.0, 0.0};
      for (std::size_t r = 0; r < rows_; ++r)
        acc += std::conj((*this)(r, i)) * (*this)(r, j);
      out(i, j) = acc;
      out(j, i) = std::conj(acc);
    }
  }
  return out;
}

double CMat::frobenius_norm() const {
  double acc = 0.0;
  for (const cplx& v : data_) acc += std::norm(v);
  return std::sqrt(acc);
}

CMat CMat::operator*(const CMat& rhs) const {
  require(cols_ == rhs.rows_, "CMat::operator*: dimension mismatch");
  CMat out(rows_, rhs.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const cplx aik = (*this)(i, k);
      if (aik == cplx{0.0, 0.0}) continue;
      for (std::size_t j = 0; j < rhs.cols_; ++j) out(i, j) += aik * rhs(k, j);
    }
  }
  return out;
}

CVec CMat::operator*(const CVec& v) const {
  require(cols_ == v.size(), "CMat::operator*(vec): dimension mismatch");
  CVec out(rows_, cplx{0.0, 0.0});
  for (std::size_t i = 0; i < rows_; ++i) {
    cplx acc{0.0, 0.0};
    for (std::size_t j = 0; j < cols_; ++j) acc += (*this)(i, j) * v[j];
    out[i] = acc;
  }
  return out;
}

CMat CMat::operator+(const CMat& rhs) const {
  require(rows_ == rhs.rows_ && cols_ == rhs.cols_, "CMat::operator+: shape mismatch");
  CMat out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] += rhs.data_[i];
  return out;
}

CVec residual(const CVec& y, const CMat& a, const CVec& x) {
  CVec ax = a * x;
  require(ax.size() == y.size(), "residual: dimension mismatch");
  for (std::size_t i = 0; i < y.size(); ++i) ax[i] = y[i] - ax[i];
  return ax;
}

double norm_sq(const CVec& v) {
  double acc = 0.0;
  for (const cplx& x : v) acc += std::norm(x);
  return acc;
}

cplx dot(const CVec& a, const CVec& b) {
  require(a.size() == b.size(), "dot: dimension mismatch");
  cplx acc{0.0, 0.0};
  for (std::size_t i = 0; i < a.size(); ++i) acc += std::conj(a[i]) * b[i];
  return acc;
}

double re_dot(const CVec& a, const CVec& b) { return dot(a, b).real(); }

double im_dot(const CVec& a, const CVec& b) { return dot(a, b).imag(); }

QR qr_decompose(const CMat& a) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  require(m >= n, "qr_decompose: requires rows >= cols");

  // Householder QR accumulating the reflectors into an explicit thin Q.
  CMat r = a;
  CMat q_full = CMat::identity(m);

  for (std::size_t k = 0; k < n; ++k) {
    // Build the Householder vector for column k below the diagonal.
    double xnorm = 0.0;
    for (std::size_t i = k; i < m; ++i) xnorm += std::norm(r(i, k));
    xnorm = std::sqrt(xnorm);
    if (xnorm == 0.0) continue;

    const cplx alpha = r(k, k);
    const double alpha_abs = std::abs(alpha);
    // Phase chosen so the reflector maps column k to (-phase * xnorm) e_k,
    // avoiding cancellation.
    const cplx phase = (alpha_abs == 0.0) ? cplx{1.0, 0.0} : alpha / alpha_abs;

    CVec v(m - k);
    v[0] = alpha + phase * xnorm;
    for (std::size_t i = k + 1; i < m; ++i) v[i - k] = r(i, k);
    const double vnorm_sq = norm_sq(v);
    if (vnorm_sq == 0.0) continue;

    // Apply I - 2 v v^H / (v^H v) to R (columns k..n-1) and to Q (all columns).
    for (std::size_t j = k; j < n; ++j) {
      cplx proj{0.0, 0.0};
      for (std::size_t i = k; i < m; ++i) proj += std::conj(v[i - k]) * r(i, j);
      proj *= 2.0 / vnorm_sq;
      for (std::size_t i = k; i < m; ++i) r(i, j) -= proj * v[i - k];
    }
    for (std::size_t j = 0; j < m; ++j) {
      cplx proj{0.0, 0.0};
      for (std::size_t i = k; i < m; ++i) proj += std::conj(v[i - k]) * q_full(i, j);
      proj *= 2.0 / vnorm_sq;
      for (std::size_t i = k; i < m; ++i) q_full(i, j) -= proj * v[i - k];
    }
  }

  // Normalize so R has a real non-negative diagonal (standard convention;
  // also what the Sphere Decoder's tree-search expects).
  for (std::size_t k = 0; k < n; ++k) {
    const cplx d = r(k, k);
    const double d_abs = std::abs(d);
    if (d_abs == 0.0) continue;
    const cplx phase = d / d_abs;
    const cplx phase_conj = std::conj(phase);
    for (std::size_t j = k; j < n; ++j) r(k, j) *= phase_conj;
    // q_full currently holds the product of reflectors applied to I, i.e.
    // Q^H; scale its row k so that (Q phase-fixed)^H keeps A = Q R.
    for (std::size_t j = 0; j < m; ++j) q_full(k, j) *= phase_conj;
  }

  // q_full is Q^H (m x m); the thin Q is the conjugate transpose of its
  // first n rows.
  QR out;
  out.q = CMat(m, n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) out.q(i, j) = std::conj(q_full(j, i));
  out.r = CMat(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) out.r(i, j) = r(i, j);
    out.r(i, i) = cplx{r(i, i).real(), 0.0};  // clamp tiny imaginary residue
  }
  return out;
}

CVec lu_solve(CMat a, CVec b) {
  const std::size_t n = a.rows();
  require(a.cols() == n, "lu_solve: matrix must be square");
  require(b.size() == n, "lu_solve: rhs size mismatch");

  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting on column k.
    std::size_t pivot = k;
    double best = std::abs(a(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      const double mag = std::abs(a(i, k));
      if (mag > best) {
        best = mag;
        pivot = i;
      }
    }
    require(best > 1e-13, "lu_solve: matrix is singular to working precision");
    if (pivot != k) {
      for (std::size_t j = 0; j < n; ++j) std::swap(a(k, j), a(pivot, j));
      std::swap(b[k], b[pivot]);
      std::swap(perm[k], perm[pivot]);
    }
    for (std::size_t i = k + 1; i < n; ++i) {
      const cplx factor = a(i, k) / a(k, k);
      a(i, k) = factor;
      for (std::size_t j = k + 1; j < n; ++j) a(i, j) -= factor * a(k, j);
      b[i] -= factor * b[k];
    }
  }

  // Back substitution.
  CVec x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    cplx acc = b[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= a(ii, j) * x[j];
    x[ii] = acc / a(ii, ii);
  }
  return x;
}

CMat inverse(const CMat& a) {
  const std::size_t n = a.rows();
  require(a.cols() == n, "inverse: matrix must be square");
  CMat inv(n, n);
  for (std::size_t c = 0; c < n; ++c) {
    CVec e(n, cplx{0.0, 0.0});
    e[c] = cplx{1.0, 0.0};
    const CVec col = lu_solve(a, std::move(e));
    for (std::size_t r = 0; r < n; ++r) inv(r, c) = col[r];
  }
  return inv;
}

CMat cholesky(const CMat& a) {
  const std::size_t n = a.rows();
  require(a.cols() == n, "cholesky: matrix must be square");
  CMat l(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      cplx acc = a(i, j);
      for (std::size_t k = 0; k < j; ++k) acc -= l(i, k) * std::conj(l(j, k));
      if (i == j) {
        const double diag = acc.real();
        require(diag > 0.0 && std::abs(acc.imag()) < 1e-9 * (1.0 + diag),
                "cholesky: matrix is not Hermitian positive definite");
        l(i, i) = cplx{std::sqrt(diag), 0.0};
      } else {
        l(i, j) = acc / l(j, j);
      }
    }
  }
  return l;
}

CVec solve_normal_equations(const CMat& a, const CVec& y, double lambda) {
  require(lambda >= 0.0, "solve_normal_equations: lambda must be non-negative");
  CMat gram = a.gram();
  for (std::size_t i = 0; i < gram.rows(); ++i) gram(i, i) += lambda;
  const CVec rhs = a.hermitian() * y;
  // The Gram matrix is Hermitian positive (semi-)definite; Cholesky is the
  // natural solver, but fall back to LU when regularization is zero and the
  // channel is rank-deficient only at working precision.
  return lu_solve(std::move(gram), rhs);
}

}  // namespace quamax::linalg
