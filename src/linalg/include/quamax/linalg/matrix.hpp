// Dense complex linear algebra sized for MIMO detection.
//
// MIMO channel matrices are small (at most ~64x64 complex entries in any
// experiment in the paper), so a straightforward row-major dense matrix with
// unblocked factorizations is both simpler and faster than a general BLAS
// dependency.  Everything is value-semantic; factorizations return new
// objects rather than mutating inputs.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

#include "quamax/common/error.hpp"

namespace quamax::linalg {

using cplx = std::complex<double>;
using CVec = std::vector<cplx>;
using RVec = std::vector<double>;

/// Row-major dense complex matrix.
class CMat {
 public:
  CMat() = default;

  /// rows x cols matrix, zero-initialized.
  CMat(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, cplx{0.0, 0.0}) {}

  /// Builds from a row-major initializer (size must equal rows*cols).
  CMat(std::size_t rows, std::size_t cols, std::vector<cplx> row_major)
      : rows_(rows), cols_(cols), data_(std::move(row_major)) {
    require(data_.size() == rows_ * cols_, "CMat: initializer size mismatch");
  }

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  bool empty() const noexcept { return data_.empty(); }

  cplx& operator()(std::size_t r, std::size_t c) noexcept { return data_[r * cols_ + c]; }
  const cplx& operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  const std::vector<cplx>& data() const noexcept { return data_; }

  /// Identity matrix of size n.
  static CMat identity(std::size_t n);

  /// Column `c` as a vector.
  CVec column(std::size_t c) const;

  /// Conjugate (Hermitian) transpose.
  CMat hermitian() const;

  /// Gram matrix: hermitian() * (*this); Hermitian positive semi-definite.
  CMat gram() const;

  /// Frobenius norm.
  double frobenius_norm() const;

  CMat operator*(const CMat& rhs) const;
  CVec operator*(const CVec& v) const;
  CMat operator+(const CMat& rhs) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<cplx> data_;
};

/// y - A*x residual.
CVec residual(const CVec& y, const CMat& a, const CVec& x);

/// Squared Euclidean norm ||v||^2.
double norm_sq(const CVec& v);

/// Hermitian inner product a^H b (conjugates the first argument).
cplx dot(const CVec& a, const CVec& b);

/// Real-part inner product Re(a)·Re(b) + Im(a)·Im(b) == Re(a^H b); this is the
/// dot-product form used by the paper's closed-form Ising coefficients (Eq. 6).
double re_dot(const CVec& a, const CVec& b);

/// Im(a^H b) = Re(a)·Im(b) − Im(a)·Re(b).
double im_dot(const CVec& a, const CVec& b);

/// Result of a reduced (thin) QR factorization A = Q R with Q (m x n)
/// having orthonormal columns and R (n x n) upper triangular with real
/// non-negative diagonal.
struct QR {
  CMat q;
  CMat r;
};

/// Householder thin QR. Requires rows >= cols.
QR qr_decompose(const CMat& a);

/// Solves A x = b by LU with partial pivoting. A must be square and
/// nonsingular (throws InvalidArgument on singular-to-working-precision).
CVec lu_solve(CMat a, CVec b);

/// Inverse via LU; A must be square and nonsingular.
CMat inverse(const CMat& a);

/// Cholesky factor L (lower triangular) of a Hermitian positive-definite A,
/// A = L L^H. Throws InvalidArgument if A is not positive definite.
CMat cholesky(const CMat& a);

/// Solves (A^H A + lambda I) x = A^H y — the regularized normal equations
/// underlying zero-forcing (lambda = 0) and MMSE (lambda = noise variance).
CVec solve_normal_equations(const CMat& a, const CVec& y, double lambda);

}  // namespace quamax::linalg
