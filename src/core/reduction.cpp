#include "quamax/core/reduction.hpp"

#include <cmath>

#include "quamax/common/error.hpp"
#include "quamax/obs/profile.hpp"

namespace quamax::core {

using linalg::cplx;
using qubo::IsingModel;

namespace {

/// Builds A = H * M column-by-column without materializing M: the column of
/// A for user u, dimension dim (0 = I, 1 = Q), weight w is w * (j^dim) * h_u.
CMat build_effective_channel(const CMat& h, Modulation mod) {
  const std::size_t nt = h.cols();
  const std::size_t nr = h.rows();
  const int q = wireless::bits_per_symbol(mod);
  const int d = wireless::bits_per_dimension(mod);

  CMat a(nr, nt * static_cast<std::size_t>(q));
  for (std::size_t u = 0; u < nt; ++u) {
    const std::size_t base = u * static_cast<std::size_t>(q);
    if (mod == Modulation::kBpsk) {
      for (std::size_t r = 0; r < nr; ++r) a(r, base) = h(r, u);
      continue;
    }
    for (int k = 0; k < d; ++k) {
      const double w = static_cast<double>(1 << (d - 1 - k));
      for (std::size_t r = 0; r < nr; ++r) {
        const cplx hru = h(r, u);
        a(r, base + static_cast<std::size_t>(k)) = w * hru;
        a(r, base + static_cast<std::size_t>(d + k)) = cplx{0.0, w} * hru;
      }
    }
  }
  return a;
}

/// Linear terms of the generic path: f_b = -2 Re(y^H A)_b.  Shared by the
/// full reduction and update_ml_fields so the incremental rewrite is the
/// same arithmetic instruction for instruction.
void general_fields(const CMat& a, const CVec& y, IsingModel& ising) {
  for (std::size_t b = 0; b < a.cols(); ++b) {
    cplx acc{0.0, 0.0};
    for (std::size_t r = 0; r < a.rows(); ++r) acc += std::conj(y[r]) * a(r, b);
    ising.field(b) = -2.0 * acc.real();
  }
}

/// tr(Re(A^H A)) accumulated in the exact order the coupling loop uses.
double general_trace(const CMat& a) {
  double trace = 0.0;
  for (std::size_t b = 0; b < a.cols(); ++b) {
    cplx acc{0.0, 0.0};
    for (std::size_t r = 0; r < a.rows(); ++r)
      acc += std::conj(a(r, b)) * a(r, b);
    trace += acc.real();
  }
  return trace;
}

}  // namespace

MlProblem reduce_ml_to_ising(const CMat& h, const CVec& y, Modulation mod) {
  require(h.rows() == y.size(), "reduce_ml_to_ising: H rows must match y length");
  require(h.cols() >= 1, "reduce_ml_to_ising: empty channel");

  const CMat a = build_effective_channel(h, mod);
  const std::size_t n = a.cols();

  MlProblem problem;
  problem.mod = mod;
  problem.nt = h.cols();
  problem.ising = IsingModel(n);

  general_fields(a, y, problem.ising);

  // Quadratic terms: g_bc = 2 Re(A^H A)_bc for b < c; diagonal folds into
  // the offset since s_b^2 = 1.
  double trace = 0.0;
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t c = b; c < n; ++c) {
      cplx acc{0.0, 0.0};
      for (std::size_t r = 0; r < a.rows(); ++r)
        acc += std::conj(a(r, b)) * a(r, c);
      if (b == c) {
        trace += acc.real();
      } else if (acc.real() != 0.0) {
        problem.ising.add_coupling(b, c, 2.0 * acc.real());
      }
    }
  }
  problem.ising.set_offset(linalg::norm_sq(y) + trace);
  return problem;
}

namespace {

/// Column dot products used by all the closed forms, precomputed once:
///   re_hh(u, w) = H^I_u . H^I_w + H^Q_u . H^Q_w   = Re(h_u^H h_w)
///   im_hh(u, w) = H^I_u . H^Q_w - H^Q_u . H^I_w   = Im(h_u^H h_w)
/// This is what makes inserting (H, y) into Eqs. 6-8/13-14 cheap: every
/// spin-pair coefficient is a table lookup, O(Nt^2 Nr) total for the
/// whole problem regardless of bits per symbol.
struct ColumnDots {
  /// `with_couplings = false` computes only the h_u^H y products — the
  /// y-dependent half update_ml_fields needs.  hy[u] is the same
  /// linalg::dot either way, so field coefficients derived from a
  /// fields-only instance equal the full rebuild's bit-for-bit.
  explicit ColumnDots(const CMat& h, const CVec& y, bool with_couplings = true)
      : nt(h.cols()) {
    std::vector<CVec> cols;
    cols.reserve(nt);
    for (std::size_t u = 0; u < nt; ++u) cols.push_back(h.column(u));
    if (with_couplings) hh.resize(nt * nt);
    hy.resize(nt);
    for (std::size_t u = 0; u < nt; ++u) {
      hy[u] = linalg::dot(cols[u], y);
      if (!with_couplings) continue;
      for (std::size_t w = u; w < nt; ++w) {
        const linalg::cplx d = linalg::dot(cols[u], cols[w]);
        hh[u * nt + w] = d;
        hh[w * nt + u] = std::conj(d);
      }
    }
  }
  double re_hh(std::size_t u, std::size_t w) const { return hh[u * nt + w].real(); }
  double im_hh(std::size_t u, std::size_t w) const { return hh[u * nt + w].imag(); }
  double re_hy(std::size_t u) const { return hy[u].real(); }
  double im_hy(std::size_t u) const { return hy[u].imag(); }
  std::size_t nt;
  std::vector<linalg::cplx> hh;  ///< h_u^H h_w, row-major
  std::vector<linalg::cplx> hy;  ///< h_u^H y
};

double closed_form_offset(const CMat& h, const CVec& y, Modulation mod) {
  // ||y||^2 + sum_b ||A_b||^2; the per-user squared transform weights sum to
  // exactly the constellation's average symbol energy (1, 2, 10, 42).
  double norm_cols = 0.0;
  for (std::size_t u = 0; u < h.cols(); ++u) {
    const CVec col = h.column(u);
    norm_cols += linalg::norm_sq(col);
  }
  return linalg::norm_sq(y) + wireless::average_symbol_energy(mod) * norm_cols;
}

// Eq. 6 / Eq. 7 / Eq. 13 field fills, shared verbatim by the full closed
// forms and update_ml_fields (the coherence-block incremental path).

void bpsk_fields(const ColumnDots& dots, IsingModel& ising) {
  for (std::size_t i = 0; i < dots.nt; ++i)
    ising.field(i) = -2.0 * dots.re_hy(i);
}

void qpsk_fields(const ColumnDots& dots, IsingModel& ising) {
  const std::size_t n = 2 * dots.nt;
  for (std::size_t idx = 1; idx <= n; ++idx) {
    const std::size_t u = (idx + 1) / 2 - 1;
    const double f = (idx % 2 == 0)
                         ? -2.0 * (dots.im_hy(u))  // -2 H^I.y^Q + 2 H^Q.y^I
                         : -2.0 * dots.re_hy(u);
    ising.field(idx - 1) = f;
  }
}

void qam16_fields(const ColumnDots& dots, IsingModel& ising) {
  const std::size_t n = 4 * dots.nt;
  // Spin classes by 1-based index mod 4: 1 -> I weight 2, 2 -> I weight 1,
  // 3 -> Q weight 2, 0 -> Q weight 1.
  const auto weight_of = [](std::size_t idx) {
    switch (idx % 4) {
      case 1: return 4.0;  // Eq. 13 prefactor for i = 4n-3
      case 2: return 2.0;
      case 3: return 4.0;
      default: return 2.0;
    }
  };
  const auto is_q_dim = [](std::size_t idx) {
    return idx % 4 == 3 || idx % 4 == 0;
  };
  for (std::size_t idx = 1; idx <= n; ++idx) {
    const std::size_t u = (idx + 3) / 4 - 1;
    const double w = weight_of(idx);
    ising.field(idx - 1) =
        is_q_dim(idx) ? -w * dots.im_hy(u) : -w * dots.re_hy(u);
  }
}

MlProblem closed_form_bpsk(const CMat& h, const CVec& y) {
  const ColumnDots dots(h, y);
  const std::size_t nt = h.cols();
  MlProblem p;
  p.mod = Modulation::kBpsk;
  p.nt = nt;
  p.ising = IsingModel(nt);
  bpsk_fields(dots, p.ising);
  for (std::size_t i = 0; i < nt; ++i)
    for (std::size_t j = i + 1; j < nt; ++j)
      p.ising.add_coupling(i, j, 2.0 * dots.re_hh(i, j));
  p.ising.set_offset(closed_form_offset(h, y, Modulation::kBpsk));
  return p;
}

MlProblem closed_form_qpsk(const CMat& h, const CVec& y) {
  const ColumnDots dots(h, y);
  const std::size_t nt = h.cols();
  const std::size_t n = 2 * nt;
  MlProblem p;
  p.mod = Modulation::kQpsk;
  p.nt = nt;
  p.ising = IsingModel(n);

  // Eq. 7 (written with the paper's 1-based index i; u = ceil(i/2) - 1).
  qpsk_fields(dots, p.ising);

  // Eq. 8, i < j (1-based).
  for (std::size_t i = 1; i <= n; ++i) {
    for (std::size_t j = i + 1; j <= n; ++j) {
      const std::size_t u = (i + 1) / 2 - 1;
      const std::size_t w = (j + 1) / 2 - 1;
      double g;
      if ((i + j) % 2 == 0) {
        g = 2.0 * dots.re_hh(u, w);
      } else if (i % 2 == 0) {
        // i = 2n: +2 (H^I_u . H^Q_w) - 2 (H^I_w . H^Q_u) = +2 Im(h_u^H h_w)
        g = 2.0 * dots.im_hh(u, w);
      } else {
        g = -2.0 * dots.im_hh(u, w);
      }
      if (g != 0.0) p.ising.add_coupling(i - 1, j - 1, g);
    }
  }
  p.ising.set_offset(closed_form_offset(h, y, Modulation::kQpsk));
  return p;
}

MlProblem closed_form_qam16(const CMat& h, const CVec& y) {
  const ColumnDots dots(h, y);
  const std::size_t nt = h.cols();
  const std::size_t n = 4 * nt;
  MlProblem p;
  p.mod = Modulation::kQam16;
  p.nt = nt;
  p.ising = IsingModel(n);

  const auto is_q_dim = [](std::size_t idx) { return idx % 4 == 3 || idx % 4 == 0; };

  // Eq. 13.
  qam16_fields(dots, p.ising);

  // Eq. 14.  Writing a_i for spin i's transform weight (2 or 1), the cases
  // collapse to:
  //   same dimension class (I-I or Q-Q): g = 2 a_i a_j Re(h_u^H h_w)
  //   I(i) with Q(j):                    g = -2 a_i a_j Im(h_u^H h_w)
  //   Q(i) with I(j):                    g = +2 a_i a_j Im(h_u^H h_w)
  // The published table prints one coefficient as 4 where the expansion
  // requires 2 (case i = 4n, j = 4n'-2); we implement the consistent value.
  const auto amp_of = [](std::size_t idx) {
    return (idx % 4 == 1 || idx % 4 == 3) ? 2.0 : 1.0;
  };
  for (std::size_t i = 1; i <= n; ++i) {
    for (std::size_t j = i + 1; j <= n; ++j) {
      const std::size_t u = (i + 3) / 4 - 1;
      const std::size_t w = (j + 3) / 4 - 1;
      const double aa = amp_of(i) * amp_of(j);
      double g;
      if (is_q_dim(i) == is_q_dim(j)) {
        g = 2.0 * aa * dots.re_hh(u, w);
      } else if (!is_q_dim(i)) {
        g = -2.0 * aa * dots.im_hh(u, w);
      } else {
        g = 2.0 * aa * dots.im_hh(u, w);
      }
      if (g != 0.0) p.ising.add_coupling(i - 1, j - 1, g);
    }
  }
  p.ising.set_offset(closed_form_offset(h, y, Modulation::kQam16));
  return p;
}

}  // namespace

MlProblem reduce_ml_to_ising_closed_form(const CMat& h, const CVec& y,
                                         Modulation mod) {
  require(h.rows() == y.size(),
          "reduce_ml_to_ising_closed_form: H rows must match y length");
  switch (mod) {
    case Modulation::kBpsk: return closed_form_bpsk(h, y);
    case Modulation::kQpsk: return closed_form_qpsk(h, y);
    case Modulation::kQam16: return closed_form_qam16(h, y);
    case Modulation::kQam64:
      throw InvalidArgument(
          "reduce_ml_to_ising_closed_form: the paper gives no 64-QAM closed "
          "form; use reduce_ml_to_ising()");
  }
  throw InvalidArgument("reduce_ml_to_ising_closed_form: unknown modulation");
}

MlProblem reduce_ml(const CMat& h, const CVec& y, Modulation mod) {
  return mod == Modulation::kQam64 ? reduce_ml_to_ising(h, y, mod)
                                   : reduce_ml_to_ising_closed_form(h, y, mod);
}

qubo::QuboModel reduce_ml_to_qubo(const CMat& h, const CVec& y, Modulation mod) {
  return qubo::to_qubo(reduce_ml_to_ising(h, y, mod).ising);
}

void update_ml_fields(MlProblem& problem, const CMat& h, const CVec& y) {
  QUAMAX_PROF_SCOPE("core.update_ml_fields");
  require(h.rows() == y.size(), "update_ml_fields: H rows must match y length");
  require(problem.nt == h.cols(),
          "update_ml_fields: problem was reduced for a different channel size");

  if (problem.mod == Modulation::kQam64) {
    // The generic path's y-dependent terms (64-QAM has no closed form).
    const CMat a = build_effective_channel(h, problem.mod);
    require(problem.ising.num_spins() == a.cols(),
            "update_ml_fields: spin count does not match the channel");
    general_fields(a, y, problem.ising);
    problem.ising.set_offset(linalg::norm_sq(y) + general_trace(a));
    return;
  }

  const std::size_t expected =
      h.cols() * static_cast<std::size_t>(wireless::bits_per_symbol(problem.mod));
  require(problem.ising.num_spins() == expected,
          "update_ml_fields: spin count does not match the channel");
  const ColumnDots dots(h, y, /*with_couplings=*/false);
  switch (problem.mod) {
    case Modulation::kBpsk: bpsk_fields(dots, problem.ising); break;
    case Modulation::kQpsk: qpsk_fields(dots, problem.ising); break;
    case Modulation::kQam16: qam16_fields(dots, problem.ising); break;
    case Modulation::kQam64: break;  // handled above
  }
  problem.ising.set_offset(closed_form_offset(h, y, problem.mod));
}

}  // namespace quamax::core
