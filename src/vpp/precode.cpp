#include "quamax/vpp/precode.hpp"

#include <cmath>
#include <string>

#include "quamax/common/error.hpp"

namespace quamax::vpp {
namespace {

/// Signed weight of bit j within one two's-complement group: 2^j for the
/// magnitude bits, -2^t for the sign bit.
double bit_weight(std::size_t j, std::size_t mag_bits) {
  const double mag = static_cast<double>(1u << j);
  return j == mag_bits ? -static_cast<double>(1u << mag_bits) : mag;
}

/// Realified precoder F (2Nt x 2K, row-major): multiplying the realified
/// symbol vector [Re u; Im u] reproduces [Re Pu; Im Pu].
std::vector<double> realify(const linalg::CMat& p) {
  const std::size_t nt = p.rows();
  const std::size_t k = p.cols();
  std::vector<double> f(2 * nt * 2 * k, 0.0);
  const auto at = [&](std::size_t r, std::size_t c) -> double& {
    return f[r * 2 * k + c];
  };
  for (std::size_t r = 0; r < nt; ++r) {
    for (std::size_t c = 0; c < k; ++c) {
      const linalg::cplx v = p(r, c);
      at(r, c) = v.real();
      at(r, c + k) = -v.imag();
      at(r + nt, c) = v.imag();
      at(r + nt, c + k) = v.real();
    }
  }
  return f;
}

}  // namespace

double default_tau(wireless::Modulation mod) {
  switch (mod) {
    case wireless::Modulation::kBpsk:
    case wireless::Modulation::kQpsk:
      return 4.0;  // levels {-1, +1}: 2 * (1 + 1)
    case wireless::Modulation::kQam16:
      return 8.0;  // levels up to +-3
    case wireless::Modulation::kQam64:
      return 16.0;  // levels up to +-7
  }
  return 4.0;
}

linalg::CMat zero_forcing_precoder(const linalg::CMat& h) {
  require(h.rows() >= 1 && h.cols() >= h.rows(),
          "zero_forcing_precoder: need a K x Nt channel with K <= Nt");
  const linalg::CMat hh = h.hermitian();
  return hh * linalg::inverse(h * hh);
}

PrecodeProblem reduce_vpp_to_ising(const linalg::CMat& p, const linalg::CVec& u,
                                   double tau, std::size_t mag_bits) {
  const std::size_t k = p.cols();
  require(k >= 1, "reduce_vpp_to_ising: empty precoder");
  require(u.size() == k, "reduce_vpp_to_ising: symbol/precoder size mismatch");
  require(tau >= 0.0, "reduce_vpp_to_ising: negative tau");

  // G = F^T F (2K x 2K, symmetric) and y = [Re u; Im u], both small.
  const std::size_t n2 = 2 * k;
  const std::size_t rows = 2 * p.rows();
  const std::vector<double> f = realify(p);
  std::vector<double> g(n2 * n2, 0.0);
  for (std::size_t a = 0; a < n2; ++a)
    for (std::size_t b = a; b < n2; ++b) {
      double sum = 0.0;
      for (std::size_t r = 0; r < rows; ++r) sum += f[r * n2 + a] * f[r * n2 + b];
      g[a * n2 + b] = g[b * n2 + a] = sum;
    }
  std::vector<double> y(n2, 0.0);
  for (std::size_t a = 0; a < k; ++a) {
    y[a] = u[a].real();
    y[a + k] = u[a].imag();
  }
  std::vector<double> gy(n2, 0.0);
  double offset = 0.0;
  for (std::size_t a = 0; a < n2; ++a) {
    for (std::size_t b = 0; b < n2; ++b) gy[a] += g[a * n2 + b] * y[b];
    offset += y[a] * gy[a];
  }

  // Q = tau^2 C^T G C + 2 tau C^T G y over the two's-complement bits; the
  // encoding matrix C never materializes — its columns are the per-group
  // bit weights.
  const std::size_t bits = mag_bits + 1;
  qubo::QuboModel qubo(n2 * bits);
  const auto var = [&](std::size_t component, std::size_t j) {
    return component * bits + j;
  };
  for (std::size_t a = 0; a < n2; ++a) {
    for (std::size_t j = 0; j < bits; ++j) {
      const double wj = bit_weight(j, mag_bits);
      qubo.diagonal(var(a, j)) +=
          tau * tau * wj * wj * g[a * n2 + a] + 2.0 * tau * wj * gy[a];
      for (std::size_t j2 = j + 1; j2 < bits; ++j2)
        qubo.add_offdiagonal(var(a, j), var(a, j2),
                             2.0 * tau * tau * wj * bit_weight(j2, mag_bits) *
                                 g[a * n2 + a]);
      for (std::size_t b = a + 1; b < n2; ++b)
        for (std::size_t j2 = 0; j2 < bits; ++j2)
          qubo.add_offdiagonal(var(a, j), var(b, j2),
                               2.0 * tau * tau * wj *
                                   bit_weight(j2, mag_bits) * g[a * n2 + b]);
    }
  }
  qubo.set_offset(offset);

  PrecodeProblem out;
  out.ising = qubo::to_ising(qubo);
  out.users = k;
  out.mag_bits = mag_bits;
  out.tau = tau;
  return out;
}

std::vector<int> integers_from_bits(const qubo::BinVec& bits,
                                    std::size_t mag_bits) {
  const std::size_t group = mag_bits + 1;
  require(bits.size() % group == 0,
          "integers_from_bits: bit count not a multiple of mag_bits + 1");
  std::vector<int> out(bits.size() / group, 0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    int v = 0;
    for (std::size_t j = 0; j < mag_bits; ++j)
      if (bits[i * group + j]) v += 1 << j;
    if (bits[i * group + mag_bits]) v -= 1 << mag_bits;
    out[i] = v;
  }
  return out;
}

qubo::BinVec bits_from_integers(const std::vector<int>& values,
                                std::size_t mag_bits) {
  const int lo = -(1 << mag_bits);
  const int hi = (1 << mag_bits) - 1;
  qubo::BinVec out;
  out.reserve(values.size() * (mag_bits + 1));
  for (const int v : values) {
    require(v >= lo && v <= hi, "bits_from_integers: value " +
                                    std::to_string(v) + " out of range [" +
                                    std::to_string(lo) + ", " +
                                    std::to_string(hi) + "]");
    const unsigned raw = static_cast<unsigned>(v - lo);  // biased, t+1 bits
    // Biased -> two's complement: magnitude bits are v's low bits, the sign
    // bit is set exactly when v < 0 (raw < 2^t).
    for (std::size_t j = 0; j < mag_bits; ++j)
      out.push_back(static_cast<std::uint8_t>((raw >> j) & 1u));
    out.push_back(static_cast<std::uint8_t>(v < 0 ? 1u : 0u));
  }
  return out;
}

linalg::CVec perturbation_from_spins(const qubo::SpinVec& spins,
                                     std::size_t users, std::size_t mag_bits) {
  require(spins.size() == 2 * users * (mag_bits + 1),
          "perturbation_from_spins: spin count mismatch");
  const std::vector<int> parts =
      integers_from_bits(qubo::bits_from_spins(spins), mag_bits);
  linalg::CVec v(users);
  for (std::size_t k = 0; k < users; ++k)
    v[k] = linalg::cplx{static_cast<double>(parts[k]),
                        static_cast<double>(parts[k + users])};
  return v;
}

qubo::SpinVec zero_perturbation_spins(const PrecodeProblem& problem) {
  return qubo::SpinVec(problem.num_vars(), -1);
}

qubo::SpinVec clip_to_zero_forcing(const PrecodeInstance& instance,
                                   const qubo::SpinVec& best,
                                   double best_energy) {
  if (best_energy > instance.zf_energy)
    return zero_perturbation_spins(instance.problem);
  return best;
}

double transmit_power(const linalg::CMat& p, const linalg::CVec& u,
                      const linalg::CVec& v, double tau) {
  require(u.size() == v.size(), "transmit_power: size mismatch");
  linalg::CVec perturbed(u.size());
  for (std::size_t k = 0; k < u.size(); ++k) perturbed[k] = u[k] + tau * v[k];
  return linalg::norm_sq(p * perturbed);
}

PrecodeInstance make_precode_instance(const VppConfig& cls, Rng& rng,
                                      bool opt_oracle) {
  require(cls.users >= 1, "make_precode_instance: need at least one user");
  require(cls.antennas >= cls.users,
          "make_precode_instance: need antennas >= users for zero-forcing");

  PrecodeInstance out;
  out.h = (cls.kind == wireless::ChannelKind::kRayleigh)
              ? wireless::rayleigh_channel(cls.users, cls.antennas, rng)
              : wireless::random_phase_channel(cls.users, cls.antennas, rng);
  const std::size_t payload =
      cls.users * static_cast<std::size_t>(wireless::bits_per_symbol(cls.mod));
  out.tx_bits.resize(payload);
  for (auto& b : out.tx_bits) b = rng.coin() ? 1u : 0u;
  out.mod = cls.mod;
  out.symbols = wireless::modulate_gray(out.tx_bits, cls.mod);
  out.p = zero_forcing_precoder(out.h);

  const double tau = cls.tau > 0.0 ? cls.tau : default_tau(cls.mod);
  out.problem = reduce_vpp_to_ising(out.p, out.symbols, tau, cls.mag_bits);
  out.zf_power = linalg::norm_sq(out.p * out.symbols);
  out.zf_energy = out.problem.ising.energy(zero_perturbation_spins(out.problem));

  // Pre-draw the receiver noise so downlink decode is a pure function of
  // (instance, spins).  SNR convention: per-user symbol energy over
  // per-user noise power, before the gamma normalization penalty.
  out.noise.assign(cls.users, linalg::cplx{0.0, 0.0});
  if (cls.snr_db.has_value()) {
    out.snr_db = *cls.snr_db;
    const double es = wireless::average_symbol_energy(cls.mod);
    out.noise_sigma = std::sqrt(es / std::pow(10.0, out.snr_db / 10.0));
    const double per_component = out.noise_sigma / std::sqrt(2.0);
    for (auto& n : out.noise)
      n = linalg::cplx{rng.normal() * per_component,
                       rng.normal() * per_component};
  }

  if (opt_oracle) {
    out.ground_energy = qubo::brute_force_ground_state(out.problem.ising).energy;
    out.ground_is_opt = true;
  } else {
    out.ground_energy = out.zf_energy;
  }
  return out;
}

double mod_centered(double x, double tau) {
  if (tau <= 0.0) return x;
  return x - tau * std::floor(x / tau + 0.5);
}

wireless::BitVec decode_downlink(const PrecodeInstance& instance,
                                 const qubo::SpinVec& spins) {
  const double tau = instance.problem.tau;
  const linalg::CVec v = perturbation_from_spins(spins, instance.problem.users,
                                                 instance.problem.mag_bits);
  const double gamma = transmit_power(instance.p, instance.symbols, v, tau);
  const double amp = std::sqrt(gamma);
  const wireless::Modulation mod = instance.mod;
  wireless::BitVec decoded;
  decoded.reserve(instance.tx_bits.size());
  for (std::size_t k = 0; k < instance.symbols.size(); ++k) {
    const linalg::cplx received =
        instance.symbols[k] + tau * v[k] + amp * instance.noise[k];
    const linalg::cplx reduced{mod_centered(received.real(), tau),
                               mod_centered(received.imag(), tau)};
    const wireless::BitVec bits = wireless::demap_gray_nearest(reduced, mod);
    decoded.insert(decoded.end(), bits.begin(), bits.end());
  }
  return decoded;
}

std::size_t downlink_bit_errors(const PrecodeInstance& instance,
                                const qubo::SpinVec& spins) {
  return wireless::count_bit_errors(decode_downlink(instance, spins),
                                    instance.tx_bits);
}

std::size_t zero_forcing_bit_errors(const PrecodeInstance& instance) {
  const double amp = std::sqrt(instance.zf_power);
  const wireless::Modulation mod = instance.mod;
  wireless::BitVec decoded;
  decoded.reserve(instance.tx_bits.size());
  for (std::size_t k = 0; k < instance.symbols.size(); ++k) {
    const linalg::cplx received = instance.symbols[k] + amp * instance.noise[k];
    const wireless::BitVec bits = wireless::demap_gray_nearest(received, mod);
    decoded.insert(decoded.end(), bits.begin(), bits.end());
  }
  return wireless::count_bit_errors(decoded, instance.tx_bits);
}

}  // namespace quamax::vpp
