#include "quamax/wireless/modulation.hpp"

#include <algorithm>
#include <cmath>

#include "quamax/common/error.hpp"

namespace quamax::wireless {
namespace {

/// Packs an unpacked bit span (MSB first) into an unsigned label.
unsigned pack_bits(const std::uint8_t* bits, int nbits) {
  unsigned label = 0;
  for (int i = 0; i < nbits; ++i) label = (label << 1) | (bits[i] & 1u);
  return label;
}

/// Unpacks `label` into `nbits` bits, MSB first.
void unpack_bits(unsigned label, int nbits, std::uint8_t* out) {
  for (int i = 0; i < nbits; ++i) out[i] = (label >> (nbits - 1 - i)) & 1u;
}

unsigned gray_to_binary(unsigned gray) {
  unsigned bin = gray;
  for (unsigned shift = 1; shift < 32; shift <<= 1) bin ^= bin >> shift;
  return bin;
}

}  // namespace

int bits_per_symbol(Modulation mod) {
  switch (mod) {
    case Modulation::kBpsk: return 1;
    case Modulation::kQpsk: return 2;
    case Modulation::kQam16: return 4;
    case Modulation::kQam64: return 6;
  }
  throw InvalidArgument("bits_per_symbol: unknown modulation");
}

int constellation_size(Modulation mod) { return 1 << bits_per_symbol(mod); }

int bits_per_dimension(Modulation mod) {
  return mod == Modulation::kBpsk ? 1 : bits_per_symbol(mod) / 2;
}

double average_symbol_energy(Modulation mod) {
  switch (mod) {
    case Modulation::kBpsk: return 1.0;
    case Modulation::kQpsk: return 2.0;
    case Modulation::kQam16: return 10.0;
    case Modulation::kQam64: return 42.0;
  }
  throw InvalidArgument("average_symbol_energy: unknown modulation");
}

std::string to_string(Modulation mod) {
  switch (mod) {
    case Modulation::kBpsk: return "BPSK";
    case Modulation::kQpsk: return "QPSK";
    case Modulation::kQam16: return "16-QAM";
    case Modulation::kQam64: return "64-QAM";
  }
  return "?";
}

int pam_level_binary(unsigned label, int nbits) {
  require(nbits >= 1 && nbits <= 8 && label < (1u << nbits),
          "pam_level_binary: label out of range");
  return 2 * static_cast<int>(label) - ((1 << nbits) - 1);
}

int pam_level_gray(unsigned label, int nbits) {
  return pam_level_binary(gray_to_binary(label), nbits);
}

cplx map_quamax(const BitVec& bits, Modulation mod) {
  const int q = bits_per_symbol(mod);
  require(static_cast<int>(bits.size()) == q, "map_quamax: wrong bit count");
  if (mod == Modulation::kBpsk) return cplx{bits[0] ? 1.0 : -1.0, 0.0};
  const int d = bits_per_dimension(mod);
  const unsigned i_label = pack_bits(bits.data(), d);
  const unsigned q_label = pack_bits(bits.data() + d, d);
  return cplx{static_cast<double>(pam_level_binary(i_label, d)),
              static_cast<double>(pam_level_binary(q_label, d))};
}

cplx map_gray(const BitVec& bits, Modulation mod) {
  const int q = bits_per_symbol(mod);
  require(static_cast<int>(bits.size()) == q, "map_gray: wrong bit count");
  if (mod == Modulation::kBpsk) return cplx{bits[0] ? 1.0 : -1.0, 0.0};
  const int d = bits_per_dimension(mod);
  const unsigned i_label = pack_bits(bits.data(), d);
  const unsigned q_label = pack_bits(bits.data() + d, d);
  return cplx{static_cast<double>(pam_level_gray(i_label, d)),
              static_cast<double>(pam_level_gray(q_label, d))};
}

BitVec demap_gray_nearest(cplx observation, Modulation mod) {
  if (mod == Modulation::kBpsk)
    return BitVec{static_cast<std::uint8_t>(observation.real() >= 0.0 ? 1 : 0)};
  const int d = bits_per_dimension(mod);
  const int levels = 1 << d;

  // Slice each dimension to the nearest odd-integer level, then recover the
  // Gray label of that level.
  auto slice = [&](double x) -> unsigned {
    // Levels are -(levels-1), ..., -1, +1, ..., +(levels-1).
    int idx = static_cast<int>(std::lround((x + (levels - 1)) / 2.0));
    idx = std::clamp(idx, 0, levels - 1);
    // idx is the binary-offset label; find the Gray label mapping to it.
    // binary b -> gray g = b ^ (b >> 1).
    const auto b = static_cast<unsigned>(idx);
    return b ^ (b >> 1);
  };

  BitVec out(static_cast<std::size_t>(2) * d);
  unpack_bits(slice(observation.real()), d, out.data());
  unpack_bits(slice(observation.imag()), d, out.data() + d);
  return out;
}

BitVec translate_quamax_to_gray_paper(const BitVec& quamax_bits, Modulation mod) {
  const int q = bits_per_symbol(mod);
  require(static_cast<int>(quamax_bits.size()) == q,
          "translate_quamax_to_gray_paper: wrong bit count");
  // BPSK and QPSK: the QuAMax transform already matches the Gray map
  // (1 bit per dimension), so the translation is the identity (§3.2.1).
  if (mod == Modulation::kBpsk || mod == Modulation::kQpsk) return quamax_bits;

  const int d = bits_per_dimension(mod);

  // Step 1 — intermediate code (Fig. 2(a) -> (b)): flip even-numbered
  // columns upside down.  A column is even-numbered exactly when the I
  // label's least significant bit is 1 (e.g. for 16-QAM, when q_{4i-2} = 1);
  // "upside down" reverses the Q levels, i.e. complements every Q bit.
  BitVec b = quamax_bits;
  if (b[d - 1]) {
    for (int k = d; k < q; ++k) b[k] ^= 1u;
  }

  // Step 2 — differential bit encoding (Fig. 2(b) -> (d)): chained XOR
  // across ALL of the user's bits (the chain deliberately crosses the I/Q
  // boundary; step 1 exists to make that crossing benign).
  BitVec gray(b.size());
  gray[0] = b[0];
  for (int k = 1; k < q; ++k) gray[k] = b[k - 1] ^ b[k];
  return gray;
}

BitVec translate_quamax_to_gray(const BitVec& quamax_bits, Modulation mod) {
  const int q = bits_per_symbol(mod);
  require(static_cast<int>(quamax_bits.size()) == q,
          "translate_quamax_to_gray: wrong bit count");
  if (mod == Modulation::kBpsk || mod == Modulation::kQpsk) return quamax_bits;
  const int d = bits_per_dimension(mod);
  BitVec out(quamax_bits.size());
  for (int dim = 0; dim < 2; ++dim) {
    const std::uint8_t* src = quamax_bits.data() + dim * d;
    std::uint8_t* dst = out.data() + dim * d;
    dst[0] = src[0];
    for (int k = 1; k < d; ++k) dst[k] = src[k - 1] ^ src[k];
  }
  return out;
}

BitVec translate_gray_to_quamax(const BitVec& gray_bits, Modulation mod) {
  const int q = bits_per_symbol(mod);
  require(static_cast<int>(gray_bits.size()) == q,
          "translate_gray_to_quamax: wrong bit count");
  if (mod == Modulation::kBpsk || mod == Modulation::kQpsk) return gray_bits;
  const int d = bits_per_dimension(mod);
  BitVec out(gray_bits.size());
  for (int dim = 0; dim < 2; ++dim) {
    const std::uint8_t* src = gray_bits.data() + dim * d;
    std::uint8_t* dst = out.data() + dim * d;
    dst[0] = src[0];
    for (int k = 1; k < d; ++k) dst[k] = dst[k - 1] ^ src[k];  // prefix XOR
  }
  return out;
}

CVec modulate_gray(const BitVec& bits, Modulation mod) {
  const int q = bits_per_symbol(mod);
  require(bits.size() % static_cast<std::size_t>(q) == 0,
          "modulate: bit count not a multiple of bits/symbol");
  const std::size_t nt = bits.size() / static_cast<std::size_t>(q);
  CVec symbols(nt);
  BitVec user(q);
  for (std::size_t u = 0; u < nt; ++u) {
    std::copy_n(bits.begin() + static_cast<std::ptrdiff_t>(u * q), q, user.begin());
    symbols[u] = map_gray(user, mod);
  }
  return symbols;
}

BitVec demodulate_gray(const CVec& symbols, Modulation mod) {
  const int q = bits_per_symbol(mod);
  BitVec bits;
  bits.reserve(symbols.size() * static_cast<std::size_t>(q));
  for (const cplx& s : symbols) {
    const BitVec user = demap_gray_nearest(s, mod);
    bits.insert(bits.end(), user.begin(), user.end());
  }
  return bits;
}

}  // namespace quamax::wireless
