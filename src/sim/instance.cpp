#include "quamax/sim/instance.hpp"

#include "quamax/detect/sphere.hpp"

namespace quamax::sim {

Instance make_instance_from_use(wireless::ChannelUse use, bool ml_oracle) {
  core::MlProblem problem = core::reduce_ml(use.h, use.y, use.mod);
  return make_instance_with_problem(std::move(use), std::move(problem),
                                    ml_oracle);
}

Instance make_instance_with_problem(wireless::ChannelUse use,
                                    core::MlProblem problem, bool ml_oracle) {
  Instance inst;
  inst.problem = std::move(problem);
  inst.tx_spins =
      core::spins_for_gray_bits(use.tx_bits, use.h.cols(), use.mod);
  inst.tx_energy = inst.problem.ising.energy(inst.tx_spins);

  if (use.noise_sigma == 0.0) {
    // Noise-free: zero residual, so the transmitted configuration is the
    // exact ground state.
    inst.ground_energy = inst.tx_energy;
    inst.ground_is_ml = true;
  } else if (ml_oracle) {
    const detect::SphereResult ml = detect::SphereDecoder{}.detect(use);
    const qubo::SpinVec ml_spins =
        core::spins_for_gray_bits(ml.bits, use.h.cols(), use.mod);
    inst.ground_energy = inst.problem.ising.energy(ml_spins);
    inst.ground_is_ml = true;
  } else {
    inst.ground_energy = inst.tx_energy;  // best available anchor
    inst.ground_is_ml = false;
  }
  inst.use = std::move(use);
  return inst;
}

Instance make_instance(const ProblemClass& cls, Rng& rng, bool ml_oracle) {
  wireless::ChannelUse use =
      cls.snr_db ? wireless::make_channel_use(cls.users, cls.users, cls.mod,
                                              cls.kind, *cls.snr_db, rng)
                 : wireless::make_noise_free_use(cls.users, cls.mod, rng);
  return make_instance_from_use(std::move(use), ml_oracle);
}

}  // namespace quamax::sim
