// Future-work bench (paper §8): capacity and performance on the anticipated
// next-generation annealer ("Pegasus" [21]) — "qubits with 2x the degree of
// Chimera, 2x the number of qubits and ... longer range couplings ...
// each chain now only requires N/12 + 1 qubits", which the paper expects to
// "permit ML problems of size, e.g. 175 x 175 for QPSK and dramatically
// increase the parallelization opportunity".
//
// Part 1 recomputes Table 2 on the next-gen chip (including an explicit
// check of the 175x175 QPSK expectation).  Part 2 runs the same decoding
// workload on both chips to quantify the shorter chains' effect on P0/TTS.

#include <cstdio>
#include <string>
#include <vector>

#include "quamax/anneal/annealer.hpp"
#include "quamax/common/stats.hpp"
#include "quamax/sim/knobs.hpp"
#include "quamax/sim/report.hpp"
#include "quamax/sim/runner.hpp"

int main(int argc, char** argv) {
  using namespace quamax;
  using wireless::Modulation;
  const auto [threads, replicas, accept_mode] = sim::kernel_knobs(argc, argv);

  sim::print_banner("Next-generation chip (Pegasus-class, §8)",
                    "paper §8 future work: footprint + decode comparison",
                    "next-gen: 13x13 grid of shore-12 cells, 4,056 qubits, "
                    "chains ceil(N/12)+1");

  const chimera::ChimeraGraph current(16);  // 2000Q
  const chimera::ChimeraGraph nextgen = chimera::ChimeraGraph::next_generation();

  std::printf("\nChip inventory: current %zu qubits / %zu couplers; next-gen "
              "%zu qubits / %zu couplers\n",
              current.num_qubits(), current.num_couplers(), nextgen.num_qubits(),
              nextgen.num_couplers());

  std::printf("\nPart 1 — Table 2 on both chips: logical (physical) qubits\n");
  sim::print_columns({"config", "mod", "2000Q", "next-gen", "P_f 2000Q",
                      "P_f nextgen"});
  const struct {
    std::size_t nt;
    int bits;
    const char* name;
  } configs[] = {{60, 1, "BPSK"},   {120, 1, "BPSK"},  {40, 2, "QPSK"},
                 {78, 2, "QPSK"},   {175, 2, "QPSK"},  {20, 4, "16-QAM"},
                 {39, 4, "16-QAM"}, {26, 6, "64-QAM"}};
  for (const auto& c : configs) {
    const auto cur = chimera::qubit_footprint(c.nt, c.bits, current);
    const auto next = chimera::qubit_footprint(c.nt, c.bits, nextgen);
    const auto cell = [](const chimera::QubitFootprint& fp) {
      return std::to_string(fp.logical) + " (" + std::to_string(fp.physical) +
             ")" + (fp.feasible ? "" : " !");
    };
    sim::print_row(
        {std::to_string(c.nt) + "x" + std::to_string(c.nt), c.name, cell(cur),
         cell(next),
         cur.feasible
             ? sim::fmt_double(chimera::parallelization_factor(cur.logical, current), 1)
             : "-",
         next.feasible
             ? sim::fmt_double(chimera::parallelization_factor(next.logical, nextgen), 1)
             : "-"});
  }
  {
    const auto check = chimera::qubit_footprint(175, 2, nextgen);
    std::printf("\n175x175 QPSK on next-gen: %zu logical, %zu physical, "
                "grid-feasible=%s, qubit-feasible=%s\n",
                check.logical, check.physical,
                (check.logical + 11) / 12 <= nextgen.grid_size() ? "yes" : "no",
                check.physical <= nextgen.num_qubits() ? "yes" : "no");
    std::printf("(the paper's 175x175 estimate needs ~%zu qubits — it assumes "
                "a larger grid than the first Pegasus part)\n",
                check.physical);
  }

  // Part 2: identical decoding workload on both chips.
  const std::size_t instances = sim::scaled(6);
  const std::size_t num_anneals = sim::scaled(400);
  std::printf("\nPart 2 — decode comparison (%zu instances, %zu anneals, "
              "noise-free, Fix parameters):\n",
              instances, num_anneals);
  sim::print_columns({"class", "chip", "chain len", "P0 med", "TTS med us"});
  for (const auto& [users, mod] :
       std::vector<std::pair<std::size_t, Modulation>>{{36, Modulation::kBpsk},
                                                       {18, Modulation::kQpsk},
                                                       {60, Modulation::kBpsk}}) {
    Rng rng{0x9E6 + users};
    std::vector<sim::Instance> insts;
    for (std::size_t i = 0; i < instances; ++i)
      insts.push_back(sim::make_instance(
          {.users = users, .mod = mod, .kind = {}, .snr_db = {}}, rng));

    for (const bool use_nextgen : {false, true}) {
      anneal::AnnealerConfig config;
      config.num_threads = threads;
      config.batch_replicas = replicas;
      config.accept_mode = accept_mode;
      config.schedule.anneal_time_us = 1.0;
      config.schedule.pause_time_us = 1.0;
      config.embed.improved_range = true;
      config.embed.jf = 0.5;
      if (use_nextgen) {
        config.chip_size = 13;
        config.chip_shore = 12;
      }
      anneal::ChimeraAnnealer annealer(config);

      std::vector<double> p0, tts;
      for (const sim::Instance& inst : insts) {
        const sim::RunOutcome outcome =
            sim::run_instance(inst, annealer, num_anneals, rng);
        p0.push_back(outcome.stats.p0());
        tts.push_back(sim::outcome_tts_us(outcome));
      }
      const std::size_t n = insts.front().num_vars();
      const std::size_t shore = use_nextgen ? 12 : 4;
      sim::print_row({std::to_string(users) + "u " + wireless::to_string(mod),
                      use_nextgen ? "next-gen" : "2000Q",
                      std::to_string((n + shore - 1) / shore + 1),
                      sim::fmt_double(median(p0), 4), sim::fmt_us(median(tts))});
    }
  }

  std::printf(
      "\nReading: the shore-12 chip shortens every chain ~3x, which raises\n"
      "P0 (fewer chain degrees of freedom, less ICE dilution of the fields)\n"
      "and multiplies the parallelization factor — the two §8 mechanisms the\n"
      "paper expects to unlock larger MIMO sizes.\n");
  return 0;
}
