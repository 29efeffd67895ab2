// Ablation studies for the design choices DESIGN.md calls out.  Not a paper
// figure — these isolate the mechanisms behind the reproduction:
//
//   A. Embedding overhead — the same SA kernel on the embedded Chimera
//      problem vs directly on the logical fully-connected problem.  The gap
//      is the price of the hardware graph (and the reason the paper's
//      footprint/chain analysis matters at all).
//   B. ICE noise — the washout arm of Fig. 5 in isolation: P0 vs |J_F| with
//      the analog control error switched on and off.
//   C. Chain-collective moves — the modeling choice documented in
//      sa_engine.hpp: without a stand-in for coherent chain dynamics,
//      single-spin SA cannot decode embedded problems at all.
//   D. Unembedding strategy — the paper's majority vote vs discarding every
//      sample containing a broken chain.

#include <cstdio>
#include <string>
#include <vector>

#include "quamax/anneal/annealer.hpp"
#include "quamax/common/stats.hpp"
#include "quamax/sim/knobs.hpp"
#include "quamax/sim/report.hpp"
#include "quamax/sim/runner.hpp"

namespace {

using namespace quamax;
using wireless::Modulation;

std::vector<sim::Instance> make_instances(std::size_t users, Modulation mod,
                                          std::size_t count, std::uint64_t seed) {
  Rng rng{seed};
  std::vector<sim::Instance> out;
  for (std::size_t i = 0; i < count; ++i)
    out.push_back(sim::make_instance(
        {.users = users, .mod = mod, .kind = {}, .snr_db = {}}, rng));
  return out;
}

/// The Fix parameters over the --threads / --replicas / --accept-mode knobs.
anneal::AnnealerConfig fix_config(int argc, char** argv) {
  anneal::AnnealerConfig config = sim::annealer_config(argc, argv);
  config.schedule.anneal_time_us = 1.0;
  config.schedule.pause_time_us = 1.0;
  config.embed.improved_range = true;
  config.embed.jf = 0.5;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  const anneal::AnnealerConfig fix = fix_config(argc, argv);
  const std::size_t instances = sim::scaled(6);
  const std::size_t num_anneals = sim::scaled(400);
  sim::print_banner("Ablations", "DESIGN.md §5 (not a paper artifact)",
                    "instances = " + std::to_string(instances) +
                        ", anneals = " + std::to_string(num_anneals));
  Rng rng{0xAB1A};

  // --- A: embedded vs logical --------------------------------------------
  std::printf("\nA. Embedding overhead (noise-free instances):\n");
  sim::print_columns({"class", "sampler", "P0 med", "TTS med us"});
  for (const auto& [users, mod] :
       std::vector<std::pair<std::size_t, Modulation>>{{36, Modulation::kBpsk},
                                                       {18, Modulation::kQpsk}}) {
    const auto insts = make_instances(users, mod, instances, 0xA0 + users);
    {
      anneal::ChimeraAnnealer annealer(fix);
      std::vector<double> p0, tts;
      for (const auto& inst : insts) {
        const auto outcome = sim::run_instance(inst, annealer, num_anneals, rng);
        p0.push_back(outcome.stats.p0());
        tts.push_back(sim::outcome_tts_us(outcome));
      }
      sim::print_row({std::to_string(users) + "u " + wireless::to_string(mod),
                      "embedded", sim::fmt_double(median(p0), 4),
                      sim::fmt_us(median(tts))});
    }
    {
      anneal::LogicalAnnealer annealer({.schedule = fix.schedule,
                                        .num_threads = fix.num_threads,
                                        .batch_replicas = fix.batch_replicas,
                                        .accept_mode = fix.accept_mode});
      std::vector<double> p0, tts;
      for (const auto& inst : insts) {
        const auto outcome = sim::run_instance(inst, annealer, num_anneals, rng);
        p0.push_back(outcome.stats.p0());
        tts.push_back(sim::outcome_tts_us(outcome));
      }
      sim::print_row({std::to_string(users) + "u " + wireless::to_string(mod),
                      "logical", sim::fmt_double(median(p0), 4),
                      sim::fmt_us(median(tts))});
    }
  }

  // --- B: ICE on/off -------------------------------------------------------
  std::printf("\nB. ICE washout (36-user BPSK, P0 vs |J_F|):\n");
  sim::print_columns({"|J_F|", "P0 ICE on", "P0 ICE off"});
  {
    const auto insts = make_instances(36, Modulation::kBpsk, instances, 0xB0);
    for (const double jf : {0.35, 0.5, 1.0, 2.0}) {
      std::vector<double> with_ice, without_ice;
      for (const bool ice : {true, false}) {
        auto config = fix;
        config.embed.jf = jf;
        config.ice.enabled = ice;
        anneal::ChimeraAnnealer annealer(config);
        for (const auto& inst : insts)
          (ice ? with_ice : without_ice)
              .push_back(sim::run_instance(inst, annealer, num_anneals, rng)
                             .stats.p0());
      }
      sim::print_row({sim::fmt_double(jf, 2), sim::fmt_double(median(with_ice), 4),
                      sim::fmt_double(median(without_ice), 4)});
    }
  }

  // --- C: chain-collective moves on/off -----------------------------------
  std::printf("\nC. Chain-collective moves (36-user BPSK):\n");
  sim::print_columns({"collective", "P0 med", "TTS med us"});
  {
    const auto insts = make_instances(36, Modulation::kBpsk, instances, 0xC0);
    for (const bool collective : {true, false}) {
      auto config = fix;
      config.chain_collective_moves = collective;
      anneal::ChimeraAnnealer annealer(config);
      std::vector<double> p0, tts;
      for (const auto& inst : insts) {
        const auto outcome = sim::run_instance(inst, annealer, num_anneals, rng);
        p0.push_back(outcome.stats.p0());
        tts.push_back(sim::outcome_tts_us(outcome));
      }
      sim::print_row({collective ? "on" : "off", sim::fmt_double(median(p0), 4),
                      sim::fmt_us(median(tts))});
    }
  }

  // --- D: unembedding strategy --------------------------------------------
  std::printf("\nD. Unembedding: majority vote vs discarding broken samples\n");
  std::printf("   (18-user QPSK at deliberately weak |J_F| so chains break):\n");
  sim::print_columns({"|J_F|", "strategy", "kept", "E[BER](Na)", "P0"});
  {
    const auto insts = make_instances(18, Modulation::kQpsk, 1, 0xD0);
    const sim::Instance& inst = insts.front();
    for (const double jf : {0.2, 0.35}) {
      for (const bool discard : {false, true}) {
        auto config = fix;
        config.embed.jf = jf;
        config.discard_broken_chain_samples = discard;
        anneal::ChimeraAnnealer annealer(config);
        const auto samples = annealer.sample(inst.problem.ising, num_anneals, rng);
        if (samples.empty()) {
          sim::print_row({sim::fmt_double(jf, 2), discard ? "discard" : "vote",
                          "0", "-", "-"});
          continue;
        }
        std::vector<double> energies;
        for (const auto& s : samples)
          energies.push_back(inst.problem.ising.energy(s));
        const auto stats = metrics::SolutionStats::build(
            samples, energies, inst.use.tx_bits, inst.use.h.cols(), inst.use.mod,
            inst.ground_energy);
        sim::print_row({sim::fmt_double(jf, 2), discard ? "discard" : "vote",
                        std::to_string(samples.size()) + "/" +
                            std::to_string(num_anneals),
                        sim::fmt_ber(stats.expected_ber(samples.size())),
                        sim::fmt_double(stats.p0(), 4)});
      }
    }
  }

  std::printf(
      "\nReading: (A) the embedding costs one-to-two orders of magnitude in\n"
      "TTS vs an idealized all-to-all machine; (B) removing ICE removes the\n"
      "large-|J_F| washout arm; (C) without collective chain dynamics the\n"
      "embedded problem is unsolvable — the physical annealer's coherent\n"
      "multi-qubit flips are doing real work; (D) majority vote salvages\n"
      "information discarding would lose, at equal anneal budget.\n");
  return 0;
}
