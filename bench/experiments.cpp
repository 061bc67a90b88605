#include "experiments.hpp"

#include <exception>
#include <iostream>

namespace dsketch::bench {

const std::vector<Experiment>& experiment_registry() {
  static const std::vector<Experiment> registry = {
      {"e1", "tz_stretch",
       "TZ stretch vs k (Theorem 1.1: stretch <= 2k-1)", run_e1},
      {"e2", "tz_size",
       "TZ sketch size vs n and k (Lemma 3.1: E[size] = O(k n^{1/k}))",
       run_e2},
      {"e3", "tz_cost",
       "TZ construction cost and termination modes (Theorem 1.1)", run_e3},
      {"e4", "slack",
       "eps-slack sketches (Theorem 4.3) + density nets (Lemma 4.2)",
       run_e4},
      {"e5", "cdg", "(eps,k)-CDG sketches (Theorem 4.6)", run_e5},
      {"e6", "graceful",
       "Gracefully degrading sketches vs TZ(k=log n) (Theorem 1.3)", run_e6},
      {"e7", "query",
       "Per-query latency of every scheme, built vs loaded vs mmap store "
       "(Lemma 3.2)",
       run_e7, /*alone=*/true},
      {"e8", "online",
       "Online query cost: no-preprocessing Omega(S) vs sketch exchange "
       "(section 2.1)",
       run_e8},
      {"e9", "coords",
       "Coordinate systems vs sketches on friendly and hostile graphs "
       "(section 1)",
       run_e9},
      {"e10", "spanner",
       "TZ spanner extraction: size vs stretch tradeoff", run_e10},
      {"e11", "failures",
       "Stale sketches under edge failures, and rebuild cost", run_e11},
      {"e12", "serving",
       "Serving-tier throughput: store round trip + sharded query service",
       run_e12, /*alone=*/true},
      {"e13", "kernel",
       "Shortest-path kernel: bucket vs heap engines, serial vs parallel "
       "TZ construction",
       run_e13, /*alone=*/true},
      {"e14", "dynamic",
       "Live sketch refresh: serving through churn with incremental "
       "repair, rebuild policies, and zero-downtime hot-swap",
       run_e14, /*alone=*/true},
      {"e15", "congest",
       "End-to-end CONGEST pipeline at scale: in-network build, Theorem "
       "1.1 round/message bound ratios, pack + serve verified against "
       "the centralized construction",
       run_e15, /*alone=*/true},
      {"e16", "faults",
       "Fault injection and recovery: loss x crash sweep over seeded "
       "FaultPlans, label identity under retransmission, and failover "
       "to the previous generation when the serving oracle throws",
       run_e16},
  };
  return registry;
}

const Experiment* find_experiment(const std::string& id) {
  for (const Experiment& exp : experiment_registry()) {
    if (exp.id == id || exp.name == id) return &exp;
  }
  return nullptr;
}

int experiment_main(const std::string& id, int argc, char** argv) {
  const Experiment* exp = find_experiment(id);
  if (exp == nullptr) {
    std::cerr << "unknown experiment: " << id << "\n";
    return 2;
  }
  const FlagSet flags(argc, argv);
  if (flags.get_bool("help")) {
    std::cerr << exp->id << " (" << exp->name << "): " << exp->title
              << "\nSee docs/BENCHMARKS.md for flags and output schema.\n";
    return 0;
  }
  try {
    return exp->run(flags, std::cout);
  } catch (const std::exception& e) {
    std::cerr << exp->id << ": error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace dsketch::bench
