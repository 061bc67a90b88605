// E15 — the closed loop at scale: build the TZ sketches *in the network*
// (event-driven simulator, echo termination, parallel node stepping),
// validate the Theorem 1.1 round/message bounds explicitly as measured /
// bound ratios, then pack the distributed labels into the serving-tier
// SketchStore and answer through the sharded QueryService — requiring
// every answer to be distance-identical to a tz_query over the
// centralized construction on the same hierarchy.
//
// The bound columns use the known-S deadline the implementation pads to,
//   rounds <= k * (3 n^{1/k} ln n * S + 2S + 16),
// and the whp bunch bound of Lemma 3.1 (4 n^{1/k} ln n broadcasts per
// node per phase, each crossing every incident edge),
//   messages <= 2|E| * k * 4 n^{1/k} ln n.
// Both ratios must land well under 1; the full grid runs this at n=100k.
//
// The bounds row splits the simulator's wall time (BFS tree + TZ run) into
// its step, splice and deliver phases beside build_seconds, and reads the
// process's peak RSS right after the build. The peak is process-wide: in
// a repro grid it includes the cells that ran before, so only a standalone
// run isolates the build's.
//
// Flags: --n / --graph (primary graph, default n=2048 ER with avg degree
// 8), --k (4), --sim-threads (0 = all hardware threads), --queries
// (5000), --seed (7).
#include <sys/resource.h>

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "dynamics/incremental.hpp"
#include "serve/query_service.hpp"
#include "serve/sketch_store.hpp"
#include "sketch/tz_centralized.hpp"
#include "sketch/tz_distributed.hpp"
#include "util/rng.hpp"

namespace dsketch::bench {

int run_e15(const FlagSet& flags, std::ostream& out) {
  const Graph g = primary_graph(flags, 2048, 8.0 / 2048, {1, 12}, 7);
  const auto k = static_cast<std::uint32_t>(flags.get("k", std::int64_t{4}));
  const auto sim_threads =
      static_cast<unsigned>(flags.get("sim-threads", std::int64_t{0}));
  const auto num_queries =
      static_cast<std::size_t>(flags.get("queries", std::int64_t{5000}));
  const auto seed =
      static_cast<std::uint64_t>(flags.get("seed", std::int64_t{7}));

  const NodeId n = g.num_nodes();
  const auto m = static_cast<double>(g.num_edges());
  const std::uint32_t S = sp_diameter_auto(g, 8, 3);
  const Hierarchy h = Hierarchy::sample(n, k, seed + 11);

  // --- in-network build (the tentpole path: event-driven, threaded) ----
  SimConfig cfg;
  cfg.threads = sim_threads;
  Timer build_timer;
  const TzDistributedResult r =
      build_tz_distributed(g, h, TerminationMode::kEcho, cfg);
  const double build_seconds = build_timer.seconds();
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  SimStats combined = r.tree_stats;
  combined += r.stats;
  for (const SimPhase& p : combined.breakdown()) {
    row("e15", "phase_breakdown")
        .add("n", static_cast<std::uint64_t>(n))
        .add("phase", p.label)
        .add("rounds", p.rounds)
        .add("messages", p.messages)
        .add("words", p.words)
        .add("node_steps", p.node_steps)
        .add("max_outbox", p.max_outbox)
        .add("hit_round_limit", p.hit_round_limit)
        .emit(out);
  }
  for (std::size_t i = 0; i < r.phase_end_rounds.size(); ++i) {
    row("e15", "phase_ends")
        .add("phase_index", static_cast<std::uint64_t>(i))
        .add("end_round", r.phase_end_rounds[i])
        .emit(out);
  }

  // --- Theorem 1.1 bound validation --------------------------------------
  const double nk = std::pow(static_cast<double>(n), 1.0 / k);
  const double ln_n = std::log(static_cast<double>(n));
  const double round_bound = k * (3.0 * nk * ln_n * S + 2.0 * S + 16.0);
  const double message_bound = 2.0 * m * k * 4.0 * nk * ln_n;
  const std::uint64_t rounds = r.total_rounds();
  const std::uint64_t messages = r.total_messages();
  row("e15", "bounds")
      .add("n", static_cast<std::uint64_t>(n))
      .add("edges", static_cast<std::uint64_t>(g.num_edges()))
      .add("k", k)
      .add("S", S)
      .add("sim_threads", static_cast<std::uint64_t>(sim_threads))
      .add("rounds", rounds)
      .add("round_bound", round_bound)
      .add("round_ratio", static_cast<double>(rounds) / round_bound)
      .add("messages", messages)
      .add("message_bound", message_bound)
      .add("message_ratio", static_cast<double>(messages) / message_bound)
      .add("max_outbox", combined.max_outbox)
      .add("build_seconds", build_seconds)
      .add("step_seconds", combined.step_seconds)
      .add("splice_seconds", combined.splice_seconds)
      .add("deliver_seconds", combined.deliver_seconds)
      .add("peak_rss_mb", peak_rss_mb)
      .emit(out);

  // --- pack + serve, verified against the centralized build --------------
  Timer central_timer;
  const LabelArena central = build_tz_centralized(g, h);
  const double central_seconds = central_timer.seconds();
  std::uint64_t label_mismatches = 0;
  for (NodeId u = 0; u < n; ++u) {
    if (!(r.labels.view(u) == central.view(u))) ++label_mismatches;
  }

  const TzLabelOracle oracle(r.labels, k);
  Timer pack_timer;
  const SketchStore store = SketchStore::from_oracle(oracle);
  const double pack_seconds = pack_timer.seconds();

  QueryServiceConfig qcfg;
  qcfg.shards = 8;
  qcfg.threads = sim_threads;
  QueryService service(store, qcfg);
  Rng rng(seed * 131 + 5);
  std::vector<QueryService::Pair> pairs;
  pairs.reserve(num_queries);
  for (std::size_t i = 0; i < num_queries; ++i) {
    pairs.emplace_back(static_cast<NodeId>(rng.below(n)),
                       static_cast<NodeId>(rng.below(n)));
  }
  std::vector<Dist> answers(pairs.size());
  Timer serve_timer;
  service.query_batch(pairs, answers);
  const double serve_seconds = serve_timer.seconds();
  std::uint64_t query_mismatches = 0;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (answers[i] != tz_query(central.view(pairs[i].first),
                               central.view(pairs[i].second))) {
      ++query_mismatches;
    }
  }
  row("e15", "serve")
      .add("n", static_cast<std::uint64_t>(n))
      .add("queries", static_cast<std::uint64_t>(pairs.size()))
      .add("label_mismatches", label_mismatches)
      .add("query_mismatches", query_mismatches)
      .add("store_bytes", static_cast<std::uint64_t>(store.encoded_bytes()))
      .add("pack_seconds", pack_seconds)
      .add("centralized_build_seconds", central_seconds)
      .add("ns_per_query",
           serve_seconds * 1e9 / static_cast<double>(pairs.size()))
      .emit(out);

  note(out, "e15",
       "Expected shape: round_ratio and message_ratio both well under 1 "
       "(the echo build terminates long before the padded known-S "
       "deadline, and bunch sizes sit below the whp bound); "
       "label_mismatches and query_mismatches exactly 0 — the in-network "
       "build, packed and served, is distance-identical to the "
       "centralized construction.");
  // The crisp predicates fail the cell: the build stays under both
  // Theorem 1.1 bounds and serves the centralized answers exactly.
  const bool ok = static_cast<double>(rounds) < round_bound &&
                  static_cast<double>(messages) < message_bound &&
                  label_mismatches == 0 && query_mismatches == 0;
  return ok ? 0 : 1;
}

}  // namespace dsketch::bench
