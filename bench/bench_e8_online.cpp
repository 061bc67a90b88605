// E8 — §2.1: preprocessing pays off when S >> D.
//
// An online distance computation without preprocessing costs Omega(S)
// rounds (distributed Bellman-Ford / ping along weighted shortest paths —
// S can be as large as n). With sketches, a query is an exchange of
// O(sketch) words over <= D hops: D + words rounds pipelined (the paper's
// cruder bound is D * words). The interesting regime is S >> D: graphs
// where weighted shortest paths take many light hops but a few heavy
// shortcut edges keep the hop diameter small — e.g. a light ring with
// heavy chords. In overlays where the peer's address is known (§2.1), the
// exchange is direct and D drops out entirely.
//
// Exits 1 when a measured exchange does not complete or the words node 0
// receives differ from the words the peer sent.
//
// Flags: --nmax (2048) skips topologies larger than the cap.
#include "bench_common.hpp"
#include "congest/bellman_ford.hpp"
#include "congest/sketch_exchange.hpp"
#include "obs/round_log.hpp"
#include "serve/sketch_store.hpp"
#include "sketch/cdg_sketch.hpp"
#include "sketch/tz_distributed.hpp"

namespace dsketch::bench {

int run_e8(const FlagSet& flags, std::ostream& out) {
  const auto nmax = static_cast<NodeId>(flags.get("nmax", std::int64_t{2048}));
  struct Topo {
    std::string name;
    std::string regime;
    Graph g;
  };
  std::vector<Topo> topos;
  topos.push_back(
      {"erdos_renyi_512", "S~D", erdos_renyi(512, 0.015, {1, 4}, 5)});
  topos.push_back({"grid_16x32", "moderate S/D", grid2d(16, 32, {1, 4}, 5)});
  // Light ring + heavy chords: chords give ~O(log n) hop routes but never
  // carry weighted shortest paths, so S stays ~n/2 while D collapses.
  topos.push_back({"ring_heavy_chords_512", "S>>D",
                   ring_with_chords(512, 1024, 1, 60000, 7)});
  if (nmax >= 2048) {
    topos.push_back({"ring_heavy_chords_2048", "S>>D",
                     ring_with_chords(2048, 6144, 1, 60000, 7)});
  }

  // Per-round telemetry of the online BF runs, one phase per topology:
  // the round count alone hides that message traffic collapses long
  // before the last (heavy-path) distance settles.
  obs::RoundLog::Options log_opts;
  log_opts.experiment = "e8";
  obs::RoundLog round_log(out, log_opts);

  int bad_exchanges = 0;
  for (auto& t : topos) {
    if (t.g.num_nodes() > nmax) continue;
    const std::uint32_t D = hop_diameter_auto(t.g, 6, 3);
    const std::uint32_t S = sp_diameter_auto(t.g, 6, 3);
    SimConfig online_cfg;
    online_cfg.phase = "online_bf_" + t.name;
    online_cfg.round_log = &round_log;
    const SimStats online = online_distance_rounds(t.g, 0, online_cfg);

    // Build labels directly so we can serialize one for the exchange.
    const Hierarchy h = Hierarchy::sample(t.g.num_nodes(), 4, 19);
    const auto built = build_tz_distributed(t.g, h, TerminationMode::kOracle);
    double mean_words = 0;
    for (NodeId u = 0; u < t.g.num_nodes(); ++u) {
      mean_words += static_cast<double>(built.labels.size_words(u));
    }
    mean_words /= t.g.num_nodes();

    // Measured exchange: node 0 fetches the sketch of the "far" node n/2.
    const NodeId peer = t.g.num_nodes() / 2;
    const std::vector<Word> sent = serialize_label(built.labels.view(peer));
    const auto exchange = exchange_sketch(t.g, 0, peer, sent);
    if (!exchange.complete || exchange.words != sent) ++bad_exchanges;
    row("e8", "per_query_rounds")
        .add("topology", t.name)
        .add("regime", t.regime)
        .add("n", static_cast<std::uint64_t>(t.g.num_nodes()))
        .add("D", D)
        .add("S", S)
        .add("online_bf_rounds", online.rounds)
        .add("sketch_words", mean_words)
        .add("measured_exchange_rounds", exchange.stats.rounds)
        .add("model_d_plus_words", D + mean_words)
        .add("speedup_measured", static_cast<double>(online.rounds) /
                                     static_cast<double>(
                                         exchange.stats.rounds))
        .emit(out);
  }
  round_log.flush();

  {
    const Graph g = ring_with_chords(512, 1024, 1, 60000, 7);
    const std::uint32_t D = hop_diameter_auto(g, 6, 3);
    const SimStats online = online_distance_rounds(g, 0);
    BuildConfig cfg;
    cfg.scheme = Scheme::kThorupZwick;
    cfg.k = 4;
    const SketchStore sketches(g, cfg);
    const double exchange = D + sketches.mean_size_words();
    for (const std::uint64_t q : {1ull, 10ull, 100ull, 10000ull}) {
      const double amortized =
          static_cast<double>(sketches.build_cost()->rounds) /
              static_cast<double>(q) +
          exchange;
      row("e8", "amortization")
          .add("n", std::uint64_t{512})
          .add("queries", q)
          .add("rounds_per_query_sketch", amortized)
          .add("rounds_per_query_online",
               static_cast<double>(online.rounds))
          .emit(out);
    }
  }
  note(out, "e8",
       "Expected shape: speedup <1 on S~D graphs (preprocessing cannot "
       "help), rising well above 1 as S/D grows; amortized per-query cost "
       "drops below the online cost once a handful of queries share the "
       "preprocessing.");
  return bad_exchanges == 0 ? 0 : 1;
}

}  // namespace dsketch::bench
