// E7 — Lemma 3.2: the query procedure runs in O(k) time given two labels.
//
// Hand-rolled timing loops over the query path for each scheme; the TZ
// query should grow (sub-)linearly in k and stay in the tens to hundreds
// of nanoseconds — the "quickly in an online fashion" claim of §1. Each
// config is timed through the freshly built `SketchStore` (the
// `engine_ns_per_query` column), the same sketch set loaded back from
// its v4 file into one heap buffer (`store_ns_per_query`), and the same
// file mapped (`SketchStore::open`), cold and warm: one class, one
// packed layout, one query kernel over all three.
//
// A second table (`oracle_latency`) times every oracle named by
// --oracles (default "tz,landmark,exact") through the registry-resolved
// DistanceOracle interface — one code path for sketches and baselines,
// both per-query and batched — so the sketch/baseline latency-vs-size
// trade-off lands in one table.
//
// Flags: --n (1024) / --graph FILE select the instance, --queries
// (200000) timed pairs per config, --oracles NAME,NAME,...
#include <algorithm>
#include <filesystem>
#include <memory>

#include "bench_common.hpp"
#include "core/oracle_registry.hpp"
#include "obs_overhead.hpp"
#include "serve/sketch_store.hpp"
#include "util/rng.hpp"

namespace dsketch::bench {

namespace {

std::vector<std::pair<NodeId, NodeId>> random_pairs(NodeId n,
                                                    std::size_t count,
                                                    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    pairs.emplace_back(static_cast<NodeId>(rng.below(n)),
                       static_cast<NodeId>(rng.below(n)));
  }
  return pairs;
}

/// Times one config; returns the mapped-vs-heap answer mismatches.
std::size_t run_config(const Graph& g, const BuildConfig& cfg,
                       const char* scheme, std::size_t queries,
                       const std::string& store_path, std::ostream& out) {
  const SketchStore built(g, cfg);
  built.save_file(store_path);
  const SketchStore store = SketchStore::load_file(store_path);
  const auto pairs = random_pairs(g.num_nodes(), queries, 5);
  const double built_ns = time_ns_per_query(
      pairs, [&](NodeId u, NodeId v) { return built.query(u, v); });
  const double store_ns = time_ns_per_query(
      pairs, [&](NodeId u, NodeId v) { return store.query(u, v); });

  // The mmap serving path, split cold vs warm. Cold: pages dropped from
  // the page cache (MADV_DONTNEED), so the first pass pays the fault-in
  // of every offset-table and blob page it touches. Warm: same pairs
  // again with the mapping resident — the steady-state serving number.
  const auto mmap_store = SketchStore::open(store_path);
  std::size_t mmap_mismatches = 0;
  for (const auto& [u, v] : pairs) {
    if (mmap_store->query(u, v) != store.query(u, v)) ++mmap_mismatches;
  }
  mmap_store->drop_pages();
  const double mmap_cold_ns = time_ns_per_query(
      pairs, [&](NodeId u, NodeId v) { return mmap_store->query(u, v); });
  const double mmap_warm_ns = time_ns_per_query(
      pairs, [&](NodeId u, NodeId v) { return mmap_store->query(u, v); });

  row("e7", "query_latency")
      .add("scheme", scheme)
      .add("k", cfg.k)
      .add("epsilon", cfg.epsilon)
      .add("n", static_cast<std::uint64_t>(g.num_nodes()))
      .add("queries", static_cast<std::uint64_t>(queries))
      .add("engine_ns_per_query", built_ns)
      .add("store_ns_per_query", store_ns)
      .add("mmap_cold_ns_per_query", mmap_cold_ns)
      .add("mmap_warm_ns_per_query", mmap_warm_ns)
      .add("mmap_mismatches", static_cast<std::uint64_t>(mmap_mismatches))
      .add("mmap_bytes", static_cast<std::uint64_t>(
                                 std::filesystem::file_size(store_path)))
      .add("mean_sketch_words", built.mean_size_words())
      .emit(out);
  return mmap_mismatches;
}

}  // namespace

int run_e7(const FlagSet& flags, std::ostream& out) {
  const auto queries =
      static_cast<std::size_t>(flags.get("queries", std::int64_t{200000}));
  const Graph g = primary_graph(flags, 1024, 8.0 / 1024, {1, 16}, 99);
  // The repro runner sets --tmpdir to a cell-private directory so parallel
  // cells never collide on the store file.
  const std::string tmpdir = flags.get("tmpdir", std::string{});
  const std::string store_path = flags.get(
      "out", tmpdir.empty() ? std::string("e7_query.store")
                            : tmpdir + "/e7_query.store");

  std::size_t mmap_mismatches = 0;
  for (const std::uint32_t k : {1u, 2u, 4u, 8u}) {
    BuildConfig cfg;
    cfg.scheme = Scheme::kThorupZwick;
    cfg.k = k;
    mmap_mismatches += run_config(g, cfg, "tz", queries, store_path, out);
  }
  for (const double inv_eps : {5.0, 10.0, 20.0}) {
    BuildConfig cfg;
    cfg.scheme = Scheme::kSlack;
    cfg.epsilon = 1.0 / inv_eps;
    mmap_mismatches += run_config(g, cfg, "slack", queries, store_path, out);
  }
  {
    BuildConfig cfg;
    cfg.scheme = Scheme::kCdg;
    cfg.k = 2;
    mmap_mismatches += run_config(g, cfg, "cdg", queries, store_path, out);
  }
  {
    BuildConfig cfg;
    cfg.scheme = Scheme::kGraceful;
    // Graceful queries scan every epsilon level; 10x fewer reps keeps the
    // runtime in line (floor of 1 so tiny --queries still measures).
    mmap_mismatches +=
        run_config(g, cfg, "graceful", std::max<std::size_t>(1, queries / 10),
                   store_path, out);
  }

  // Scheme-agnostic comparison: every oracle resolved by registry name
  // through the same build/query code path — sketches and baselines in
  // one table.
  {
    const auto pairs = random_pairs(g.num_nodes(), queries, 5);
    for (const std::string& name : parse_name_list(
             flags.get("oracles", std::string("tz,landmark,exact")))) {
      const std::unique_ptr<DistanceOracle> oracle =
          OracleRegistry::instance().build(name, g, flags);
      const double ns = time_ns_per_query(
          pairs, [&](NodeId u, NodeId v) { return oracle->query(u, v); });
      // The batched path (the serving hot loop), amortized per query.
      std::vector<Dist> answers(pairs.size());
      oracle->query_batch(pairs, answers);  // warmup
      Timer timer;
      oracle->query_batch(pairs, answers);
      const double batch_ns =
          timer.seconds() * 1e9 / static_cast<double>(pairs.size());
      row("e7", "oracle_latency")
          .add("oracle", name)
          .add("guarantee", oracle->guarantee())
          .add("n", static_cast<std::uint64_t>(g.num_nodes()))
          .add("queries", static_cast<std::uint64_t>(pairs.size()))
          .add("ns_per_query", ns)
          .add("batch_ns_per_query", batch_ns)
          .add("mean_size_words", oracle->mean_size_words())
          .emit(out);
    }
  }
  // Observability cost on the serving path, measured on the TZ sketch
  // set (the representation a deployment queries).
  {
    const std::unique_ptr<DistanceOracle> oracle =
        OracleRegistry::instance().build("tz", g, flags);
    emit_obs_overhead_row("e7", *oracle, queries, out);
  }
  note(out, "e7",
       "Expected shape: TZ ns/query grows (sub-)linearly in k and stays in "
       "the tens-to-hundreds of ns; the built, the loaded and the mapped "
       "store run one query kernel over one packed layout, so the engine, "
       "store and warm mmap columns differ only by noise; mmap_mismatches "
       "is exactly 0 (the cell fails otherwise), and the cold pass adds "
       "the page fault-in of the records it touches. obs_overhead: metrics "
       "off vs on vs on+tracing should differ by low single-digit "
       "percent.");
  // The crisp predicate: a mapped store answers exactly like the heap
  // store loaded from the same file.
  return mmap_mismatches == 0 ? 0 : 1;
}

}  // namespace dsketch::bench
