// Build-once / serve-many: the deployment shape the paper motivates.
//
// An offline builder pays the distributed construction cost once and
// writes a compact binary store; any number of stateless frontends then
// load the store and answer distance queries from sketches alone — no
// graph, no network traffic, microseconds per batch.
//
//   build phase:  graph -> OracleRegistry::build -> DistanceOracle::save
//   serve phase:  OracleRegistry::load -> QueryService -> answers
//
// Everything below is scheme-agnostic: swap "tz" for any registered
// scheme name (dsketch list-schemes) and the pipeline still runs —
// sketch schemes save the v4 store, baselines their text envelope, and
// the one load call reads either back into the same sharded service.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "congest/accounting.hpp"
#include "core/oracle_registry.hpp"
#include "graph/generators.hpp"
#include "serve/query_service.hpp"
#include "serve/workload.hpp"

using namespace dsketch;

namespace {

constexpr const char* kScheme = "tz";  // any name from `dsketch list-schemes`

/// Where the build phase ships the store: $DSKETCH_OUT_DIR if set, else
/// the system temp dir — never the invoking directory.
std::string store_path() {
  const char* out_dir = std::getenv("DSKETCH_OUT_DIR");
  const std::filesystem::path dir =
      out_dir != nullptr ? std::filesystem::path(out_dir)
                         : std::filesystem::temp_directory_path();
  return (dir / "serve_pipeline.store").string();
}

}  // namespace

int main() {
  // ---- offline build (expensive, run once) ---------------------------------
  {
    const Graph g = erdos_renyi(1024, 0.008, {1, 16}, 42);
    const FlagSet flags(
        std::vector<std::pair<std::string, std::string>>{{"k", "3"}});
    const std::unique_ptr<DistanceOracle> oracle =
        OracleRegistry::instance().build(kScheme, g, flags);
    std::ofstream out(store_path(), std::ios::binary);
    oracle->save(out);
    const auto shipped_bytes = static_cast<std::size_t>(out.tellp());
    if (const SimStats* cost = oracle->build_cost()) {
      std::printf("built %s: %u rounds of CONGEST paid once\n",
                  oracle->guarantee().c_str(),
                  static_cast<unsigned>(cost->rounds));
    } else {
      std::printf("built %s (centralized baseline)\n",
                  oracle->guarantee().c_str());
    }
    std::printf("  %.1f words/node, %zu bytes on disk\n",
                oracle->mean_size_words(), shipped_bytes);
  }

  // ---- serving frontend (cheap, run anywhere, any number of replicas) ------
  std::ifstream in(store_path(), std::ios::binary);
  const std::unique_ptr<DistanceOracle> store =
      OracleRegistry::instance().load(in).oracle;
  QueryService service(*store, {.shards = 8, .threads = 4,
                                .cache_capacity = 4096});

  WorkloadConfig wl;
  wl.kind = WorkloadConfig::Kind::kZipf;  // hot-pair traffic
  WorkloadGenerator gen(store->num_nodes(), wl);

  std::vector<Dist> answers;
  for (int batch = 0; batch < 20; ++batch) {
    const auto pairs = gen.batch(4096);
    answers.assign(pairs.size(), 0);
    service.query_batch(pairs, answers);
  }

  const QueryServiceStats stats = service.stats();
  std::printf("served %llu queries in %.2f ms: %.2fM qps, %.0f%% cache hits, "
              "p99 shard slice %.1f us\n",
              static_cast<unsigned long long>(stats.queries),
              stats.wall_seconds * 1e3, stats.qps / 1e6,
              stats.hit_rate * 100, stats.p99_shard_batch_us);
  std::printf("example answer: d(1, 900) <= %llu\n",
              static_cast<unsigned long long>(service.query(1, 900)));
  return 0;
}
