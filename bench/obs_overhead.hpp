// Shared `obs_overhead` rows: what does observability cost on the
// serving path?
//
// Runs the same pre-generated workload through QueryServices with
// metrics disabled, metrics on (the default), and metrics plus an open
// trace session, and reports ns/query for each plus the relative
// overheads. E7, E12, and E14 each emit one row from their own instance
// so the claim "metrics cost at most 5%, tracing at most 10%" (CI gates
// E7's row) is re-measured wherever latency is the subject. Kept out of
// bench_common.hpp so the experiments that never touch the serving tier
// don't pull in its headers.
#pragma once

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "core/oracle.hpp"
#include "obs/trace.hpp"
#include "serve/query_service.hpp"
#include "serve/workload.hpp"
#include "util/json_lines.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace dsketch::bench {

/// Emits one `obs_overhead` row for `experiment`, measuring `oracle`
/// behind single-threaded, cache-less QueryServices (so the timed work
/// is the instrumented slice path itself, not cache luck or pool
/// scheduling). The off, metrics and trace passes alternate for
/// `kReps` repetitions, so a slow host phase lands on all three alike
/// rather than deciding the row: each ns column is the median pass, and
/// each overhead the median of the per-repetition ratios.
inline void emit_obs_overhead_row(const std::string& experiment,
                                  const DistanceOracle& oracle,
                                  std::size_t queries, std::ostream& out) {
  WorkloadConfig wl;
  wl.seed = 23;
  WorkloadGenerator gen(oracle.num_nodes(), wl);
  constexpr std::size_t kBatch = 1024;
  std::vector<std::vector<QueryService::Pair>> batches;
  for (std::size_t done = 0; done < queries; done += kBatch) {
    batches.push_back(gen.batch(std::min(kBatch, queries - done)));
  }
  std::vector<Dist> answers;
  const auto ns_per_query = [&](QueryService& service) {
    Timer timer;
    for (const auto& batch : batches) {
      answers.assign(batch.size(), 0);
      service.query_batch(batch, answers);
    }
    return timer.seconds() * 1e9 / static_cast<double>(queries);
  };
  QueryServiceConfig cfg;
  cfg.threads = 1;
  cfg.cache_capacity = 0;
  cfg.collect_metrics = false;
  QueryService off(oracle, cfg);
  cfg.collect_metrics = true;
  QueryService metrics(oracle, cfg);

  const auto pct = [](double base, double with) {
    return base <= 0 ? 0.0 : (with - base) / base * 100.0;
  };
  constexpr int kReps = 15;
  std::vector<double> off_ns, metrics_ns, trace_ns, metrics_pct, trace_pct;
  for (int r = 0; r < kReps; ++r) {
    off_ns.push_back(ns_per_query(off));
    metrics_ns.push_back(ns_per_query(metrics));
    obs::TraceSession::start(std::size_t{1} << 16);
    trace_ns.push_back(ns_per_query(metrics));
    obs::TraceSession::stop();
    metrics_pct.push_back(pct(off_ns.back(), metrics_ns.back()));
    trace_pct.push_back(pct(off_ns.back(), trace_ns.back()));
  }

  JsonLine line;
  line.add("experiment", experiment)
      .add("table", "obs_overhead")
      .add("queries", static_cast<std::uint64_t>(queries))
      .add("ns_per_query_off", percentile(off_ns, 50))
      .add("ns_per_query_metrics", percentile(metrics_ns, 50))
      .add("ns_per_query_trace", percentile(trace_ns, 50))
      .add("metrics_overhead_pct", percentile(metrics_pct, 50))
      .add("trace_overhead_pct", percentile(trace_pct, 50))
      .emit(out);
}

}  // namespace dsketch::bench
