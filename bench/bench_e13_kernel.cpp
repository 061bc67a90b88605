// E13 — shortest-path kernel microbenchmark (beyond the paper: systems
// telemetry for the repro pipeline itself).
//
// Two tables:
//   relax_ns — ns per relaxed half-edge for full SSSP sweeps under three
//     kernels: the pre-PR reference (fresh allocations + binary
//     std::priority_queue per call), the 4-ary indexed heap, and the
//     monotone bucket queue. All three must agree on every distance.
//   tz_build — wall time of the centralized TZ construction: the pre-PR
//     serial reference vs the kernel build at each --threads value, with
//     every kernel build's label set verified equal to the reference's.
//
// The trailing speedup row is the acceptance gauge: kernel parallel vs
// legacy serial on the same graph.
#include <algorithm>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "experiments.hpp"
#include "graph/sp_kernel.hpp"
#include "legacy_sp_reference.hpp"
#include "sketch/tz_centralized.hpp"
#include "util/thread_pool.hpp"

namespace dsketch::bench {

namespace {

/// Pre-PR centralized TZ build (gates via n-vector multi-source Dijkstra,
/// binary-heap cluster growth), for the tz_build baseline row.
std::vector<TzLabelBuilder> legacy_build_tz(const Graph& g,
                                            const Hierarchy& h) {
  struct QItem {
    Dist dist;
    NodeId node;
    bool operator>(const QItem& o) const {
      return dist != o.dist ? dist > o.dist : node > o.node;
    }
  };
  const std::uint32_t k = h.k();
  const NodeId n = g.num_nodes();
  std::vector<std::vector<DistKey>> gates(k);
  for (std::uint32_t i = 0; i < k; ++i) {
    gates[i].assign(n, DistKey{});
    const std::vector<NodeId> members = h.level_members(i);
    if (members.empty()) continue;
    std::vector<Dist> dist;
    std::vector<NodeId> owner;
    legacy_ref::multi_source(g, members, dist, owner);
    for (NodeId u = 0; u < n; ++u) gates[i][u] = DistKey{dist[u], owner[u]};
  }
  std::vector<TzLabelBuilder> labels;
  labels.reserve(n);
  for (NodeId u = 0; u < n; ++u) {
    labels.emplace_back(u, k);
    for (std::uint32_t i = 0; i < k; ++i) labels[u].set_pivot(i, gates[i][u]);
  }
  std::vector<Dist> dist(n, kInfDist);
  std::vector<NodeId> touched;
  for (std::uint32_t i = 0; i < k; ++i) {
    const bool top = i + 1 >= k;
    for (const NodeId w : h.phase_sources(i)) {
      std::priority_queue<QItem, std::vector<QItem>, std::greater<>> pq;
      dist[w] = 0;
      touched.push_back(w);
      pq.push({0, w});
      while (!pq.empty()) {
        const auto [d, x] = pq.top();
        pq.pop();
        if (d != dist[x]) continue;
        if (!top && !(DistKey{d, w} < gates[i + 1][x])) continue;
        labels[x].add_bunch_entry(BunchEntry{w, d});
        for (const HalfEdge& he : g.neighbors(x)) {
          const Dist nd = d + he.weight;
          if (nd < dist[he.to]) {
            if (dist[he.to] == kInfDist) touched.push_back(he.to);
            dist[he.to] = nd;
            pq.push({nd, he.to});
          }
        }
      }
      for (const NodeId t : touched) dist[t] = kInfDist;
      touched.clear();
    }
  }
  for (auto& l : labels) l.sort_bunch();
  return labels;
}

}  // namespace

int run_e13(const FlagSet& flags, std::ostream& out) {
  const auto seed =
      static_cast<std::uint64_t>(flags.get("seed", std::int64_t{3}));
  const Graph g = primary_graph(flags, 1024, 0.008, {1, 16}, seed);
  const NodeId n = g.num_nodes();
  const auto sources =
      static_cast<std::size_t>(flags.get("sources", std::int64_t{8}));
  if (sources == 0) throw std::runtime_error("--sources must be >= 1");
  const auto k =
      static_cast<std::uint32_t>(flags.get("k", std::int64_t{3}));

  // --- relax_ns: full SSSP sweeps, all kernels, agreement enforced ----
  Rng rng(seed ^ 0xe13);
  std::vector<NodeId> srcs;
  for (std::size_t i = 0; i < sources; ++i) {
    srcs.push_back(static_cast<NodeId>(rng.below(n)));
  }
  const double relaxed_edges =
      static_cast<double>(srcs.size()) * 2.0 * static_cast<double>(g.num_edges());

  double legacy_ns = 0;
  struct KernelRow {
    std::string name;
    SpEngine engine;
  };
  const std::vector<KernelRow> kernels = {
      {"kernel_heap", SpEngine::kHeap}, {"kernel_bucket", SpEngine::kBucket}};

  std::vector<std::vector<Dist>> reference;
  {
    Timer t;
    for (const NodeId s : srcs) {
      reference.push_back(legacy_ref::dijkstra(g, s));
    }
    legacy_ns = t.seconds() * 1e9;
    row("e13", "relax_ns")
        .add("kernel", "legacy_heap")
        .add("n", static_cast<std::uint64_t>(n))
        .add("m", static_cast<std::uint64_t>(g.num_edges()))
        .add("sweeps", static_cast<std::uint64_t>(srcs.size()))
        .add("ns_per_edge", legacy_ns / relaxed_edges)
        .add("speedup_vs_legacy", 1.0)
        .emit(out);
  }
  int mismatches = 0;
  for (const KernelRow& kr : kernels) {
    SpWorkspace ws;
    // Warm the workspace so the timed loop measures steady state.
    sp_dijkstra(g, srcs[0], ws, kr.engine);
    Timer t;
    for (const NodeId s : srcs) sp_dijkstra(g, s, ws, kr.engine);
    const double ns = t.seconds() * 1e9;
    for (std::size_t i = 0; i < srcs.size(); ++i) {
      sp_dijkstra(g, srcs[i], ws, kr.engine);
      for (NodeId u = 0; u < n; ++u) {
        if (ws.dist(u) != reference[i][u]) ++mismatches;
      }
    }
    row("e13", "relax_ns")
        .add("kernel", kr.name)
        .add("n", static_cast<std::uint64_t>(n))
        .add("m", static_cast<std::uint64_t>(g.num_edges()))
        .add("sweeps", static_cast<std::uint64_t>(srcs.size()))
        .add("ns_per_edge", ns / relaxed_edges)
        .add("speedup_vs_legacy", legacy_ns / ns)
        .emit(out);
  }

  // --- tz_build: legacy serial vs kernel at each thread count ---------
  const Hierarchy h = Hierarchy::sample(n, k, seed + 1);
  // Symmetric methodology: every timed build (legacy and kernel) follows
  // one untimed warm-up pass, so first-touch faults and allocator growth
  // are billed to neither side.
  legacy_build_tz(g, h);
  Timer legacy_timer;
  std::vector<TzLabelBuilder> legacy_labels = legacy_build_tz(g, h);
  const double legacy_ms = legacy_timer.millis();
  const LabelArena want = LabelArena::from_builders(std::move(legacy_labels));
  row("e13", "tz_build")
      .add("build", "legacy_serial")
      .add("n", static_cast<std::uint64_t>(n))
      .add("k", k)
      .add("threads", static_cast<std::uint64_t>(1))
      .add("wall_ms", legacy_ms)
      .add("speedup_vs_legacy", 1.0)
      .add("identical", true)
      .emit(out);

  double best_kernel_ms = -1.0;
  for (const std::int64_t threads :
       parse_int_list(flags.get("threads", std::string("1,0")))) {
    if (threads < 0) throw std::runtime_error("--threads must be >= 0");
    ThreadPool pool(static_cast<std::size_t>(threads));
    // Warm-up pass so thread spin-up is not billed to the timed build.
    build_tz_centralized(g, h, &pool);
    Timer t;
    const LabelArena labels = build_tz_centralized(g, h, &pool);
    const double ms = t.millis();
    const bool identical = labels == want;
    if (!identical) ++mismatches;
    if (best_kernel_ms < 0 || ms < best_kernel_ms) best_kernel_ms = ms;
    row("e13", "tz_build")
        .add("build", "kernel")
        .add("n", static_cast<std::uint64_t>(n))
        .add("k", k)
        .add("threads", static_cast<std::uint64_t>(pool.lanes()))
        .add("wall_ms", ms)
        .add("speedup_vs_legacy", legacy_ms / ms)
        .add("identical", identical)
        .emit(out);
  }

  note(out, "e13",
       "Expected shape: every engine's distances equal the reference's "
       "and every kernel build gives the legacy serial build's label set "
       "(checked: the run exits 1 on a mismatch). Not checked, read at "
       "default flags: ns_per_edge legacy_heap 23-26, kernel_heap 11-12, "
       "kernel_bucket 6.2-6.7; tz_build speedup_vs_legacy 5.7 on 1 thread "
       "and 5.1-5.2 on 4.");
  return mismatches == 0 ? 0 : 1;
}

}  // namespace dsketch::bench
