// E2 — Lemmas 3.1 and 3.6: sketch size.
//
// Lemma 3.1: E[|L(u)|] = O(k n^{1/k}) words. Lemma 3.6: per-level bunches
// exceed 3 n^{1/k} ln n with probability <= 1/n^3. We sweep n and k, report
// mean and max label sizes normalized by k*n^{1/k}, and count nodes whose
// label exceeds the whp bound (expected: 0).
//
// The paper's word model (size_words) bills 4 bytes per u32 word; the
// store's bit-packed record (sketch/tz_label.hpp) spends far less per
// entry. Each row reports both bytes/node figures side by side — the word
// model keeps the bound column comparable across PRs, the encoded column
// is the real serving footprint, in memory and on disk alike.
//
// Flags: --nmax (2048) caps the n sweep, --kmax (4) caps the k sweep.
#include <cmath>

#include "bench_common.hpp"
#include "dynamics/incremental.hpp"
#include "serve/sketch_store.hpp"
#include "sketch/tz_distributed.hpp"

namespace dsketch::bench {

int run_e2(const FlagSet& flags, std::ostream& out) {
  const auto nmax = static_cast<NodeId>(flags.get("nmax", std::int64_t{2048}));
  const auto kmax =
      static_cast<std::uint32_t>(flags.get("kmax", std::int64_t{4}));

  for (const NodeId n : {256u, 512u, 1024u, 2048u}) {
    if (n > nmax) continue;
    const Graph g = erdos_renyi(n, 8.0 / n, {1, 12}, 9);
    for (std::uint32_t k = 2; k <= kmax; ++k) {
      const Hierarchy h = Hierarchy::sample(n, k, 31 + k);
      const auto r = build_tz_distributed(g, h, TerminationMode::kOracle);
      const SketchStore store =
          SketchStore::from_oracle(TzLabelOracle(r.labels, k));
      SampleSet words;
      SampleSet encoded;
      const double n1k = std::pow(n, 1.0 / k);
      // Lemma 3.6 bound per level: 3 n^{1/k} ln n entries; a label has k
      // levels and 2 words per entry plus 2k pivot words.
      const double whp_bound =
          2.0 * k + 2.0 * k * 3.0 * n1k * std::log(static_cast<double>(n));
      std::size_t over = 0;
      for (NodeId u = 0; u < n; ++u) {
        const auto w = static_cast<double>(r.labels.size_words(u));
        words.add(w);
        encoded.add(static_cast<double>(store.encoded_record_bytes(u)));
        if (w > whp_bound) ++over;
      }
      row("e2", "label_words")
          .add("n", static_cast<std::uint64_t>(n))
          .add("k", k)
          .add("mean_words", words.mean())
          .add("max_words", words.max())
          .add("mean_normalized", words.mean() / (k * n1k))
          .add("whp_bound_words", whp_bound)
          .add("nodes_over_bound", static_cast<std::uint64_t>(over))
          .add("word_model_bytes_per_node", 4.0 * words.mean())
          .add("encoded_bytes_per_node", encoded.mean())
          .add("encoded_compression",
               encoded.mean() > 0 ? 4.0 * words.mean() / encoded.mean() : 0.0)
          .emit(out);
    }
  }
  note(out, "e2",
       "Expected shape: mean/(k n^{1/k}) stays O(1) (roughly flat in n); "
       "no node exceeds the whp bound; encoded_compression >= 2x (the "
       "bit-packed record vs the 4-bytes-per-word model).");
  return 0;
}

}  // namespace dsketch::bench
