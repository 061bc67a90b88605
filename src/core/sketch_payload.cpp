#include "core/sketch_payload.hpp"

namespace dsketch {

Dist SketchPayload::query(NodeId u, NodeId v) const {
  switch (scheme) {
    case Scheme::kThorupZwick:
      return tz_query(tz.view(u), tz.view(v));
    case Scheme::kSlack:
      return slack.query(u, v);
    case Scheme::kCdg:
      return cdg.query(u, v);
    case Scheme::kGraceful:
      return graceful.query(u, v);
  }
  return kInfDist;
}

std::size_t SketchPayload::size_words(NodeId u) const {
  switch (scheme) {
    case Scheme::kThorupZwick:
      return tz.size_words(u);
    case Scheme::kSlack:
      return slack.size_words(u);
    case Scheme::kCdg:
      return cdg.size_words(u);
    case Scheme::kGraceful:
      return graceful.size_words(u);
  }
  return 0;
}

std::size_t SketchPayload::num_segments() const {
  return scheme == Scheme::kGraceful ? graceful.num_levels() : 1;
}

}  // namespace dsketch
