#include "congest/echo_termination.hpp"

#include "util/assert.hpp"

namespace dsketch {

std::optional<EchoObligation> EchoTracker::accept_trigger(NodeId source,
                                                          std::uint32_t edge,
                                                          Dist value) {
  std::optional<EchoObligation> superseded;
  const auto [slot, inserted] = trigger_.try_emplace(source);
  if (!inserted) superseded = *slot;
  *slot = EchoObligation{edge, value};
  return superseded;
}

void EchoTracker::commit_send(NodeId source, Dist sent_value,
                              std::uint32_t fanout, bool self_announce) {
  Record rec{fanout, self_announce, EchoObligation{}};
  if (!self_announce) {
    EchoObligation* trigger = trigger_.find(source);
    DS_CHECK_MSG(trigger != nullptr, "send without a live trigger");
    rec.trigger = *trigger;
    trigger_.erase(source);
  }
  if (fanout == 0) {
    // Degenerate isolated node: the record completes instantly.
    if (rec.self_announce) self_done_ = true;
    return;
  }
  const auto [slot, inserted] = records_.try_emplace({source, sent_value});
  DS_CHECK_MSG(inserted, "send repeats an outstanding (source, value)");
  *slot = rec;
}

std::optional<EchoObligation> EchoTracker::on_echo(NodeId source, Dist value) {
  DS_CHECK_MSG(!records_.empty(), "echo without matching record");
  Record* rec = records_.find({source, value});
  DS_CHECK_MSG(rec != nullptr,
               "echo value does not match any outstanding record");
  DS_CHECK(rec->remaining > 0);
  if (--rec->remaining > 0) return std::nullopt;
  const Record done = *rec;
  records_.erase({source, value});
  if (done.self_announce) {
    self_done_ = true;
    return std::nullopt;
  }
  return done.trigger;
}

}  // namespace dsketch
