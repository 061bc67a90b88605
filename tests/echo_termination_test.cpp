#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "congest/echo_termination.hpp"

namespace dsketch {
namespace {

TEST(EchoTracker, ImmediateLifecycle) {
  EchoTracker t;
  EXPECT_FALSE(t.has_outstanding());
  EXPECT_FALSE(t.self_announce_complete());
}

TEST(EchoTracker, SelfAnnounceCompletesAfterAllEchoes) {
  EchoTracker t;
  t.commit_send(/*source=*/5, /*sent_value=*/0, /*fanout=*/3,
                /*self_announce=*/true);
  EXPECT_TRUE(t.has_outstanding());
  EXPECT_FALSE(t.on_echo(5, 0).has_value());
  EXPECT_FALSE(t.on_echo(5, 0).has_value());
  EXPECT_FALSE(t.self_announce_complete());
  EXPECT_FALSE(t.on_echo(5, 0).has_value());
  EXPECT_TRUE(t.self_announce_complete());
  EXPECT_FALSE(t.has_outstanding());
}

TEST(EchoTracker, RelayEchoesUpstreamTrigger) {
  EchoTracker t;
  // Received (src=7, value=10) on edge 2; it triggered our broadcast of 12.
  EXPECT_FALSE(t.accept_trigger(7, 2, 10).has_value());
  t.commit_send(7, 12, /*fanout=*/2, /*self_announce=*/false);
  EXPECT_FALSE(t.on_echo(7, 12).has_value());
  const auto up = t.on_echo(7, 12);
  ASSERT_TRUE(up.has_value());
  EXPECT_EQ(up->edge, 2u);
  EXPECT_EQ(up->value, 10u);
  EXPECT_FALSE(t.has_outstanding());
}

TEST(EchoTracker, SupersededTriggerReturnedForImmediateEcho) {
  EchoTracker t;
  EXPECT_FALSE(t.accept_trigger(7, 2, 10).has_value());
  // Better value arrives on edge 4 before we sent; old trigger must be
  // echoed immediately.
  const auto old = t.accept_trigger(7, 4, 8);
  ASSERT_TRUE(old.has_value());
  EXPECT_EQ(old->edge, 2u);
  EXPECT_EQ(old->value, 10u);
  t.commit_send(7, 9, 2, false);
  t.on_echo(7, 9);
  const auto up = t.on_echo(7, 9);
  ASSERT_TRUE(up.has_value());
  EXPECT_EQ(up->edge, 4u);
  EXPECT_EQ(up->value, 8u);
}

TEST(EchoTracker, MultipleOutstandingValuesPerSource) {
  EchoTracker t;
  t.accept_trigger(3, 0, 20);
  t.commit_send(3, 21, 2, false);
  t.accept_trigger(3, 1, 15);
  t.commit_send(3, 16, 2, false);
  EXPECT_EQ(t.outstanding_records(), 2u);
  // Complete the newer record first — must resolve to the edge-1 trigger.
  t.on_echo(3, 16);
  const auto up2 = t.on_echo(3, 16);
  ASSERT_TRUE(up2.has_value());
  EXPECT_EQ(up2->edge, 1u);
  t.on_echo(3, 21);
  const auto up1 = t.on_echo(3, 21);
  ASSERT_TRUE(up1.has_value());
  EXPECT_EQ(up1->edge, 0u);
  EXPECT_FALSE(t.has_outstanding());
}

TEST(EchoTracker, ZeroFanoutSelfAnnounceCompletesInstantly) {
  EchoTracker t;
  t.commit_send(1, 0, 0, true);
  EXPECT_TRUE(t.self_announce_complete());
  EXPECT_FALSE(t.has_outstanding());
}

TEST(EchoTracker, ClearedTrackerBehavesAsFreshAcrossPhases) {
  // One tracker serves every phase of a node: clear() between phases must
  // leave nothing behind. Phase 1 leaves a record and a trigger pending;
  // phase 2 then replays the same events as a fresh tracker.
  const auto run_phase = [](EchoTracker& t) {
    std::vector<std::optional<EchoObligation>> out;
    out.push_back(t.accept_trigger(3, 0, 20));
    t.commit_send(3, 21, 2, false);
    t.commit_send(9, 0, 1, true);
    out.push_back(t.on_echo(3, 21));
    out.push_back(t.on_echo(3, 21));
    out.push_back(t.on_echo(9, 0));
    return out;
  };
  EchoTracker fresh;
  const auto expected = run_phase(fresh);
  EXPECT_TRUE(fresh.self_announce_complete());
  EXPECT_FALSE(fresh.has_outstanding());

  EchoTracker t;
  t.accept_trigger(4, 1, 50);
  t.commit_send(4, 51, 3, false);
  t.on_echo(4, 51);
  t.accept_trigger(4, 2, 40);  // a live trigger left over
  t.commit_send(9, 0, 0, true);
  EXPECT_TRUE(t.self_announce_complete());
  EXPECT_EQ(t.outstanding_records(), 1u);
  t.clear();
  EXPECT_FALSE(t.has_outstanding());
  EXPECT_FALSE(t.self_announce_complete());
  EXPECT_EQ(t.outstanding_records(), 0u);

  const auto got = run_phase(t);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].has_value(), expected[i].has_value()) << i;
    if (got[i]) {
      EXPECT_EQ(got[i]->edge, expected[i]->edge);
      EXPECT_EQ(got[i]->value, expected[i]->value);
    }
  }
  EXPECT_TRUE(t.self_announce_complete());
  EXPECT_FALSE(t.has_outstanding());
}

TEST(EchoTrackerDeathTest, EchoForAnUnknownSourceOrValueAborts) {
  EXPECT_DEATH(
      {
        EchoTracker t;
        t.on_echo(3, 21);
      },
      "echo without matching record");
  EXPECT_DEATH(
      {
        EchoTracker t;
        t.accept_trigger(3, 0, 20);
        t.commit_send(3, 21, 2, false);
        t.on_echo(3, 22);  // right source, wrong value
      },
      "does not match any outstanding record");
  EXPECT_DEATH(
      {
        EchoTracker t;
        t.accept_trigger(3, 0, 20);
        t.commit_send(3, 21, 2, false);
        t.on_echo(4, 21);  // right value, wrong source
      },
      "does not match any outstanding record");
  EXPECT_DEATH(
      {
        // A record echoed out is gone: a late echo no longer matches.
        EchoTracker t;
        t.commit_send(5, 0, 1, true);
        t.commit_send(6, 0, 1, true);
        t.on_echo(5, 0);
        t.on_echo(5, 0);
      },
      "does not match any outstanding record");
}

TEST(EchoTrackerDeathTest, RepeatedOutstandingSendAborts) {
  EXPECT_DEATH(
      {
        EchoTracker t;
        t.commit_send(5, 0, 2, true);
        t.commit_send(5, 0, 2, true);
      },
      "repeats an outstanding");
  EXPECT_DEATH(
      {
        EchoTracker t;
        t.commit_send(7, 3, 2, false);  // nothing accepted for source 7
      },
      "send without a live trigger");
}

TEST(CompletionTracker, LeafNonSourceFiresImmediately) {
  CompletionTracker c;
  c.reset(/*num_children=*/0, /*self_complete=*/true);
  // ready state is reported through the event APIs:
  EXPECT_TRUE(c.on_self_complete());
}

TEST(CompletionTracker, WaitsForAllChildren) {
  CompletionTracker c;
  c.reset(2, true);
  EXPECT_FALSE(c.on_child_complete());
  EXPECT_TRUE(c.on_child_complete());
}

TEST(CompletionTracker, WaitsForSelf) {
  CompletionTracker c;
  c.reset(1, false);
  EXPECT_FALSE(c.on_child_complete());
  EXPECT_TRUE(c.on_self_complete());
}

TEST(CompletionTracker, FiresOnlyOnce) {
  CompletionTracker c;
  c.reset(1, true);
  EXPECT_TRUE(c.on_child_complete());
  c.mark_fired();
  EXPECT_FALSE(c.on_self_complete());
  EXPECT_FALSE(c.on_child_complete());
}

TEST(CompletionTracker, ResetClearsState) {
  CompletionTracker c;
  c.reset(1, true);
  c.on_child_complete();
  c.mark_fired();
  c.reset(1, true);
  EXPECT_FALSE(c.fired());
  EXPECT_TRUE(c.on_child_complete());
}

}  // namespace
}  // namespace dsketch
