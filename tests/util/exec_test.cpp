// Unit tests for the execution-control primitives (util/exec): Deadline
// arithmetic, linked cancellation tokens, resource budgets and the
// deterministic checkpoint-injection harness.
#include "util/exec/exec.h"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>

namespace wnet::util::exec {
namespace {

TEST(Deadline, DefaultIsInfinite) {
  const Deadline d;
  EXPECT_FALSE(d.finite());
  EXPECT_FALSE(d.expired());
  EXPECT_TRUE(std::isinf(d.remaining_s()));
  EXPECT_GT(d.remaining_s(), 0.0);
}

TEST(Deadline, HugeOrNonFiniteSecondsMeanInfinite) {
  EXPECT_FALSE(Deadline::after(1e30).finite());  // LpOptions sentinel
  EXPECT_FALSE(Deadline::after(std::numeric_limits<double>::infinity()).finite());
  EXPECT_FALSE(Deadline::after(std::nan("")).finite());
  EXPECT_TRUE(Deadline::after(1.0).finite());
}

TEST(Deadline, ExpiresAndReportsNonPositiveRemaining) {
  const Deadline d = Deadline::after(0.0);
  EXPECT_TRUE(d.finite());
  EXPECT_TRUE(d.expired());
  EXPECT_LE(d.remaining_s(), 0.0);

  const Deadline far = Deadline::after(3600.0);
  EXPECT_FALSE(far.expired());
  EXPECT_GT(far.remaining_s(), 3500.0);
}

TEST(Deadline, TightenedTakesTheEarlierDeadline) {
  const Deadline infinite;
  // Infinite tightened by a finite limit becomes finite.
  const Deadline t1 = infinite.tightened(10.0);
  EXPECT_TRUE(t1.finite());
  EXPECT_LE(t1.remaining_s(), 10.0);

  // A finite deadline tightened by a *larger* limit is unchanged (earlier
  // wins), and tightening by infinity is a no-op.
  const Deadline near = Deadline::after(1.0);
  EXPECT_LE(near.tightened(100.0).remaining_s(), 1.0);
  EXPECT_TRUE(near.tightened(1e30).finite());
  EXPECT_LE(near.tightened(1e30).remaining_s(), 1.0);

  // Tightening by a smaller limit moves the deadline in.
  const Deadline far = Deadline::after(100.0);
  EXPECT_LE(far.tightened(1.0).remaining_s(), 1.0);
}

TEST(CancellationToken, DefaultTokenCannotBeCancelled) {
  const CancellationToken t;
  EXPECT_FALSE(t.can_be_cancelled());
  EXPECT_FALSE(t.cancelled());
}

TEST(CancellationToken, SourceCancelTripsItsToken) {
  CancellationSource src;
  const CancellationToken t = src.token();
  EXPECT_TRUE(t.can_be_cancelled());
  EXPECT_FALSE(t.cancelled());
  src.cancel();
  EXPECT_TRUE(t.cancelled());
  EXPECT_TRUE(src.cancelled());
}

TEST(CancellationToken, ParentCancelPropagatesToLinkedChildren) {
  CancellationSource parent;
  CancellationSource child(parent.token());
  CancellationSource grandchild(child.token());
  EXPECT_FALSE(grandchild.token().cancelled());

  parent.cancel();
  EXPECT_TRUE(child.token().cancelled());
  EXPECT_TRUE(grandchild.token().cancelled());
}

TEST(CancellationToken, ChildCancelLeavesParentAlive) {
  CancellationSource parent;
  CancellationSource child(parent.token());
  child.cancel();
  EXPECT_TRUE(child.token().cancelled());
  EXPECT_FALSE(parent.token().cancelled());
}

TEST(CancellationToken, CancelIsVisibleAcrossThreads) {
  CancellationSource src;
  const CancellationToken t = src.token();
  std::thread canceller([&src] { src.cancel(); });
  canceller.join();
  EXPECT_TRUE(t.cancelled());
}

TEST(ResourceBudget, NegativeCapsAreUnlimited) {
  ResourceBudget b;  // all caps -1
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(b.charge_bb_nodes());
  EXPECT_TRUE(b.charge_yen_candidates(1000));
  EXPECT_TRUE(b.charge_encode_rows(1000000));
  EXPECT_FALSE(b.exhausted());
  EXPECT_EQ(b.bb_nodes_used(), 1000);
}

TEST(ResourceBudget, ChargeRefusesTheUnitThatExceedsTheCap) {
  ResourceBudget b(/*max_bb_nodes=*/3, /*max_yen_candidates=*/-1, /*max_encode_rows=*/-1);
  EXPECT_TRUE(b.charge_bb_nodes());
  EXPECT_TRUE(b.charge_bb_nodes());
  EXPECT_TRUE(b.charge_bb_nodes());
  EXPECT_FALSE(b.charge_bb_nodes());  // 4th unit refused
  EXPECT_TRUE(b.exhausted());
}

TEST(ResourceBudget, ExhaustionIsSticky_AcrossResources) {
  ResourceBudget b(/*max_bb_nodes=*/1, /*max_yen_candidates=*/-1, /*max_encode_rows=*/-1);
  EXPECT_TRUE(b.charge_bb_nodes());
  EXPECT_FALSE(b.charge_bb_nodes());
  // Once exhausted, every further charge is refused, even on other
  // resources with headroom — the request as a whole is over budget.
  EXPECT_FALSE(b.charge_yen_candidates());
  EXPECT_FALSE(b.charge_encode_rows(1));
}

TEST(ExecControl, DefaultControlNeverStops) {
  const ExecControl ctl;
  TerminationReason why = TerminationReason::kCompleted;
  EXPECT_FALSE(ctl.stopped(&why));
  EXPECT_FALSE(ctl.checkpoint(&why));
  EXPECT_EQ(why, TerminationReason::kCompleted);
}

TEST(ExecControl, StoppedPrefersCancellationOverDeadline) {
  CancellationSource src;
  ExecControl ctl;
  ctl.deadline = Deadline::after(0.0);  // already expired
  ctl.token = src.token();

  TerminationReason why = TerminationReason::kCompleted;
  EXPECT_TRUE(ctl.stopped(&why));
  EXPECT_EQ(why, TerminationReason::kDeadline);

  src.cancel();
  EXPECT_TRUE(ctl.stopped(&why));
  EXPECT_EQ(why, TerminationReason::kCancelled);  // most specific reason wins
}

TEST(ExecControl, InjectorFiresAtTheNthCheckpoint) {
  CancellationSource src;
  ExecControl ctl;
  ctl.token = src.token();
  ctl.injector = std::make_shared<CheckpointInjector>(3, src);

  TerminationReason why = TerminationReason::kCompleted;
  EXPECT_FALSE(ctl.checkpoint(&why));  // checkpoint 1
  EXPECT_FALSE(ctl.checkpoint(&why));  // checkpoint 2
  EXPECT_TRUE(ctl.checkpoint(&why));   // checkpoint 3: fires, then observes
  EXPECT_EQ(why, TerminationReason::kCancelled);
  EXPECT_EQ(ctl.injector->checkpoints_seen(), 3);
}

TEST(ExecControl, WorkerViewStripsTheInjectorButKeepsTheRest) {
  CancellationSource src;
  ExecControl ctl;
  ctl.deadline = Deadline::after(3600.0);
  ctl.token = src.token();
  ctl.budget = std::make_shared<ResourceBudget>(10, -1, -1);
  ctl.injector = std::make_shared<CheckpointInjector>(1, src);

  const ExecControl worker = ctl.worker_view();
  EXPECT_EQ(worker.injector, nullptr);
  EXPECT_EQ(worker.budget, ctl.budget);  // same shared budget
  EXPECT_TRUE(worker.deadline.finite());

  // A worker checkpoint must not advance the injection count (stopped()
  // polling is all workers do); the spine's injector still fires at 1.
  TerminationReason why = TerminationReason::kCompleted;
  EXPECT_FALSE(worker.checkpoint(&why));
  EXPECT_EQ(ctl.injector->checkpoints_seen(), 0);
  EXPECT_TRUE(ctl.checkpoint(&why));
  EXPECT_EQ(why, TerminationReason::kCancelled);
  EXPECT_TRUE(worker.stopped(&why));  // shared token: workers observe it
}

TEST(ExecControl, TightenedCombinesWithExistingDeadline) {
  ExecControl ctl;
  ctl.deadline = Deadline::after(100.0);
  const ExecControl tight = ctl.tightened(1.0);
  EXPECT_LE(tight.deadline.remaining_s(), 1.0);
  EXPECT_GT(ctl.deadline.remaining_s(), 50.0);  // original untouched
}

TEST(TerminationReason, ToStringCoversEveryReason) {
  EXPECT_STREQ(to_string(TerminationReason::kCompleted), "completed");
  EXPECT_STREQ(to_string(TerminationReason::kDeadline), "deadline");
  EXPECT_STREQ(to_string(TerminationReason::kCancelled), "cancelled");
  EXPECT_STREQ(to_string(TerminationReason::kNodeLimit), "node-limit");
  EXPECT_STREQ(to_string(TerminationReason::kNumerical), "numerical");
  EXPECT_STREQ(to_string(TerminationReason::kInfeasible), "infeasible");
}

TEST(TerminationReason, StoppedByControlIsExactlyTheControlImposedReasons) {
  // A stop the request control imposed (deadline, cancel, resource cap)
  // says nothing about the problem; the other three are answers.
  EXPECT_FALSE(stopped_by_control(TerminationReason::kCompleted));
  EXPECT_TRUE(stopped_by_control(TerminationReason::kDeadline));
  EXPECT_TRUE(stopped_by_control(TerminationReason::kCancelled));
  EXPECT_TRUE(stopped_by_control(TerminationReason::kNodeLimit));
  EXPECT_FALSE(stopped_by_control(TerminationReason::kNumerical));
  EXPECT_FALSE(stopped_by_control(TerminationReason::kInfeasible));
}

}  // namespace
}  // namespace wnet::util::exec
