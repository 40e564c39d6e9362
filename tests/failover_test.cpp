// Epoch-fenced failover: stale-leader rejection, reconciliation windows and
// split-brain fencing invariants (DESIGN.md, "Epoch fencing").
//
// These are the tier-1 checks; the 50-seed sweep lives in
// failover_soak_test.cpp (ctest label `soak`).
#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "chaos/runner.hpp"
#include "chaos/schedule.hpp"
#include "core/messages.hpp"
#include "core/system.hpp"
#include "net/rpc.hpp"

namespace {

using namespace snooze;
using namespace snooze::core;

SystemSpec failover_spec() {
  SystemSpec spec;
  spec.entry_points = 1;
  spec.group_managers = 3;
  spec.local_controllers = 6;
  return spec;
}

GroupManager* find_non_leader(SnoozeSystem& system) {
  for (const auto& gm : system.group_managers()) {
    if (gm->alive() && !gm->is_leader()) return gm.get();
  }
  return nullptr;
}

// A dispatch stamped with a deposed GL's epoch must be refused with the typed
// StaleEpochError, not silently applied or treated as a transport failure.
TEST(EpochFence, StaleGlDispatchRejectedWithTypedError) {
  SnoozeSystem system(failover_spec());
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  const std::uint64_t old_epoch = system.leader()->epoch();
  ASSERT_GE(old_epoch, 1u);

  ASSERT_GE(system.fail_gl(), 0);
  system.engine().run_until(system.engine().now() + 30.0);
  GroupManager* new_gl = system.leader();
  ASSERT_NE(new_gl, nullptr);
  ASSERT_GT(new_gl->epoch(), old_epoch);

  GroupManager* gm = find_non_leader(system);
  ASSERT_NE(gm, nullptr);
  ASSERT_GE(gm->gl_epoch_seen(), new_gl->epoch());

  // Replay the deposed leader's authority: a placement carrying its epoch.
  net::RpcEndpoint probe(system.engine(), system.network(),
                         system.network().allocate_address(), "probe");
  auto place = std::make_shared<PlacementRequest>();
  place->vm = system.make_vm({0.1, 0.1, 0.1});
  place->epoch = old_epoch;
  std::optional<std::uint64_t> observed;
  probe.call(gm->address(), place, 5.0, [&](bool ok, const net::MsgPtr& reply) {
    ASSERT_TRUE(ok);
    const auto* stale = net::msg_cast<StaleEpochError>(reply);
    ASSERT_NE(stale, nullptr) << "expected a typed StaleEpochError reply";
    observed = stale->observed;
  });
  system.engine().run_until(system.engine().now() + 5.0);
  ASSERT_TRUE(observed.has_value());
  EXPECT_GE(*observed, new_gl->epoch());
  EXPECT_GE(gm->fence_rejected(), 1u);
  EXPECT_EQ(gm->stale_accepts(), 0u);
}

// An unfenced (epoch 0) placement is admitted: tests and administrative
// paths stay functional without holding a term.
TEST(EpochFence, UnfencedPlacementStillAdmitted) {
  SnoozeSystem system(failover_spec());
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  GroupManager* gm = find_non_leader(system);
  ASSERT_NE(gm, nullptr);
  ASSERT_GT(gm->lc_count(), 0u);

  net::RpcEndpoint probe(system.engine(), system.network(),
                         system.network().allocate_address(), "probe");
  auto place = std::make_shared<PlacementRequest>();
  place->vm = system.make_vm({0.1, 0.1, 0.1});
  std::optional<bool> placed;
  probe.call(gm->address(), place, 25.0, [&](bool ok, const net::MsgPtr& reply) {
    const auto* resp = ok ? net::msg_cast<PlacementResponse>(reply) : nullptr;
    placed = resp != nullptr && resp->ok;
  });
  system.engine().run_until(system.engine().now() + 30.0);
  EXPECT_EQ(placed, true);
  EXPECT_EQ(gm->fence_rejected(), 0u);
}

// After its GM dies and the LC re-registers elsewhere, commands stamped with
// the dead GM's old lease must bounce off the LC's fresh lease epoch.
TEST(EpochFence, LcFencesDeposedGmAfterRelease) {
  SnoozeSystem system(failover_spec());
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  LocalController* lc = system.local_controllers().front().get();
  ASSERT_TRUE(lc->assigned());
  const std::uint64_t old_lease = lc->lease_epoch();
  ASSERT_GE(old_lease, 1u);
  const net::Address old_gm = lc->gm();

  for (std::size_t i = 0; i < system.group_managers().size(); ++i) {
    if (system.group_managers()[i]->address() == old_gm) system.fail_gm(i);
  }
  system.engine().run_until(system.engine().now() + 40.0);
  ASSERT_TRUE(lc->assigned());
  ASSERT_NE(lc->gm(), old_gm);
  ASSERT_GT(lc->lease_epoch(), old_lease);

  net::RpcEndpoint probe(system.engine(), system.network(),
                         system.network().allocate_address(), "probe");
  auto start = std::make_shared<StartVmRequest>();
  start->vm = system.make_vm({0.1, 0.1, 0.1});
  start->epoch = old_lease;  // the dead GM's lease
  std::optional<bool> stale;
  probe.call(lc->address(), start, 5.0, [&](bool ok, const net::MsgPtr& reply) {
    ASSERT_TRUE(ok);
    stale = net::msg_cast<StaleEpochError>(reply) != nullptr;
  });
  system.engine().run_until(system.engine().now() + 5.0);
  EXPECT_EQ(stale, true);
  EXPECT_GE(lc->fence_rejected(), 1u);
  EXPECT_EQ(lc->stale_accepts(), 0u);
}

// Every new GL term opens with a reconciliation window that closes on time
// and is measured into the telemetry registry.
TEST(Reconcile, NewGlFinishesReconciliationWithinWindow) {
  SnoozeSystem system(failover_spec());
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  ASSERT_GE(system.fail_gl(), 0);
  system.engine().run_until(system.engine().now() + 30.0);

  GroupManager* new_gl = system.leader();
  ASSERT_NE(new_gl, nullptr);
  EXPECT_FALSE(new_gl->leader()->reconciling());
  EXPECT_EQ(new_gl->counters().reconciliations, 1u);

  const auto* hist =
      system.telemetry().metrics().find_histogram("reconcile.duration");
  ASSERT_NE(hist, nullptr);
  // Initial election + failover: at least two completed reconcile windows,
  // each exactly one gl_reconcile_window long on the virtual clock.
  EXPECT_GE(hist->count(), 2u);
  EXPECT_LE(hist->max(), system.spec().config.gl_reconcile_window + 1e-9);
  const auto* gauge = system.telemetry().metrics().find_gauge("failover.epoch");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->current(), static_cast<double>(new_gl->epoch()));
}

// A placement answered after its GL stepped down must not write into the
// deposed node's idempotency book: the GL role's state ends with its term.
TEST(Reconcile, DeposedLeaderHoldsNoGlStateAfterLatePlacement) {
  SystemSpec spec = failover_spec();
  spec.seed = 42;
  SnoozeSystem system(spec);
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  GroupManager* gl = system.leader();
  ASSERT_NE(gl, nullptr);
  const std::uint64_t dispatches = gl->counters().dispatches;

  system.client().submit(system.make_vm({0.1, 0.1, 0.1}));
  // Step in small increments of our own clock: now() does not advance on a
  // step with no events, so a loop on it could spin forever.
  sim::Time t = system.engine().now();
  const sim::Time deadline = t + 30.0;
  while (gl->counters().dispatches == dispatches && t < deadline) {
    t += 0.0005;
    system.engine().run_until(t);
  }
  ASSERT_GT(gl->counters().dispatches, dispatches) << "the GL never dispatched";

  // Depose the GL while its PlacementRequest is still in flight.
  gl->begin_drain();
  system.engine().run_until(system.engine().now() + 5.0);
  EXPECT_FALSE(gl->is_leader());
  EXPECT_EQ(gl->leader(), nullptr);
}

// The scripted acceptance scenario: isolate the GL mid-workload, let a
// successor take over, heal — no stale command is ever applied, every VM is
// hosted exactly once, and the whole run is deterministic per seed.
TEST(FailoverChaos, GlIsolationFencedAndDeterministic) {
  chaos::ChaosRunConfig cfg;
  cfg.seed = 2024;
  cfg.topology = {3, 6, 2};
  cfg.vms = 6;
  const auto schedule = chaos::parse_script(
      "duration 50\n"
      "5 isolate gl #1\n"
      "25 heal #1\n");
  const auto first = chaos::run_chaos_schedule(cfg, schedule);
  EXPECT_TRUE(first.ok()) << first.report;
  EXPECT_EQ(first.stale_accepts, 0u) << first.report;

  const auto second = chaos::run_chaos_schedule(cfg, schedule);
  EXPECT_EQ(first.trace_hash, second.trace_hash)
      << "same seed + script must reproduce the identical trace";
}

TEST(FailoverChaos, GmIsolationFencedAndDeterministic) {
  chaos::ChaosRunConfig cfg;
  cfg.seed = 4048;
  cfg.topology = {3, 6, 2};
  cfg.vms = 6;
  const auto schedule = chaos::parse_script(
      "duration 50\n"
      "4 isolate gm 0 #1\n"
      "28 heal #1\n");
  const auto first = chaos::run_chaos_schedule(cfg, schedule);
  EXPECT_TRUE(first.ok()) << first.report;
  EXPECT_EQ(first.stale_accepts, 0u) << first.report;

  const auto second = chaos::run_chaos_schedule(cfg, schedule);
  EXPECT_EQ(first.trace_hash, second.trace_hash);
}

}  // namespace
