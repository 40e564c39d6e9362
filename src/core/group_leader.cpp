#include "core/group_leader.hpp"

#include <algorithm>

#include "core/group_manager.hpp"

namespace snooze::core {

GroupLeader::GroupLeader(GroupManager& gm)
    : gm_(gm), term_(std::make_shared<GroupLeader*>(this)), reconcile_started_(gm.now()) {
  // Reconciliation window: defer client work (submissions, LC assignments)
  // until the GM summaries arriving under this term have rebuilt our soft
  // state; in-flight migrations surface through the LC monitoring reports of
  // the GMs that inherit them.
  telemetry::Telemetry* t = gm_.tel();
  if (t != nullptr) {
    reconcile_span_ = t->spans().begin(t->spans().new_trace(), 0, "gl.reconcile",
                                       gm_.name(),
                                       "epoch=" + std::to_string(gm_.my_epoch_));
  }
}

GroupLeader::~GroupLeader() { *term_ = nullptr; }

std::vector<GmInfo> GroupLeader::gm_infos() const {
  std::vector<GmInfo> out;
  out.reserve(gms_.size());
  for (const auto& [addr, record] : gms_) out.push_back(record.info);
  return out;
}

std::size_t GroupLeader::gm_probation_count() const {
  std::size_t n = 0;
  for (const auto& [addr, record] : gms_) {
    if (record.info.probation) ++n;
  }
  return n;
}

double GroupLeader::summary_staleness() const {
  if (gms_.empty()) return -1.0;
  double worst = 0.0;
  for (const auto& [addr, record] : gms_) {
    worst = std::max(worst, gm_.now() - record.last_summary);
  }
  return worst;
}

double GroupLeader::aggregated_lc_heartbeat_age() const {
  double worst = -1.0;
  for (const auto& [addr, record] : gms_) {
    worst = std::max(worst, record.info.worst_lc_heartbeat_age);
  }
  return worst;
}

void GroupLeader::finish_reconcile() {
  reconciling_ = false;
  ++gm_.counters_.reconciliations;
  const sim::Time duration = gm_.now() - reconcile_started_;
  telemetry::Telemetry* t = gm_.tel();
  telemetry::count(t, "gl.reconciles");
  telemetry::observe(t, "reconcile.duration", duration);
  telemetry::gauge_set(t, "reconcile.last_duration", duration);
  telemetry::end_span(t, reconcile_span_, "ok");
  reconcile_span_ = {};
  gm_.trace_event("gl.reconciled", "gms=" + std::to_string(gms_.size()));
}

void GroupLeader::tick_heartbeat() {
  gm_.bump("gl.heartbeats");
  auto hb = std::make_shared<GlHeartbeat>();
  hb->gl = gm_.address();
  hb->epoch = gm_.my_epoch_;
  gm_.endpoint_.multicast(gm_.gl_group_, hb);
}

void GroupLeader::check_gm_liveness() {
  const SnoozeConfig& config = gm_.config_;
  const sim::Time window = config.gm_summary_period * config.heartbeat_timeout_factor;
  for (auto it = gms_.begin(); it != gms_.end();) {
    if (gm_.now() - it->second.last_summary > window) {
      // Gracefully remove the failed GM so no new VMs land on it.
      ++gm_.counters_.gm_failures_detected;
      gm_.bump("gl.gm_failures_detected");
      gm_.trace_event("gl.gm_failed");
      const net::Address gone = it->first;
      it = gms_.erase(it);
      drop_gm_inventory(gone);
      gm_.scorer_.forget(gone);
    } else {
      ++it;
    }
  }
  prune_submission_book();
}

std::vector<net::Address> GroupLeader::probe_targets() const {
  std::vector<net::Address> targets;
  targets.reserve(gms_.size());
  for (const auto& [addr, record] : gms_) targets.push_back(addr);
  return targets;
}

void GroupLeader::evaluate_slowness() {
  // Flag slow GMs off the dispatch path. Never kill them — a slow-but-alive
  // GM must not lose its group to a spurious failover.
  for (auto& [addr, record] : gms_) {
    const bool slow = gm_.scorer_.flagged(addr);
    if (slow && !record.info.probation) {
      ++gm_.counters_.slow_flags;
      gm_.bump("gl.gm_slow_flagged");
      gm_.trace_event("gl.gm_slow", "gm=" + std::to_string(addr));
    } else if (!slow && record.info.probation) {
      gm_.bump("gl.gm_slow_cleared");
      gm_.trace_event("gl.gm_slow_cleared", "gm=" + std::to_string(addr));
    }
    record.info.probation = slow;
  }
}

void GroupLeader::prune_submission_book() {
  const sim::Time retention = gm_.config_.submission_book_retention;
  if (retention <= 0.0) return;
  for (auto it = completed_submissions_.begin(); it != completed_submissions_.end();) {
    // A live VM's book entry is only refreshed on placement *changes*, so
    // retention alone would prune (and then duplicate on a client replay)
    // long-lived idle VMs: anything the inventory still lists as running is
    // exempt.
    if (gm_.now() - it->second.at > retention && vm_inventory_.count(it->first) == 0) {
      it = completed_submissions_.erase(it);
    } else {
      ++it;
    }
  }
}

void GroupLeader::handle_summary_delta(const GmSummaryDelta& delta,
                                       net::Responder responder) {
  auto ack = std::make_shared<GmSummaryAck>();
  ack->seq = delta.seq;
  GmRecord& record = gms_[delta.gm];
  const SummaryUpdate update{delta.snapshot, delta.stream, delta.seq, delta.placed,
                             delta.removed};
  const std::uint64_t seq_before = record.decoder.last_seq();
  const bool synced_before = record.decoder.synced();
  if (!record.decoder.apply(update)) {
    ++gm_.counters_.summary_rejects;
    gm_.bump("gl.summary_rejected");
    gm_.trace_event("gl.summary_rejected", "gm=" + std::to_string(delta.gm));
    responder.respond(ack);  // ok=false: the GM snapshots next period
    return;
  }
  record.info.gm = delta.gm;
  record.info.used = delta.used;
  record.info.capacity = delta.capacity;
  record.info.lc_count = delta.lc_count;
  record.info.vm_count = delta.vm_count;
  record.info.worst_lc_heartbeat_age = delta.worst_lc_heartbeat_age;
  // Summary inter-arrival gap: a gray GM assembles its reports slowly, so
  // its stream stutters relative to its peers. Outage-sized gaps (the GM was
  // down or partitioned) belong to the liveness machinery, not the scorer.
  const SnoozeConfig& config = gm_.config_;
  const sim::Time gap = gm_.now() - record.last_summary;
  if (record.last_summary > 0.0 &&
      gap < config.gm_summary_period * config.heartbeat_timeout_factor) {
    gm_.scorer_.add_sample(delta.gm, obs::SlownessMetric::kSummary, gap);
  }
  record.last_summary = gm_.now();
  // Sync the VM inventory only when the decoder actually advanced: a
  // duplicate delivery of an *old* delta is acked (the GM moved on long ago)
  // but its stale placements must not regress the inventory.
  const bool advanced = record.decoder.last_seq() != seq_before ||
                        record.decoder.synced() != synced_before;
  if (delta.snapshot) {
    // Re-anchor: claims this GM no longer makes are removals, then the full
    // state is re-asserted. Both paths are idempotent.
    const VmLocationMap& state = record.decoder.state();
    std::vector<VmId> gone;
    for (const auto& [vm, owner] : vm_inventory_) {
      if (owner.gm == delta.gm && state.count(vm) == 0) gone.push_back(vm);
    }
    for (const VmId vm : gone) note_vm_removed(delta.gm, vm);
    for (const auto& [vm, lc] : state) note_vm_placed(delta.gm, vm, lc);
  } else if (advanced) {
    for (const auto& [vm, lc] : delta.placed) note_vm_placed(delta.gm, vm, lc);
    for (const VmId vm : delta.removed) note_vm_removed(delta.gm, vm);
  }
  resolve_conflicts_for(delta.gm);
  ack->ok = true;
  responder.respond(ack);
}

void GroupLeader::note_vm_placed(net::Address gm, VmId vm, net::Address lc) {
  const sim::Time now = gm_.now();
  const auto [it, inserted] = vm_inventory_.try_emplace(vm, VmOwnership{gm, lc, now});
  if (inserted) {
    completed_submissions_[vm] = {lc, gm, now};
    return;
  }
  VmOwnership& owner = it->second;
  if (owner.gm == gm) {
    owner.lc = lc;  // intra-GM move (migration); not a duplicate
    completed_submissions_[vm] = {lc, gm, now};
    return;
  }
  if (owner.lc == lc) {
    // Same LC under a new GM: the LC (with its VMs) rejoined the hierarchy
    // elsewhere — a legitimate ownership transfer, not a second instance.
    // The old GM's stale claim retires with its next snapshot or removal.
    owner = VmOwnership{gm, lc, now};
    if (const auto c = vm_conflicts_.find(vm);
        c != vm_conflicts_.end() && c->second.challenger == gm) {
      vm_conflicts_.erase(c);
    }
    completed_submissions_[vm] = {lc, gm, now};
    return;
  }
  // Same VM id claimed by two GMs on different LCs: a true cross-GM
  // duplicate (e.g. a submit replayed against a new GL while the original
  // placement survived a partition). Deciding on this single report could
  // kill a healthy VM on a reordered stream, so park the claim and settle it
  // against the incumbent's next applied summary (resolve_conflicts_for).
  PendingConflict& conflict = vm_conflicts_[vm];
  if (conflict.since == 0.0) conflict.since = now;
  conflict.incumbent = owner.gm;
  conflict.challenger = gm;
  conflict.challenger_lc = lc;
  gm_.bump("gl.cross_gm_conflicts");
  gm_.trace_event("gl.cross_gm_conflict", "vm=" + std::to_string(vm));
}

void GroupLeader::note_vm_removed(net::Address gm, VmId vm) {
  if (const auto c = vm_conflicts_.find(vm);
      c != vm_conflicts_.end() && c->second.challenger == gm) {
    vm_conflicts_.erase(c);  // the challenger withdrew its claim
  }
  const auto it = vm_inventory_.find(vm);
  if (it == vm_inventory_.end() || it->second.gm != gm) return;
  if (const auto c = vm_conflicts_.find(vm);
      c != vm_conflicts_.end() && c->second.incumbent == gm) {
    // The incumbent dropped the VM while a challenger waits: the challenger
    // simply becomes the owner — no instance was ever a duplicate for long.
    it->second = VmOwnership{c->second.challenger, c->second.challenger_lc, gm_.now()};
    completed_submissions_[vm] = {c->second.challenger_lc, c->second.challenger,
                                  gm_.now()};
    vm_conflicts_.erase(c);
    return;
  }
  vm_inventory_.erase(it);
  // Retire the idempotency-book entry with the inventory: once no GM hosts
  // the VM, replaying "ok, it lives on LC x" to a client retry would accept
  // a submission whose VM is already gone (e.g. a fail-slow copy the GM
  // adopted from a monitoring report and then aborted). The client's retry
  // dispatches afresh instead.
  completed_submissions_.erase(vm);
}

void GroupLeader::resolve_conflicts_for(net::Address gm) {
  const auto gm_it = gms_.find(gm);
  if (gm_it == gms_.end()) return;
  const VmLocationMap& state = gm_it->second.decoder.state();
  for (auto it = vm_conflicts_.begin(); it != vm_conflicts_.end();) {
    if (it->second.incumbent != gm) {
      ++it;
      continue;
    }
    const VmId vm = it->first;
    const PendingConflict conflict = it->second;
    if (state.count(vm) > 0) {
      // The incumbent's fresh summary still reports the VM: the challenger's
      // copy is the duplicate. Revoke it under our election epoch so a
      // deposed leader's late revoke is fenced off at the GM.
      ++gm_.counters_.cross_gm_duplicates_revoked;
      gm_.bump("gl.cross_gm_duplicates_revoked");
      gm_.trace_event("gl.duplicate_revoked", "vm=" + std::to_string(vm));
      auto revoke = std::make_shared<RevokeVmRequest>();
      revoke->vm = vm;
      revoke->lc = conflict.challenger_lc;
      revoke->epoch = gm_.my_epoch_;
      gm_.endpoint_.send(conflict.challenger, revoke);
    } else {
      vm_inventory_[vm] =
          VmOwnership{conflict.challenger, conflict.challenger_lc, gm_.now()};
      completed_submissions_[vm] = {conflict.challenger_lc, conflict.challenger,
                                    gm_.now()};
    }
    it = vm_conflicts_.erase(it);
  }
}

void GroupLeader::drop_gm_inventory(net::Address gm) {
  for (auto it = vm_conflicts_.begin(); it != vm_conflicts_.end();) {
    if (it->second.challenger == gm) {
      it = vm_conflicts_.erase(it);
    } else if (it->second.incumbent == gm) {
      // The incumbent left the fleet: the challenger's copy is the survivor.
      vm_inventory_[it->first] =
          VmOwnership{it->second.challenger, it->second.challenger_lc, gm_.now()};
      it = vm_conflicts_.erase(it);
    } else {
      ++it;
    }
  }
  std::erase_if(vm_inventory_, [gm](const auto& entry) { return entry.second.gm == gm; });
}

std::vector<GmInfo> GroupLeader::eligible_gms() const {
  std::vector<GmInfo> all = gm_infos();
  std::vector<GmInfo> healthy;
  healthy.reserve(all.size());
  for (const GmInfo& info : all) {
    if (!info.probation) healthy.push_back(info);
  }
  return healthy.empty() ? all : healthy;
}

void GroupLeader::handle_assign_lc(net::Responder responder) {
  // The assignment policies rank GMs independently of the joining LC.
  auto resp = std::make_shared<AssignLcResponse>();
  if (reconciling_) {
    gm_.bump("gl.reconcile_deferred");
    responder.respond(resp);
    return;
  }
  const net::Address gm = gm_.assignment_policy_->assign(eligible_gms());
  resp->ok = gm != net::kNullAddress;
  resp->gm = gm;
  responder.respond(resp);
}

void GroupLeader::handle_submit(const SubmitVmRequest& req, telemetry::SpanContext ctx,
                                net::Responder responder) {
  auto fail = [&] { responder.respond(std::make_shared<SubmitVmResponse>()); };
  // A fresh term defers client work until soft state is rebuilt; the client
  // retries past the window (reconcile < its backoff horizon).
  if (reconciling_) {
    gm_.bump("gl.reconcile_deferred");
    fail();
    return;
  }
  // Idempotency: replay the result of an already-completed submission (the
  // client only retries when our previous response was lost in transit).
  const auto done = completed_submissions_.find(req.vm.id);
  if (done != completed_submissions_.end()) {
    auto resp = std::make_shared<SubmitVmResponse>();
    resp->ok = true;
    resp->lc = done->second.lc;
    resp->gm = done->second.gm;
    responder.respond(resp);
    return;
  }
  if (inflight_submissions_.count(req.vm.id) > 0) {
    // A retry raced the first dispatch (the client's submit deadline is
    // tighter than a worst-case placement). Park it; every waiter is
    // answered with the dispatch's outcome instead of bouncing the client
    // into another discovery round while the VM is still being placed.
    submit_waiters_[req.vm.id].push_back(responder);
    return;
  }
  ++gm_.counters_.dispatches;
  gm_.bump("gl.dispatches");
  const auto span = telemetry::begin_span(gm_.tel(), ctx, "gl.dispatch", gm_.name(),
                                          "vm=" + std::to_string(req.vm.id));
  std::vector<net::Address> candidates = gm_.dispatch_policy_->candidates(
      req.vm, eligible_gms(), gm_.config_.max_dispatch_candidates);
  if (candidates.empty()) {
    ++gm_.counters_.dispatch_failures;
    gm_.bump("gl.dispatch_failures");
    telemetry::end_span(gm_.tel(), span, "no_candidates");
    fail();
    return;
  }
  inflight_submissions_.insert(req.vm.id);
  dispatch_linear_search(gm_, term_, req.vm, std::move(candidates), 0, span, responder);
}

void GroupLeader::dispatch_linear_search(GroupManager& gm, TermHandle term, VmDescriptor vm,
                                         std::vector<net::Address> candidates,
                                         std::size_t index, telemetry::SpanContext span,
                                         net::Responder responder) {
  if (index >= candidates.size()) {
    ++gm.counters_.dispatch_failures;
    gm.bump("gl.dispatch_failures");
    answer_submit(gm, *term, vm.id, responder, {}, span, "failed");
    return;
  }
  // Each candidate GM gets transport-level retries before we move on: if an
  // attempt's *response* was lost (the GM may well have placed the VM), the
  // GM's idempotent placement handler resolves the re-send instantly instead
  // of a second copy being started on the next GM. Explicit rejections do
  // not retry (call_with_retries semantics) and fall through to the next
  // candidate immediately.
  const net::Address target = candidates[index];
  auto place = std::make_shared<PlacementRequest>();
  place->vm = vm;
  place->ctx = span;
  place->epoch = gm.my_epoch_;  // fencing token: GMs reject deposed leaders
  net::RetryPolicy policy;
  policy.max_attempts = 2;
  policy.base_backoff = 0.25;
  gm.endpoint_.call_with_retries(
      target, place, gm.config_.placement_rpc_timeout, policy,
      [&gm, term = std::move(term), vm, candidates = std::move(candidates), index, target,
       span, responder](bool ok, const net::MsgPtr& reply) mutable {
    if (ok && net::msg_cast<StaleEpochError>(reply) != nullptr) {
      // A GM saw a newer GL term than ours: we are deposed. Abandon the
      // dispatch (the client retries against the successor) and rejoin the
      // election instead of spraying stale commands at further candidates.
      // Answer before step_down(): stepping down drops the waiter book.
      answer_submit(gm, *term, vm.id, responder, {}, span, "stale_epoch");
      gm.step_down("stale epoch on dispatch");
      return;
    }
    const auto* resp = ok ? net::msg_cast<PlacementResponse>(reply) : nullptr;
    if (resp != nullptr && resp->ok) {
      SubmitVmResponse out;
      out.ok = true;
      out.lc = resp->lc;
      out.gm = target;
      answer_submit(gm, *term, vm.id, responder, out, span, "ok");
      return;
    }
    // Rejected or retries exhausted: try the next candidate GM.
    dispatch_linear_search(gm, std::move(term), std::move(vm), std::move(candidates),
                           index + 1, span, responder);
  });
}

void GroupLeader::answer_submit(GroupManager& gm, GroupLeader* gl, VmId vm,
                                const net::Responder& responder,
                                const SubmitVmResponse& result, telemetry::SpanContext span,
                                std::string_view status) {
  if (gl != nullptr) {
    gl->inflight_submissions_.erase(vm);
    if (result.ok) gl->completed_submissions_[vm] = {result.lc, result.gm, gm.now()};
  }
  telemetry::end_span(gm.tel(), span, status);
  responder.respond(std::make_shared<SubmitVmResponse>(result));
  if (gl == nullptr) return;
  const auto waiting = gl->submit_waiters_.find(vm);
  if (waiting == gl->submit_waiters_.end()) return;
  for (const auto& waiter : waiting->second) {
    waiter.respond(std::make_shared<SubmitVmResponse>(result));
  }
  gl->submit_waiters_.erase(waiting);
}

}  // namespace snooze::core
