#include "net/rpc.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "net/pool.hpp"

namespace snooze::net {

sim::Time RetryPolicy::backoff(int attempt, util::Rng& rng) const {
  sim::Time delay = base_backoff;
  for (int i = 1; i < attempt; ++i) delay *= multiplier;
  delay = std::min(delay, max_backoff);
  if (jitter > 0.0) delay += rng.uniform(0.0, jitter * delay);
  return delay;
}

sim::Time RetryPolicy::next_backoff(sim::Time prev, util::Rng& rng) const {
  // AWS-style decorrelated jitter: sleep = min(cap, uniform(base, prev * 3)).
  // The upper bound grows from the *previous actual sleep*, so consecutive
  // delays decorrelate instead of marching up a shared exponential ladder.
  const sim::Time upper = std::max(base_backoff, prev * 3.0);
  sim::Time delay = upper <= base_backoff ? base_backoff
                                          : rng.uniform(base_backoff, upper);
  return std::min(delay, max_backoff);
}

void Responder::respond(MsgPtr reply) const {
  assert(reply != nullptr);
  auto wrap = make_message<RpcWrap>();
  wrap->rpc_id = rpc_id_;
  wrap->is_reply = true;
  wrap->inner = std::move(reply);
  wrap->ctx = ctx_;  // the reply travels under the rpc-attempt span
  // Send through the network directly: if the responding node has crashed in
  // the meantime the network blackholes it (sender is in the down set).
  network_->send(self_, to_, std::move(wrap));
}

RpcEndpoint::RpcEndpoint(sim::Engine& engine, Network& network, Address address,
                         std::string name)
    : engine_(engine),
      network_(network),
      address_(address),
      name_(std::move(name)),
      alive_(std::make_shared<bool>(true)) {
  network_.attach(address_, this);
}

RpcEndpoint::~RpcEndpoint() {
  *alive_ = false;
  network_.detach(address_);
}

void RpcEndpoint::send(Address to, MsgPtr msg) {
  if (!up_) return;
  network_.send(address_, to, std::move(msg));
}

void RpcEndpoint::multicast(GroupId group, MsgPtr msg) {
  if (!up_) return;
  network_.multicast(address_, group, msg);
}

void RpcEndpoint::call(Address to, MsgPtr request, sim::Time timeout, ReplyCallback cb) {
  assert(cb);
  if (!up_) return;
  send_attempt(to, request, timeout, 0, std::move(cb), {});
}

std::uint64_t RpcEndpoint::send_attempt(Address to, const MsgPtr& request,
                                        sim::Time timeout, std::uint64_t group_id,
                                        ReplyCallback cb,
                                        std::function<void()> on_timeout) {
  auto wrap = make_message<RpcWrap>();
  wrap->rpc_id = next_rpc_id_++;
  wrap->is_reply = false;
  wrap->inner = request;
  wrap->epoch = request->epoch;  // the fencing token rides the envelope

  // One rpc span per attempt, parented under the request's context — a
  // retried RPC shows up as sibling attempt spans, the timed-out ones marked
  // status=timeout.
  telemetry::Telemetry* tel = network_.telemetry();
  telemetry::count(tel, calls_metric_);
  const telemetry::SpanContext span = telemetry::begin_span(
      tel, wrap->inner->ctx, "rpc:" + std::string(wrap->inner->type()), name_);
  wrap->ctx = span.valid() ? span : wrap->inner->ctx;

  const std::uint64_t id = wrap->rpc_id;
  PendingCall pending;
  pending.cb = std::move(cb);
  pending.span = span;
  pending.started = engine_.now();
  pending.to = to;
  pending.group = group_id;
  auto token = alive_;
  pending.timeout_event =
      engine_.schedule(timeout, [this, token, id, on_timeout = std::move(on_timeout)] {
    if (!*token) return;
    const auto it = pending_.find(id);
    if (it == pending_.end()) return;
    telemetry::Telemetry* t = network_.telemetry();
    telemetry::count(t, "rpc.timeouts");
    telemetry::end_span(t, it->second.span, "timeout");
    note_timeout(it->second.to);
    if (it->second.group == 0) {
      auto callback = std::move(it->second.cb);
      pending_.erase(it);
      callback(false, nullptr);
      return;
    }
    // Soft timeout: the attempt no longer paces the call, but its pending
    // entry stays alive — a slow (not lost) reply can still win the group
    // until the group itself resolves.
    it->second.timed_out = true;
    it->second.timeout_event = 0;
    it->second.span = {};
    on_timeout();
  });
  pending_.emplace(id, std::move(pending));
  if (group_id != 0) groups_[group_id].attempts.push_back(id);
  network_.send(address_, to, std::move(wrap));
  return id;
}

// ---------------------------------------------------------------------------
// Call groups (retries + hedges)
// ---------------------------------------------------------------------------

void RpcEndpoint::complete_group(std::uint64_t group_id, bool ok, const MsgPtr& reply,
                                 std::uint64_t winner) {
  const auto it = groups_.find(group_id);
  if (it == groups_.end()) return;
  CallGroup group = std::move(it->second);
  groups_.erase(it);
  engine_.cancel(group.pending_event);
  telemetry::Telemetry* tel = network_.telemetry();
  for (const std::uint64_t id : group.attempts) {
    const auto p = pending_.find(id);
    if (p == pending_.end()) continue;
    engine_.cancel(p->second.timeout_event);
    telemetry::end_span(tel, p->second.span, ok ? "superseded" : "failed");
    pending_.erase(p);
  }
  if (ok && group.hedged && winner != group.primary) {
    telemetry::count(tel, "rpc.hedges_won");
  }
  group.cb(ok, reply);
}

void RpcEndpoint::finish_if_exhausted(std::uint64_t group_id) {
  const auto it = groups_.find(group_id);
  if (it == groups_.end()) return;
  if (it->second.pending_event != 0) return;  // a retry/hedge is still scheduled
  for (const std::uint64_t id : it->second.attempts) {
    const auto p = pending_.find(id);
    if (p != pending_.end() && !p->second.timed_out) return;  // still in flight
  }
  complete_group(group_id, false, nullptr, 0);
}

void RpcEndpoint::fail_async(ReplyCallback cb) {
  auto token = alive_;
  engine_.schedule(0.0, [this, token, cb = std::move(cb)] {
    if (!*token || !up_) return;
    cb(false, nullptr);
  });
}

void RpcEndpoint::call_with_retries(Address to, MsgPtr request, sim::Time timeout,
                                    RetryPolicy policy, ReplyCallback cb) {
  assert(policy.max_attempts >= 1);
  if (!up_) return;
  if (policy.use_breaker && !breaker_allows(to)) {
    telemetry::count(network_.telemetry(), "rpc.breaker_fast_fail");
    fail_async(std::move(cb));
    return;
  }
  const sim::Time deadline =
      policy.max_total > 0.0 ? engine_.now() + policy.max_total : -1.0;
  const std::uint64_t group_id = next_group_id_++;
  CallGroup group;
  group.cb = std::move(cb);
  group.to = to;
  groups_.emplace(group_id, std::move(group));
  attempt_call(to, std::move(request), timeout, policy, 1, 0.0, deadline, group_id);
}

void RpcEndpoint::attempt_call(Address to, MsgPtr request, sim::Time timeout,
                               const RetryPolicy& policy, int attempt,
                               sim::Time prev_backoff, sim::Time deadline,
                               std::uint64_t group_id) {
  send_attempt(to, request, timeout, group_id, {},
               [this, to, request, timeout, policy, attempt, prev_backoff, deadline,
                group_id] {
    const auto it = groups_.find(group_id);
    if (it == groups_.end()) return;
    if (attempt >= policy.max_attempts) {
      complete_group(group_id, false, nullptr, 0);
      return;
    }
    telemetry::count(network_.telemetry(), "rpc.retries");
    const sim::Time delay = policy.next_backoff(prev_backoff, engine_.rng());
    if (deadline >= 0.0 && engine_.now() + delay >= deadline) {
      // The overall budget is spent before the next attempt could start:
      // report the failure now rather than retrying past the deadline.
      telemetry::count(network_.telemetry(), "rpc.deadline_exceeded");
      complete_group(group_id, false, nullptr, 0);
      return;
    }
    auto token = alive_;
    it->second.pending_event = engine_.schedule(
        delay, [this, token, to, request, timeout, policy, attempt, delay, deadline,
                group_id]() mutable {
      // Like go_down()'s pending-call semantics: a process that crashed
      // between attempts never fires the callback.
      if (!*token || !up_) return;
      const auto git = groups_.find(group_id);
      if (git == groups_.end()) return;  // a late reply already won
      git->second.pending_event = 0;
      if (policy.use_breaker && !breaker_allows(to)) {
        telemetry::count(network_.telemetry(), "rpc.breaker_fast_fail");
        complete_group(group_id, false, nullptr, 0);
        return;
      }
      attempt_call(to, std::move(request), timeout, policy, attempt + 1, delay,
                   deadline, group_id);
    });
  });
}

void RpcEndpoint::call_with_hedging(Address to, MsgPtr request, sim::Time timeout,
                                    HedgePolicy policy, ReplyCallback cb) {
  if (!up_) return;
  const std::uint64_t group_id = next_group_id_++;
  CallGroup group;
  group.cb = std::move(cb);
  group.to = to;
  group.hedged = true;
  groups_.emplace(group_id, std::move(group));
  const std::uint64_t primary =
      send_attempt(to, request, timeout, group_id, {},
                   [this, group_id] { finish_if_exhausted(group_id); });
  groups_[group_id].primary = primary;
  const sim::Time delay = hedge_delay(to, policy);
  if (delay >= timeout) return;  // no room left for a useful backup attempt
  auto token = alive_;
  groups_[group_id].pending_event = engine_.schedule(
      delay, [this, token, to, request = std::move(request), timeout, delay,
              group_id] {
    if (!*token || !up_) return;
    const auto it = groups_.find(group_id);
    if (it == groups_.end()) return;  // the primary already answered
    it->second.pending_event = 0;
    telemetry::count(network_.telemetry(), "rpc.hedges");
    send_attempt(to, request, timeout - delay, group_id, {},
                 [this, group_id] { finish_if_exhausted(group_id); });
  });
}

float ring_p99(std::span<const float> samples) {
  assert(!samples.empty() && samples.size() <= kLatencyRing);
  float first = samples[0];
  float second = -std::numeric_limits<float>::infinity();
  for (const float x : samples.subspan(1)) {
    if (x > first) {
      second = first;
      first = x;
    } else if (x > second) {
      second = x;
    }
  }
  return samples.size() == 1 ? first : second;
}

sim::Time RpcEndpoint::hedge_delay(Address to, const HedgePolicy& policy) const {
  if (policy.hedge_delay > 0.0) return policy.hedge_delay;
  sim::Time p99 = policy.min_delay;
  const auto it = dest_stats_.find(to);
  if (it != dest_stats_.end() && it->second.count > 0) {
    const std::size_t n = std::min(it->second.count, kLatencyRing);
    p99 = ring_p99(std::span<const float>(it->second.latency.data(), n));
  }
  return std::clamp(p99, policy.min_delay, policy.max_delay);
}

// ---------------------------------------------------------------------------
// Per-destination latency history + circuit breaker
// ---------------------------------------------------------------------------

void RpcEndpoint::note_reply(Address to, sim::Time latency) {
  DestStats& d = dest_stats_[to];
  d.latency[d.count % kLatencyRing] = static_cast<float>(latency);
  ++d.count;
  d.consecutive_timeouts = 0;
  if (d.breaker != DestStats::Breaker::kClosed) {
    // Any reply proves the destination back: close the breaker and bank the
    // time it spent open.
    breaker_open_s_ += engine_.now() - d.opened_at;
    d.breaker = DestStats::Breaker::kClosed;
    telemetry::count(network_.telemetry(), "rpc.breaker_closed");
    telemetry::gauge_set(network_.telemetry(), "rpc.breaker_open_s", breaker_open_s_);
  }
}

void RpcEndpoint::note_timeout(Address to) {
  DestStats& d = dest_stats_[to];
  ++d.consecutive_timeouts;
  if (d.breaker == DestStats::Breaker::kHalfOpen) {
    // The half-open probe failed: reopen for another full window.
    d.breaker = DestStats::Breaker::kOpen;
    d.open_until = engine_.now() + breaker_config_.open_duration;
    return;
  }
  if (d.breaker == DestStats::Breaker::kClosed &&
      d.consecutive_timeouts >= breaker_config_.threshold) {
    d.breaker = DestStats::Breaker::kOpen;
    d.opened_at = engine_.now();
    d.open_until = engine_.now() + breaker_config_.open_duration;
    telemetry::count(network_.telemetry(), "rpc.breaker_opened");
  }
}

bool RpcEndpoint::breaker_allows(Address to) {
  DestStats& d = dest_stats_[to];
  switch (d.breaker) {
    case DestStats::Breaker::kClosed:
      return true;
    case DestStats::Breaker::kOpen:
      if (engine_.now() < d.open_until) return false;
      d.breaker = DestStats::Breaker::kHalfOpen;  // probe traffic may pass
      return true;
    case DestStats::Breaker::kHalfOpen:
      return true;
  }
  return true;
}

bool RpcEndpoint::breaker_open(Address to) const {
  const auto it = dest_stats_.find(to);
  return it != dest_stats_.end() &&
         it->second.breaker == DestStats::Breaker::kOpen &&
         engine_.now() < it->second.open_until;
}

double RpcEndpoint::breaker_open_seconds() const {
  double total = breaker_open_s_;
  for (const auto& [addr, d] : dest_stats_) {
    if (d.breaker != DestStats::Breaker::kClosed) {
      total += engine_.now() - d.opened_at;
    }
  }
  return total;
}

// ---------------------------------------------------------------------------
// Crash / recovery
// ---------------------------------------------------------------------------

void RpcEndpoint::go_down() {
  if (!up_) return;
  up_ = false;
  network_.set_node_up(address_, false);
  // A crashed process loses its in-flight calls silently (spans are closed
  // so the trace shows where the caller died mid-call).
  for (auto& [id, pending] : pending_) {
    engine_.cancel(pending.timeout_event);
    telemetry::end_span(network_.telemetry(), pending.span, "caller_down");
  }
  pending_.clear();
  for (auto& [id, group] : groups_) engine_.cancel(group.pending_event);
  groups_.clear();
  // Bank open time for breakers that die open; the restarted process starts
  // with fresh latency rings and closed breakers.
  for (auto& [addr, d] : dest_stats_) {
    if (d.breaker != DestStats::Breaker::kClosed) {
      breaker_open_s_ += engine_.now() - d.opened_at;
    }
  }
  dest_stats_.clear();
}

void RpcEndpoint::go_up() {
  if (up_) return;
  up_ = true;
  network_.set_node_up(address_, true);
}

void RpcEndpoint::on_message(const Envelope& env) {
  if (!up_) return;
  const auto* wrap = msg_cast<RpcWrap>(env.payload);
  if (wrap == nullptr) {
    if (on_oneway_) on_oneway_(env);
    return;
  }
  if (!wrap->is_reply) {
    if (!on_request_) return;
    // Parent handler spans under the rpc-attempt span, not the sender's
    // original context, so each delivery attempt hangs off its own attempt.
    Envelope inner_env{env.from, env.to, wrap->inner, wrap->ctx, wrap->epoch};
    on_request_(inner_env,
                Responder(&network_, address_, env.from, wrap->rpc_id, wrap->ctx));
    return;
  }
  const auto it = pending_.find(wrap->rpc_id);
  if (it == pending_.end()) return;  // reply after the call fully resolved
  engine_.cancel(it->second.timeout_event);
  telemetry::Telemetry* tel = network_.telemetry();
  const sim::Time latency = engine_.now() - it->second.started;
  telemetry::observe(tel, latency_metric_, latency);
  note_reply(it->second.to, latency);
  // The first reply of a grouped attempt — even one arriving after its own
  // soft timeout — resolves the whole group and cancels any scheduled retry.
  auto callback = std::move(it->second.cb);
  const std::uint64_t group_id = it->second.group;
  if (it->second.timed_out) telemetry::count(tel, "rpc.late_replies_won");
  telemetry::end_span(tel, it->second.span, "ok");
  pending_.erase(it);
  if (group_id == 0) {
    callback(true, wrap->inner);
  } else {
    complete_group(group_id, true, wrap->inner, wrap->rpc_id);
  }
}

}  // namespace snooze::net
