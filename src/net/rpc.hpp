// Request/response layer over the simulated network.
//
// Snooze components are "RESTful web services" in the paper; RpcEndpoint is
// the simulated equivalent: each component owns one endpoint that supports
// fire-and-forget sends, multicast, and correlated request/response calls
// with timeouts. Request handlers receive a Responder and may reply
// immediately or later (e.g. a Group Manager deferring a placement response
// until a suspended node has been woken up).
//
// Gray-failure hardening: multi-attempt calls (retries, hedges) share a call
// group, so a *slow* reply that arrives after its attempt's soft timeout but
// before the overall call gave up still wins — it cancels the scheduled
// retry instead of racing it. call_with_hedging() launches one backup
// attempt after a p99-derived delay (idempotent call sites only), and a
// per-destination circuit breaker (closed/open/half-open on consecutive
// timeouts) lets opted-in callers fail fast at known-bad destinations.
#pragma once

#include <array>
#include <functional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/network.hpp"
#include "sim/actor.hpp"

namespace snooze::net {

/// Envelope wrapper carrying RPC correlation metadata.
struct RpcWrap final : Message {
  std::uint64_t rpc_id = 0;
  bool is_reply = false;
  MsgPtr inner;

  [[nodiscard]] std::string_view type() const override { return "rpc"; }
  [[nodiscard]] std::size_t wire_size() const override {
    // correlation id + flags + authority epoch
    return 24 + (inner ? inner->wire_size() : 0);
  }
};

/// Capability to answer one specific request; copyable, may outlive the
/// handler invocation (deferred replies). Replying twice is a no-op at the
/// caller (the first reply wins; the second finds no pending call).
class Responder {
 public:
  Responder(Network* network, Address self, Address to, std::uint64_t rpc_id,
            telemetry::SpanContext ctx = {})
      : network_(network), self_(self), to_(to), rpc_id_(rpc_id), ctx_(ctx) {}

  void respond(MsgPtr reply) const;

  /// Trace context of the request being answered (the rpc-attempt span).
  [[nodiscard]] const telemetry::SpanContext& ctx() const { return ctx_; }

 private:
  Network* network_;
  Address self_;
  Address to_;
  std::uint64_t rpc_id_;
  telemetry::SpanContext ctx_;
};

/// Backoff schedule for call_with_retries().
///
/// Retries use *decorrelated jitter* (next delay drawn uniformly from
/// [base_backoff, prev * 3], clamped to max_backoff): after a partition
/// heals, callers that timed out together fan out across the whole delay
/// range instead of re-sending in lockstep, so the recovering node is not
/// hit by a synchronized retry storm. The legacy exponential schedule
/// (backoff()) remains for round-based pacing outside the RPC layer.
struct RetryPolicy {
  int max_attempts = 3;
  sim::Time base_backoff = 0.5;
  double multiplier = 2.0;
  sim::Time max_backoff = 30.0;
  double jitter = 0.5;
  /// Overall deadline for the whole call_with_retries() sequence, measured
  /// from the first attempt: no retry is *started* at or past this budget
  /// (an attempt already in flight still runs to its own timeout).
  /// 0 = unbounded (attempts alone limit the sequence).
  sim::Time max_total = 0.0;
  /// Consult the destination's circuit breaker before each attempt and fail
  /// fast while it is open. Opt-in: legacy call sites (elections, heartbeat
  /// companions) keep their exact timing unless they ask for it.
  bool use_breaker = false;

  /// Exponential schedule: delay before the attempt following failed attempt
  /// `attempt` (1-based), base * multiplier^(n-1) plus uniform jitter of up
  /// to `jitter` times that backoff.
  [[nodiscard]] sim::Time backoff(int attempt, util::Rng& rng) const;

  /// Decorrelated-jitter schedule: delay after a failed attempt whose own
  /// backoff was `prev` (pass 0 for the first failure).
  [[nodiscard]] sim::Time next_backoff(sim::Time prev, util::Rng& rng) const;
};

/// Hedge pacing for call_with_hedging().
struct HedgePolicy {
  /// Fixed delay before the backup attempt; 0 = derive from the observed
  /// p99 latency to that destination (clamped to [min_delay, max_delay]).
  sim::Time hedge_delay = 0.0;
  sim::Time min_delay = 0.02;
  sim::Time max_delay = 2.0;
};

/// Latency samples kept per destination for the hedge delay.
inline constexpr std::size_t kLatencyRing = 32;

/// p99 of a latency ring holding 1 <= n <= kLatencyRing samples, defined as
/// element floor(0.99 * (n - 1)) of the sorted samples. For n >= 2 and
/// n <= 101 that index is n - 2: the answer is the second-largest sample
/// (the only one when n == 1), found by one linear top-2 scan instead of a
/// copy and a sort.
[[nodiscard]] float ring_p99(std::span<const float> samples);

/// Per-destination circuit-breaker knobs (one config per endpoint).
struct BreakerConfig {
  int threshold = 5;            ///< consecutive timeouts that open the breaker
  sim::Time open_duration = 10.0;  ///< open -> half-open after this long
};

class RpcEndpoint final : public Endpoint {
 public:
  /// Handler for one-way messages.
  using MessageHandler = std::function<void(const Envelope&)>;
  /// Handler for requests; reply now or keep the Responder for later.
  using RequestHandler = std::function<void(const Envelope&, Responder)>;
  /// Completion callback for call(): ok=false means timeout (reply null).
  using ReplyCallback = std::function<void(bool ok, const MsgPtr& reply)>;

  RpcEndpoint(sim::Engine& engine, Network& network, Address address, std::string name);
  ~RpcEndpoint() override;

  RpcEndpoint(const RpcEndpoint&) = delete;
  RpcEndpoint& operator=(const RpcEndpoint&) = delete;

  [[nodiscard]] Address address() const { return address_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Network& network() const { return network_; }

  void set_message_handler(MessageHandler handler) { on_oneway_ = std::move(handler); }
  void set_request_handler(RequestHandler handler) { on_request_ = std::move(handler); }
  void set_breaker_config(BreakerConfig config) { breaker_config_ = config; }

  /// Fire-and-forget unicast.
  void send(Address to, MsgPtr msg);

  /// Fire-and-forget multicast to a heartbeat group.
  void multicast(GroupId group, MsgPtr msg);

  /// Request/response with timeout. The callback always fires exactly once.
  void call(Address to, MsgPtr request, sim::Time timeout, ReplyCallback cb);

  /// call() with automatic re-send on timeout: up to policy.max_attempts
  /// tries separated by decorrelated-jitter backoff (deterministic per
  /// engine seed), the whole sequence capped by policy.max_total. The
  /// callback fires exactly once, with the first successful reply or the
  /// final timeout. Replies — including explicit rejections — never trigger
  /// a retry; only transport-level timeouts do, so request handlers must
  /// stay idempotent under duplicated requests. A reply that arrives after
  /// its own attempt timed out but before the overall call resolved still
  /// completes the call and cancels the pending retry (slow != lost).
  void call_with_retries(Address to, MsgPtr request, sim::Time timeout,
                         RetryPolicy policy, ReplyCallback cb);

  /// Tail-latency hedging: send the request, and if no reply lands within
  /// the hedge delay, send one backup copy of the same request to the same
  /// destination. First reply wins; the caller sees exactly one callback.
  /// Only valid for idempotent requests (probes, monitor pulls, summary
  /// fetches) — the destination may execute the request twice.
  void call_with_hedging(Address to, MsgPtr request, sim::Time timeout,
                         HedgePolicy policy, ReplyCallback cb);

  /// Circuit-breaker state for `to` (consulted by opted-in retry calls).
  [[nodiscard]] bool breaker_open(Address to) const;
  /// Cumulative seconds any of this endpoint's breakers spent open.
  [[nodiscard]] double breaker_open_seconds() const;

  /// Simulate a process crash: detach from the network and drop all pending
  /// calls *without* firing their callbacks (the process is gone).
  void go_down();
  /// Reattach after recovery.
  void go_up();
  [[nodiscard]] bool up() const { return up_; }

  void on_message(const Envelope& env) override;

 private:
  struct PendingCall {
    ReplyCallback cb;             ///< set for plain call(); empty when grouped
    sim::EventId timeout_event = 0;
    telemetry::SpanContext span;  ///< per-attempt rpc span (invalid if untraced)
    sim::Time started = 0.0;
    Address to = kNullAddress;
    std::uint64_t group = 0;  ///< call-group id; 0 = plain single-shot call
    bool timed_out = false;   ///< soft timeout fired, reply may still win
  };

  /// One logical multi-attempt call (retry sequence or hedge pair). The
  /// group owns the user callback; completion (first reply, final timeout,
  /// breaker fast-fail) fires it exactly once and reaps every attempt.
  struct CallGroup {
    ReplyCallback cb;
    Address to = kNullAddress;
    std::vector<std::uint64_t> attempts;  ///< outstanding attempt rpc ids
    sim::EventId pending_event = 0;       ///< scheduled retry / hedge launch
    bool hedged = false;
    std::uint64_t primary = 0;  ///< first attempt id (hedge accounting)
  };

  /// Latency history + breaker state for one destination.
  struct DestStats {
    std::array<float, kLatencyRing> latency{};
    std::size_t count = 0;  ///< total samples (ring index = count % kLatencyRing)
    int consecutive_timeouts = 0;
    enum class Breaker { kClosed, kOpen, kHalfOpen } breaker = Breaker::kClosed;
    sim::Time open_until = 0.0;
    sim::Time opened_at = 0.0;
  };

  void attempt_call(Address to, MsgPtr request, sim::Time timeout,
                    const RetryPolicy& policy, int attempt, sim::Time prev_backoff,
                    sim::Time deadline, std::uint64_t group_id);
  /// Send one attempt. A plain call (group 0) resolves through `cb` at its
  /// reply or timeout. A grouped attempt runs `on_timeout` at its soft
  /// timeout; its pending entry stays alive so a late reply can still win.
  std::uint64_t send_attempt(Address to, const MsgPtr& request, sim::Time timeout,
                             std::uint64_t group_id, ReplyCallback cb,
                             std::function<void()> on_timeout);
  /// Resolve a call group exactly once and reap its outstanding attempts.
  void complete_group(std::uint64_t group_id, bool ok, const MsgPtr& reply,
                      std::uint64_t winner);
  /// Fail the group if every attempt timed out and nothing else is scheduled.
  void finish_if_exhausted(std::uint64_t group_id);
  /// Fire `cb(false, nullptr)` asynchronously (breaker fast-fail path).
  void fail_async(ReplyCallback cb);

  [[nodiscard]] sim::Time hedge_delay(Address to, const HedgePolicy& policy) const;
  /// True when the breaker permits an attempt now (may transition to
  /// half-open as a side effect).
  bool breaker_allows(Address to);
  void note_reply(Address to, sim::Time latency);
  void note_timeout(Address to);

  sim::Engine& engine_;
  Network& network_;
  Address address_;
  std::string name_;
  bool up_ = true;
  std::uint64_t next_rpc_id_ = 1;
  std::uint64_t next_group_id_ = 1;
  std::unordered_map<std::uint64_t, PendingCall> pending_;
  std::unordered_map<std::uint64_t, CallGroup> groups_;
  std::unordered_map<Address, DestStats> dest_stats_;
  BreakerConfig breaker_config_;
  double breaker_open_s_ = 0.0;
  std::shared_ptr<bool> alive_;
  MessageHandler on_oneway_;
  RequestHandler on_request_;
  telemetry::Cached<telemetry::Counter> calls_metric_{"rpc.calls"};
  telemetry::Cached<telemetry::Histogram> latency_metric_{"rpc.latency"};
};

}  // namespace snooze::net
