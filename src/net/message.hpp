// Wire-message base type.
//
// Protocol payloads derive from Message and are carried by value-semantics
// shared_ptrs (a delivered message is immutable and may be multicast to many
// receivers). wire_size() feeds the control-traffic accounting used by the
// management-overhead experiment (E6).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <type_traits>
#include <typeinfo>

#include "telemetry/context.hpp"

namespace snooze::net {

/// Network address of a simulated node (EP/GL/GM/LC/client/service).
using Address = std::uint32_t;

constexpr Address kNullAddress = 0;

struct Message {
  virtual ~Message() = default;
  /// Stable type tag, used for tracing and dispatch diagnostics.
  [[nodiscard]] virtual std::string_view type() const = 0;
  /// Approximate serialized size in bytes (for overhead accounting).
  [[nodiscard]] virtual std::size_t wire_size() const { return 128; }

  /// Causal trace context; set by the sender before the message is handed to
  /// the network (a default/invalid context marks untraced traffic).
  telemetry::SpanContext ctx;

  /// Authority epoch of the sender (fencing token). Leaders stamp every
  /// authority-bearing command with the epoch of the election term (or
  /// lease) under which they act; receivers reject commands whose epoch is
  /// below the highest they have seen for that authority domain. Zero marks
  /// unfenced traffic (heartbeats, client requests, administrative paths).
  std::uint64_t epoch = 0;
};

using MsgPtr = std::shared_ptr<const Message>;

/// Downcast helper: returns nullptr when the payload is of a different type.
/// An exact-type check (one typeinfo comparison, no hierarchy walk), which
/// is only a correct downcast when nothing can derive from T — hence every
/// wire message type must be final.
template <typename T>
const T* msg_cast(const Message& msg) {
  static_assert(std::is_final_v<T>, "wire message types must be final");
  return typeid(msg) == typeid(T) ? static_cast<const T*>(&msg) : nullptr;
}

template <typename T>
const T* msg_cast(const MsgPtr& msg) {
  return msg ? msg_cast<T>(*msg) : nullptr;
}

/// Envelope delivered to an endpoint.
struct Envelope {
  Address from = kNullAddress;
  Address to = kNullAddress;
  MsgPtr payload;
  /// Trace context the receiver should parent its spans under. For plain
  /// sends this mirrors payload->ctx; for RPC requests RpcEndpoint rewrites
  /// it to the per-attempt rpc span so retries stay distinguishable.
  telemetry::SpanContext ctx;
  /// Sender's authority epoch, mirrored from the payload (for RPC requests,
  /// from the wrapped inner message) so fencing checks read the envelope.
  std::uint64_t epoch = 0;
};

/// Receiver interface registered with the Network.
class Endpoint {
 public:
  virtual ~Endpoint() = default;
  virtual void on_message(const Envelope& env) = 0;
};

}  // namespace snooze::net
