// Telemetry bundle: one MetricsRegistry plus one SpanCollector, owned by the
// system under observation (SnoozeSystem) and reachable from every component
// through Network::telemetry(). Components must tolerate a null Telemetry*
// (unit tests build networks without one); the free helpers below fold that
// null check and the invalid-context check into the call site.
#pragma once

#include "sim/engine.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"

namespace snooze::telemetry {

class Telemetry {
 public:
  explicit Telemetry(sim::Engine& engine) : metrics_(engine), spans_(engine) {}

  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }
  [[nodiscard]] SpanCollector& spans() { return spans_; }
  [[nodiscard]] const SpanCollector& spans() const { return spans_; }

  /// Mirror the engine's queue counters into the registry. Pull-based by
  /// design: exporters and the CLI call this right before reading metrics,
  /// so observation never schedules events (a periodic sampler would perturb
  /// the event stream and break the golden-trace determinism contract).
  void sample_engine(const sim::Engine& engine) {
    const sim::Engine::Stats& st = engine.stats();
    const auto mirror = [this](std::string_view name, std::uint64_t value) {
      Counter& c = metrics_.counter(name);
      if (value > c.value()) c.inc(value - c.value());
    };
    mirror("engine.events_scheduled", st.scheduled);
    mirror("engine.events_fired", st.fired);
    mirror("engine.events_cancelled", st.cancelled);
    mirror("engine.events_overflowed", st.overflowed);
    mirror("engine.events_promoted", st.promoted);
    metrics_.gauge("engine.queue_depth")
        .set(static_cast<double>(engine.pending_events()));
    metrics_.gauge("engine.peak_queue_depth")
        .set(static_cast<double>(st.peak_pending));
    metrics_.gauge("engine.events_per_sec_wall").set(engine.events_per_second());
    // Exporters and the CLI read right after this call: commit every gauge's
    // tail segment so the weighted means include the value held since the
    // last set() up to virtual now().
    metrics_.flush_gauges();
  }

 private:
  MetricsRegistry metrics_;
  SpanCollector spans_;
};

// --- null-safe instrumentation helpers -------------------------------------

inline void count(Telemetry* t, std::string_view name, std::uint64_t delta = 1) {
  if (t != nullptr) t->metrics().counter(name).inc(delta);
}

inline void observe(Telemetry* t, std::string_view name, double value) {
  if (t != nullptr) t->metrics().histogram(name).observe(value);
}

/// observe() carrying exemplar context: when the histogram has exemplars
/// enabled, the sample's bucket retains its worst (value, span, time).
inline void observe(Telemetry* t, std::string_view name, double value,
                    const SpanContext& ctx, double now) {
  if (t != nullptr) {
    t->metrics().histogram(name).observe(value, ctx.span_id, now);
  }
}

inline void gauge_add(Telemetry* t, std::string_view name, double delta) {
  if (t != nullptr) t->metrics().gauge(name).add(delta);
}

inline void gauge_set(Telemetry* t, std::string_view name, double value) {
  if (t != nullptr) t->metrics().gauge(name).set(value);
}

/// A counter or histogram looked up once per Telemetry*, for call sites that
/// fire on every message. Like count()/observe(), the metric is created at
/// its first use, so exports do not change.
template <typename Metric>
struct Cached {
  std::string_view name;
  Telemetry* owner = nullptr;
  Metric* metric = nullptr;
};

inline void count(Telemetry* t, Cached<Counter>& c) {
  if (t == nullptr) return;
  if (t != c.owner) c = {c.name, t, &t->metrics().counter(c.name)};
  c.metric->inc();
}

inline void observe(Telemetry* t, Cached<Histogram>& h, double value) {
  if (t == nullptr) return;
  if (t != h.owner) h = {h.name, t, &t->metrics().histogram(h.name)};
  h.metric->observe(value);
}

/// Open a child span of `parent`; no-op (invalid context) without telemetry
/// or when the parent context carries no trace.
inline SpanContext begin_span(Telemetry* t, const SpanContext& parent,
                              std::string_view name, std::string_view actor,
                              std::string_view detail = {}) {
  if (t == nullptr || !parent.valid()) return {};
  return t->spans().begin(parent.trace_id, parent.span_id, name, actor, detail);
}

inline void end_span(Telemetry* t, const SpanContext& ctx,
                     std::string_view status = "ok") {
  if (t != nullptr && ctx.valid()) t->spans().end(ctx, status);
}

}  // namespace snooze::telemetry
