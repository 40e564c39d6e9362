// Group Leader (GL) role — paper §II.
//
// The GM that wins the election "switches to GL mode": it oversees the GMs,
// keeps their aggregated summaries, assigns joining LCs to GMs and
// dispatches VM submissions. A GroupLeader is that mode: it holds the
// role's soft state and exists only while its GroupManager leads
// (become_leader creates it, step_down() and fail() destroy it), so a
// deposed leader holds no GL state by construction. A placement callback
// that outlives its term finds the leader gone through its TermHandle: it
// still answers its client, tries the next candidate GM or steps down on a
// stale epoch, but writes no GL state (DESIGN.md, "GL role lifetime").
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string_view>
#include <vector>

#include "core/messages.hpp"
#include "core/policies.hpp"
#include "core/summary_codec.hpp"
#include "net/rpc.hpp"
#include "telemetry/telemetry.hpp"

namespace snooze::core {

class GroupManager;

class GroupLeader {
 public:
  /// The GL's VM -> owner record, built from GM summaries.
  struct VmOwnership {
    net::Address gm = net::kNullAddress;
    net::Address lc = net::kNullAddress;
    sim::Time since = 0.0;
  };

  /// Opens the term's reconciliation window (see
  /// SnoozeConfig::gl_reconcile_window); the GroupManager schedules its end.
  explicit GroupLeader(GroupManager& gm);
  ~GroupLeader();
  GroupLeader(const GroupLeader&) = delete;
  GroupLeader& operator=(const GroupLeader&) = delete;

  // --- introspection ---------------------------------------------------------
  /// True while the term defers client work to rebuild soft state.
  [[nodiscard]] bool reconciling() const { return reconciling_; }
  [[nodiscard]] std::size_t known_gm_count() const { return gms_.size(); }
  [[nodiscard]] std::vector<GmInfo> gm_infos() const;
  [[nodiscard]] const std::map<VmId, VmOwnership>& vm_inventory() const {
    return vm_inventory_;
  }
  /// Unresolved cross-GM duplicate claims awaiting the incumbent's next
  /// summary (diagnostic; steady state is empty).
  [[nodiscard]] std::size_t vm_conflict_count() const { return vm_conflicts_.size(); }
  /// Age of the stalest GM summary, in seconds (obs SLI). Negative while
  /// this leader knows no GMs yet.
  [[nodiscard]] double summary_staleness() const;
  /// Worst LC heartbeat age aggregated hierarchically across GM summaries.
  /// Negative until a summary carried the aggregate.
  [[nodiscard]] double aggregated_lc_heartbeat_age() const;
  /// GMs currently flagged slow.
  [[nodiscard]] std::size_t gm_probation_count() const;
  /// Idempotency book size (RSS proxy for long-run soak gates).
  [[nodiscard]] std::size_t submission_book_size() const {
    return completed_submissions_.size();
  }

 private:
  friend class GroupManager;

  /// Null once the term it was taken from has ended.
  using TermHandle = std::shared_ptr<GroupLeader*>;

  struct GmRecord {
    GmInfo info;
    sim::Time last_summary = 0.0;
    SummaryDecoder decoder;
  };
  struct CompletedSubmission {
    net::Address lc = net::kNullAddress;
    net::Address gm = net::kNullAddress;
    sim::Time at = 0.0;  ///< last acknowledgment (placement or summary refresh)
  };
  struct PendingConflict {
    net::Address incumbent = net::kNullAddress;
    net::Address challenger = net::kNullAddress;
    net::Address challenger_lc = net::kNullAddress;
    sim::Time since = 0.0;
  };

  void finish_reconcile();
  void tick_heartbeat();
  void check_gm_liveness();
  /// The GMs a gray-failure probe round targets.
  [[nodiscard]] std::vector<net::Address> probe_targets() const;
  /// Refresh GM probation flags from the (just evaluated) scorer.
  void evaluate_slowness();
  /// Drop submission-book entries unrefreshed for longer than the retention
  /// window (a live VM is re-acknowledged by its GM's summaries; an entry
  /// that stopped refreshing belongs to a terminated VM whose client is long
  /// gone). Bounds the book on long-horizon runs.
  void prune_submission_book();
  /// Apply one GmSummaryDelta to the sender's decoder, sync the VM
  /// inventory, and ack (ok=false asks the GM to snapshot).
  void handle_summary_delta(const GmSummaryDelta& delta, net::Responder responder);
  /// Inventory bookkeeping for one placed / removed VM from an applied
  /// summary; detects cross-GM duplicate claims (same VM id under two GMs).
  void note_vm_placed(net::Address gm, VmId vm, net::Address lc);
  void note_vm_removed(net::Address gm, VmId vm);
  /// After applying a summary from `gm`, settle conflicts where `gm` is the
  /// incumbent: if it still reports the VM, revoke the challenger's copy;
  /// if it dropped the VM, the challenger simply becomes the owner.
  void resolve_conflicts_for(net::Address gm);
  /// Drop a departed GM's inventory entries and settle its conflicts.
  void drop_gm_inventory(net::Address gm);
  /// GMs not under gray suspicion — or all of them when every GM is
  /// flagged, so a fleet-wide slowdown never becomes an outage.
  [[nodiscard]] std::vector<GmInfo> eligible_gms() const;
  void handle_assign_lc(net::Responder responder);
  void handle_submit(const SubmitVmRequest& req, telemetry::SpanContext ctx,
                     net::Responder responder);
  /// Offer `vm` to candidates[index..] in turn. Static because the search
  /// outlives its term: it takes the leader from `term` at each step.
  static void dispatch_linear_search(GroupManager& gm, TermHandle term, VmDescriptor vm,
                                     std::vector<net::Address> candidates,
                                     std::size_t index, telemetry::SpanContext span,
                                     net::Responder responder);
  /// Settle a dispatch: close its span and answer its client. While the
  /// term lasts (`gl` non-null) also record the outcome in the book and
  /// answer every retry parked on the same VM.
  static void answer_submit(GroupManager& gm, GroupLeader* gl, VmId vm,
                            const net::Responder& responder,
                            const SubmitVmResponse& result, telemetry::SpanContext span,
                            std::string_view status);

  GroupManager& gm_;
  TermHandle term_;

  bool reconciling_ = true;
  sim::Time reconcile_started_ = 0.0;
  telemetry::SpanContext reconcile_span_;

  std::map<net::Address, GmRecord> gms_;

  // Idempotency: a submission retried because its response was lost must
  // not start a second copy of the VM. Completed results are replayed;
  // duplicates of in-flight submissions are parked and answered with the
  // first dispatch's outcome (the client's submit deadline is shorter than
  // our worst-case placement, so retries legitimately race the original).
  // The completed map is refreshed by GM summaries for live VMs and pruned
  // after SnoozeConfig::submission_book_retention for entries that stopped
  // refreshing (terminated VMs), so it stays bounded by the live fleet on
  // long-horizon runs.
  std::map<VmId, CompletedSubmission> completed_submissions_;
  std::set<VmId> inflight_submissions_;
  std::map<VmId, std::vector<net::Responder>> submit_waiters_;

  // The cluster-wide VM -> owner inventory assembled from GM summaries, and
  // cross-GM duplicate claims pending resolution. A conflict is resolved
  // only on the incumbent's next applied summary — if it still reports the
  // VM the challenger's copy is revoked, otherwise ownership transfers — so
  // a single reordered report never kills a healthy VM.
  std::map<VmId, VmOwnership> vm_inventory_;
  std::map<VmId, PendingConflict> vm_conflicts_;
};

}  // namespace snooze::core
