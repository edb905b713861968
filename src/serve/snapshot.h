// Versioned, immutable CST snapshots with an RCU-style publication
// protocol (the serving layer's answer to "the document changed while
// queries were in flight").
//
// A CstSnapshot is frozen at construction: the CST, the metadata
// describing how it was built, and a monotone version id. The catalog
// hands read paths a shared_ptr they *pin* for the duration of one
// request — publishing version N+1 is a pointer swap, so in-flight
// readers keep answering against version N and the old snapshot is
// freed exactly when its last pinned reader drops it. Readers never
// wait on builders: the only shared critical section is a refcount
// bump under a mutex held for a pointer copy.
//
// Rebuilds run off-thread (BeginRebuild): the builder callback
// constructs a summary from whatever source the caller closes over —
// the data tree, or a TWCST03 store via cst::PagedCst::OpenFile — and
// the catalog hot-swaps on completion. One rebuild may be in
// flight at a time; a second BeginRebuild is refused rather than
// queued (the newest data wins anyway once the current rebuild lands).

#ifndef TWIG_SERVE_SNAPSHOT_H_
#define TWIG_SERVE_SNAPSHOT_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cst/cst.h"
#include "tree/tree.h"
#include "util/status.h"

namespace twig::serve {

/// One immutable published summary. Everything a request needs to be
/// answered — and labeled with the version that answered it.
struct CstSnapshot {
  /// Monotone catalog version, starting at 1.
  uint64_t version = 0;
  /// Human description of the build source ("dblp 2.0 MB @ 1%",
  /// "blob swap", ...). Diagnostic only.
  std::string source;
  /// Wall seconds the build took (0 when built synchronously outside
  /// the catalog).
  double build_seconds = 0;
  /// The summary behind this snapshot: a materialized cst::Cst, or a
  /// cst::PagedCst reading a TWCST03 store through a buffer pool.
  /// Never null in a published snapshot.
  std::shared_ptr<const cst::CstView> summary;
  /// The data tree the summary was built from, when the publisher
  /// still has it (nullptr for snapshots opened from a store). The
  /// accuracy sampler re-executes requests against it; absent, the
  /// sampler skips the request.
  std::shared_ptr<const tree::Tree> data;
};

class SnapshotCatalog {
 public:
  SnapshotCatalog() = default;
  SnapshotCatalog(const SnapshotCatalog&) = delete;
  SnapshotCatalog& operator=(const SnapshotCatalog&) = delete;

  /// Joins any in-flight rebuild (its publish still happens).
  ~SnapshotCatalog();

  /// The current snapshot, pinned: valid until the returned pointer is
  /// dropped, regardless of how many versions publish meanwhile.
  /// nullptr before the first Publish.
  std::shared_ptr<const CstSnapshot> Current() const;

  /// Version of the current snapshot; 0 before the first Publish.
  uint64_t version() const;

  /// Publishes `summary` as the new current snapshot and returns its
  /// version. In-flight readers holding an older snapshot are
  /// unaffected. Thread-safe (builders may publish concurrently; each
  /// gets a distinct version, last one wins as "current"). `data`,
  /// when provided, is the tree the summary was built from — it
  /// enables the accuracy sampler on this snapshot.
  uint64_t Publish(cst::Cst summary, std::string source,
                   double build_seconds = 0,
                   std::shared_ptr<const tree::Tree> data = nullptr);

  /// Publishes an already-shared summary view (e.g. a cst::PagedCst
  /// over a TWCST03 store). `summary` must not be null.
  uint64_t Publish(std::shared_ptr<const cst::CstView> summary,
                   std::string source, double build_seconds = 0,
                   std::shared_ptr<const tree::Tree> data = nullptr);

  /// Builds a CST; the Result carries why a rebuild failed (e.g. a
  /// corrupt blob).
  using Builder = std::function<Result<cst::Cst>()>;

  /// Builds a summary view. A builder returning any other type (e.g.
  /// Result<cst::Cst>) selects the Builder overload instead — the two
  /// Result types do not convert, so lambdas resolve unambiguously.
  using ViewBuilder =
      std::function<Result<std::shared_ptr<const cst::CstView>>()>;

  /// Starts an off-thread rebuild that runs `builder` and publishes on
  /// success. Returns false (and does nothing) if a rebuild is already
  /// in flight. `source` labels the resulting snapshot; `data`, when
  /// provided, is attached to it on publish (the tree the builder
  /// summarizes, for the accuracy sampler).
  bool BeginRebuild(Builder builder, std::string source,
                    std::shared_ptr<const tree::Tree> data = nullptr);
  bool BeginRebuild(ViewBuilder builder, std::string source,
                    std::shared_ptr<const tree::Tree> data = nullptr);

  /// Blocks until no rebuild is in flight and returns the status of
  /// the most recent one (OK if none ever ran).
  Status WaitForRebuild();

  bool rebuild_in_flight() const;

  /// Observes every rebuild's outcome (OK or the builder's error),
  /// invoked on the rebuild thread after the publish (on success) but
  /// before the rebuild is marked finished — so once WaitForRebuild
  /// returns, the listener has already run for that rebuild. At most
  /// one listener; nullptr unregisters. Setting blocks until any
  /// in-progress invocation of the previous listener returns, so after
  /// SetRebuildListener(nullptr) the old listener's captures are safe
  /// to destroy. The serving layer uses this to flip health to
  /// degraded on failure and back on the next success.
  void SetRebuildListener(std::function<void(const Status&)> listener);

 private:
  void RebuildMain(ViewBuilder builder, std::string source,
                   std::shared_ptr<const tree::Tree> data);

  mutable std::mutex mutex_;
  std::condition_variable rebuild_done_;
  std::shared_ptr<const CstSnapshot> current_;
  uint64_t next_version_ = 1;
  std::thread rebuild_thread_;
  bool rebuild_in_flight_ = false;
  Status last_rebuild_status_;
  /// Separate from mutex_ so a listener may call back into the catalog
  /// (version(), Current()) without deadlocking, and so holding it
  /// through the invocation gives SetRebuildListener its drain
  /// guarantee.
  std::mutex listener_mutex_;
  std::function<void(const Status&)> rebuild_listener_;
};

/// The dataset id requests resolve to when they carry none. Also the
/// id under which the single-catalog compatibility constructors
/// register their catalog.
inline constexpr const char kDefaultDataset[] = "default";

/// Normalizes a wire-supplied dataset id: empty means "default".
inline std::string_view ResolveDatasetId(std::string_view id) {
  return id.empty() ? std::string_view(kDefaultDataset) : id;
}

/// A keyed map `dataset id -> snapshot lineage`. Each dataset keeps
/// its own SnapshotCatalog — its own RCU lineage, version sequence,
/// rebuild machinery, and rebuild listener — so corpora swap and
/// degrade independently. The map itself is insert-only: datasets are
/// registered before serving starts and never removed, so Find returns
/// a pointer that stays valid for the catalog's lifetime and the
/// per-request cost is one mutex-guarded map lookup.
///
/// Catalogs may be owned (Create) or borrowed (Register) — borrowing
/// is how the single-catalog compatibility constructors wrap a
/// caller-owned SnapshotCatalog as the "default" dataset without
/// changing its lifetime.
class DatasetCatalog {
 public:
  DatasetCatalog() = default;
  DatasetCatalog(const DatasetCatalog&) = delete;
  DatasetCatalog& operator=(const DatasetCatalog&) = delete;

  /// Creates (and owns) an empty lineage for `id`. Returns the
  /// existing catalog when `id` is already registered.
  SnapshotCatalog* Create(std::string_view id);

  /// Registers a caller-owned catalog under `id` (the caller keeps it
  /// alive for this object's lifetime). Returns false when `id` is
  /// already registered (the existing entry wins).
  bool Register(std::string_view id, SnapshotCatalog* catalog);

  /// The catalog for `id` (empty = default), or nullptr when no such
  /// dataset is registered. The pointer stays valid forever (datasets
  /// are never removed).
  SnapshotCatalog* Find(std::string_view id) const;

  /// Find(kDefaultDataset).
  SnapshotCatalog* Default() const { return Find(kDefaultDataset); }

  /// Registered dataset ids, sorted.
  std::vector<std::string> DatasetIds() const;

  size_t size() const;

 private:
  struct Entry {
    std::unique_ptr<SnapshotCatalog> owned;  // null for Register()ed
    SnapshotCatalog* catalog = nullptr;
  };

  mutable std::mutex mutex_;
  std::map<std::string, Entry, std::less<>> datasets_;
};

}  // namespace twig::serve

#endif  // TWIG_SERVE_SNAPSHOT_H_
