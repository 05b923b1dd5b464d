// Disk spill tier under the runtime prepared-state cache.
//
// A SpillStore owns one directory of prepared bundles (.prep files named by
// content fingerprints, see prepared_bundle.h) with its own byte budget and
// LRU reclamation: when the directory exceeds the budget, the
// least-recently-touched bundles are deleted. The budget is charged with
// each bundle's *encoded* on-disk size (image.size() as serialized, not
// the in-RAM table footprint), so the bitpacked v2 format
// (docs/STORAGE_CODECS.md) directly admits more bundles under the same
// budget. Opening a store scans the
// directory, so spilled preparation work survives process restarts — and
// bundles exported with Document::SavePrepared under the canonical name
// pre-warm a fleet.
//
// To keep restarts cheap on large directories, the store periodically
// writes a checksummed "spill.index" file recording its LRU order and
// sizes. Open validates the index against the directory's *names* only —
// one readdir, no per-file stat — and adopts it on an exact match; a
// missing, corrupt, or stale index falls back to the full stat walk
// (mtimes approximate the lost LRU order). The index is a warm-start
// hint, never a source of truth: every divergence is detected by the name
// comparison except a same-name overwrite after the last flush, which can
// leave a stale byte size until the entry is next written or reclaimed.
//
// Thread-safe. Lookups copy the entry's path and run the mmap + deserialize
// outside the store lock, so concurrent misses on different keys do not
// serialize; a file reclaimed mid-lookup simply degrades into a miss.
// Corrupt or stale bundles are deleted on sight and reported as misses —
// never as errors, and never by crashing (the deserializer is strictly
// bounds-checked).

#ifndef SLPSPAN_STORAGE_SPILL_STORE_H_
#define SLPSPAN_STORAGE_SPILL_STORE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "storage/prepared_bundle.h"
#include "util/mutex.h"
#include "util/status.h"

namespace slpspan {
namespace storage {

class SpillStore {
 public:
  struct Options {
    std::string directory;
    uint64_t byte_budget = uint64_t{4} << 30;
  };

  /// Creates the directory if needed and indexes the bundles already in it
  /// (oldest-modified = least recently used). Fails with kInvalidArgument
  /// when the directory cannot be created.
  static Result<std::unique_ptr<SpillStore>> Open(Options opts);

  /// Flushes a final index so the next Open warms without a stat walk.
  ~SpillStore();

  /// Writes the warm-start index now. Called by the runtime's clean
  /// shutdown hook (Runtime::FlushSpill) — the cache is a leaked
  /// singleton, so the destructor flush only covers store replacement.
  void WriteIndex();

  /// Writes a sealed bundle image for (doc_fp, query_fp) — atomic
  /// temp+rename — then reclaims least-recently-used bundles until the
  /// directory fits the budget again (which may reclaim the new bundle
  /// itself if it alone exceeds the budget).
  Status Put(uint64_t doc_fp, uint64_t query_fp, const std::string& image);

  /// Loads the bundle for (doc_fp, query_fp); null on miss. A file that
  /// fails validation is deleted and counts as a miss.
  StatePtr Get(uint64_t doc_fp, uint64_t query_fp,
               api_internal::PreparedState::RechargeFn recharge);

  bool Contains(uint64_t doc_fp, uint64_t query_fp) const;

  struct Stats {
    uint64_t disk_hits = 0;      ///< lookups served from a bundle
    uint64_t disk_misses = 0;    ///< lookups that fell through to preparation
    uint64_t spilled_bytes = 0;  ///< cumulative bundle bytes written
    uint64_t entries = 0;        ///< bundles currently on disk
    uint64_t bytes = 0;          ///< bundle bytes currently on disk
    uint64_t reclaimed = 0;      ///< bundles deleted to respect the budget
    uint64_t budget_bytes = 0;
    bool warmed_from_index = false;  ///< Open adopted spill.index (no stats)
    uint64_t index_writes = 0;       ///< spill.index flushes so far
  };
  Stats GetStats() const;

  const std::string& directory() const { return dir_; }

 private:
  struct Key {
    uint64_t doc_fp = 0;
    uint64_t query_fp = 0;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      uint64_t h = k.doc_fp * 0x9E3779B97F4A7C15ull;
      h ^= k.query_fp * 0xC2B2AE3D27D4EB4Full;
      return static_cast<size_t>(h ^ (h >> 32));
    }
  };
  struct Entry {
    Key key;
    uint64_t bytes = 0;
    uint64_t gen = 0;  ///< bumped by every (re)index; guards stale deletes
  };

  explicit SpillStore(Options opts)
      : dir_(std::move(opts.directory)), budget_(opts.byte_budget) {}

  std::string PathFor(const Key& key) const;

  /// Deletes LRU-tail bundles until the directory fits the budget.
  void ReclaimOverBudgetLocked() REQUIRES(mu_);

  /// Serializes the LRU (MRU first) into spill.index, atomically.
  void WriteIndexLocked() REQUIRES(mu_);

  const std::string dir_;
  const uint64_t budget_;

  mutable util::Mutex mu_;
  std::list<Entry> lru_ GUARDED_BY(mu_);  // front = most recently used
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index_
      GUARDED_BY(mu_);
  uint64_t next_gen_ GUARDED_BY(mu_) = 1;
  uint64_t bytes_ GUARDED_BY(mu_) = 0;
  uint64_t disk_hits_ GUARDED_BY(mu_) = 0;
  uint64_t disk_misses_ GUARDED_BY(mu_) = 0;
  uint64_t spilled_bytes_ GUARDED_BY(mu_) = 0;
  uint64_t reclaimed_ GUARDED_BY(mu_) = 0;
  uint64_t dirty_puts_ GUARDED_BY(mu_) = 0;  ///< Puts since last index flush
  uint64_t index_writes_ GUARDED_BY(mu_) = 0;
  bool warmed_from_index_ GUARDED_BY(mu_) = false;
};

/// Name of the warm-start index file inside a spill directory.
inline constexpr char kSpillIndexFileName[] = "spill.index";

}  // namespace storage
}  // namespace slpspan

#endif  // SLPSPAN_STORAGE_SPILL_STORE_H_
